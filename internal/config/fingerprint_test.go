package config

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// referenceFingerprint is the fmt formula that defines Config.Fingerprint.
// Fingerprint writes the same text without fmt; this is the formula it is
// checked against. mem and ss are %+v of the substrate configs, so a
// field added to them changes this text and fails the comparison until
// Fingerprint writes it too.
func referenceFingerprint(c *Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "thr=%d fw=%d w=%d f2d=%d rob=%d iq=%d lq=%d sq=%d prf=%d",
		c.Threads, c.FetchWidth, c.Width, c.FetchToDispatch,
		c.ROB, c.IQ, c.LQ, c.SQ, c.PRF)
	fmt.Fprintf(h, " shelf=%d opt=%t sssr=%t relwb=%t",
		c.Shelf, c.OptimisticShelf, false, c.ShelfReleaseAtWriteback)
	fmt.Fprintf(h, " steer=%d rct=%d plt=%d coarse=%d",
		c.Steer, c.RCTBits, c.PLTLoads, c.CoarseInterval)
	fmt.Fprintf(h, " alu=%d muldiv=%d fp=%d memp=%d",
		c.IntALUs, c.IntMultDiv, c.FPUnits, c.MemPorts)
	fmt.Fprintf(h, " mem={%+v} branch={{GshareBits:%d BTBEntries:%d RASEntries:16}} ss={%+v}",
		c.Mem, c.Branch.GshareBits, c.Branch.BTBEntries, c.StoreSets)
	fmt.Fprintf(h, " ab=%t%t%t%t%t", false, c.AblateNoWAW,
		c.AblateNoElderStore, c.AblateNoRunCond, c.AblateNoRetireCoord)
	fmt.Fprintf(h, " tel=%t chk=%t fault=%d fkind=%d rescan=%t asmb=%d name=%q",
		c.Telemetry, c.CheckInvariants, c.InjectFaultCycle, c.InjectFaultKind,
		c.RescanScheduler, c.AsmScheduleBound, c.Name)
	fmt.Fprintf(h, " cores=%d alloc=%d lockstep=%t epoch=%d migc=%d l2share=%d",
		c.NumCores, c.AllocPolicy, c.ChipLockstep, c.ChipEpoch, c.MigrationCost, c.L2SharePenalty)
	return fmt.Sprintf("%016x", h.Sum64())
}

// allPresets is every Table I preset at every thread count a request can
// name.
func allPresets() []Config {
	var out []Config
	for threads := 1; threads <= 8; threads++ {
		out = append(out, Base64(threads), Base128(threads),
			Shelf64(threads, false), Shelf64(threads, true), Coarse64(threads, 1000))
	}
	return out
}

// quoteTests are names %q renders with escapes: quotes, a backslash,
// control bytes, non-ASCII and invalid UTF-8.
var quoteTests = []string{"", "shelf64-opt", `say "hi"`, `back\slash`, "tab\tnl\n",
	"ünïcödé", "日本", "\xff\xfeinvalid", "\x00\x7f", "emoji \U0001F600"}

// randomize sets every leaf of v to a random value: integers of any sign
// and size, either bool, and names from quoteTests.
func randomize(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randomize(v.Field(i), rng)
		}
	default:
		randomLeaf(v, rng)
	}
}

// randomLeaf sets the settable leaf v to a random value.
func randomLeaf(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := rng.Int63() >> rng.Intn(63)
		if rng.Intn(2) == 1 {
			x = -x - 1
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	case reflect.String:
		v.SetString(quoteTests[rng.Intn(len(quoteTests))])
	default:
		panic(fmt.Sprintf("config leaf of kind %s has no random value", v.Kind()))
	}
}

// leaves returns every leaf of v, recursing into structs.
func leaves(v reflect.Value) []reflect.Value {
	if v.Kind() != reflect.Struct {
		return []reflect.Value{v}
	}
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		out = append(out, leaves(v.Field(i))...)
	}
	return out
}

// TestFingerprintMatchesReference: Fingerprint writes the reference fmt
// formula's text for every preset; for every preset with any one leaf
// field set to a random value (so every field a request's Overrides can
// set, and every field it cannot); and for fully random configurations,
// including negative values and names %q must escape.
func TestFingerprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(what string, c *Config) {
		t.Helper()
		if got, want := c.Fingerprint(), referenceFingerprint(c); got != want {
			t.Fatalf("%s: Fingerprint %s, reference %s\nconfig %+v", what, got, want, *c)
		}
	}
	for _, p := range allPresets() {
		check(p.Name, &p)
		for i := range leaves(reflect.ValueOf(&p).Elem()) {
			for trial := 0; trial < 4; trial++ {
				c := p
				randomLeaf(leaves(reflect.ValueOf(&c).Elem())[i], rng)
				check(fmt.Sprintf("%s with leaf %d changed", p.Name, i), &c)
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		var c Config
		randomize(reflect.ValueOf(&c).Elem(), rng)
		check("random config", &c)
	}
	for _, name := range quoteTests {
		c := Shelf64(4, true)
		c.Name = name
		c.Mem.L2.Name = name
		check(fmt.Sprintf("name %q", name), &c)
	}
}

// TestFingerprintAllocs: a fingerprint allocates only its result.
func TestFingerprintAllocs(t *testing.T) {
	c := Shelf64(4, true)
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Fingerprint() }); allocs > 1 {
		t.Errorf("Fingerprint made %.0f allocations, want 1", allocs)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	c := Shelf64(4, true)
	b.ReportAllocs()
	for b.Loop() {
		_ = c.Fingerprint()
	}
}
