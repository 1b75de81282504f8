package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// referenceFingerprint is the fmt formula that defines Result.Fingerprint.
// Fingerprint writes the same text without fmt; this is the formula it is
// checked against. stats and the caches are %+v, so a counter added to
// Stats or mem.CacheStats changes this text and fails the comparison
// until Fingerprint writes it too.
func referenceFingerprint(r *Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "cfg=%s cycles=%d stats=%+v", r.Config, r.Cycles, r.Stats)
	fmt.Fprintf(h, " l1i=%+v l1d=%+v l2=%+v", r.L1I, r.L1D, r.L2)
	for i := range r.Threads {
		t := &r.Threads[i]
		fmt.Fprintf(h, " t%d={%s %d %d %d %.17g %.17g %.17g %d %d %d %d %d %d %d}",
			i, t.Workload, t.Retired, t.Fetched, t.FinishCycle,
			t.CPI, t.InSeqFraction, t.ShelfFraction,
			t.SteerShelf, t.SteerIQ, t.Squashes, t.Mispredicts,
			t.MemViolations, t.LoadForwards, t.StoreCoalesce)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fingerprintNames are names with quotes, escapes, non-ASCII and invalid
// UTF-8, which %s writes as they are.
var fingerprintNames = []string{"", "shelf64-opt", "mix00[callret+ilpmax]", `say "hi"`,
	"tab\tnl\n", "ünïcödé", "\xff\xfeinvalid", "asm[crc.s]"}

// fingerprintFloats are the thread floats %.17g must agree on: both
// zeros, both infinities, NaN, extremes and ordinary ratios.
var fingerprintFloats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	1, 1.5, 2.468, 1.0 / 3, 1e-300, 5e-324, math.MaxFloat64, 123456789.123456789, 1e21, 1e20}

// randomInts sets every integer leaf of v (a struct, array or integer)
// to a random value of any sign and magnitude.
func randomInts(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randomInts(v.Field(i), rng)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			randomInts(v.Index(i), rng)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := rng.Int63() >> rng.Intn(63)
		if rng.Intn(2) == 1 {
			x = -x - 1
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	default:
		panic(fmt.Sprintf("result leaf of kind %s has no random value", v.Kind()))
	}
}

// TestFingerprintMatchesReference: Fingerprint writes the reference fmt
// formula's text for random results: every counter random, names that
// need quoting or are not ASCII, zero to sixteen threads, and thread
// floats 0, -0, ±Inf, NaN and ordinary values.
func TestFingerprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64() * 10
		}
		return fingerprintFloats[rng.Intn(len(fingerprintFloats))]
	}
	for trial := 0; trial < 2000; trial++ {
		r := Result{Config: fingerprintNames[rng.Intn(len(fingerprintNames))]}
		randomInts(reflect.ValueOf(&r.Cycles).Elem(), rng)
		randomInts(reflect.ValueOf(&r.Stats).Elem(), rng)
		randomInts(reflect.ValueOf(&r.L1I).Elem(), rng)
		randomInts(reflect.ValueOf(&r.L1D).Elem(), rng)
		randomInts(reflect.ValueOf(&r.L2).Elem(), rng)
		r.Threads = make([]ThreadResult, rng.Intn(17))
		for i := range r.Threads {
			th := &r.Threads[i]
			for _, f := range []*int64{&th.Retired, &th.Fetched, &th.FinishCycle, &th.SteerShelf, &th.SteerIQ,
				&th.Squashes, &th.Mispredicts, &th.MemViolations, &th.LoadForwards, &th.StoreCoalesce} {
				randomInts(reflect.ValueOf(f).Elem(), rng)
			}
			th.Workload = fingerprintNames[rng.Intn(len(fingerprintNames))]
			th.CPI, th.InSeqFraction, th.ShelfFraction = pick(), pick(), pick()
		}
		if got, want := r.Fingerprint(), referenceFingerprint(&r); got != want {
			t.Fatalf("trial %d: Fingerprint %s, reference %s\nresult %+v", trial, got, want, r)
		}
	}
}
