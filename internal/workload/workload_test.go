package workload

import (
	"fmt"
	"testing"
	"testing/quick"

	"shelfsim/internal/isa"
)

func TestKernelsNonEmpty(t *testing.T) {
	ks := Kernels()
	if len(ks) < 10 {
		t.Fatalf("suite too small: %d kernels", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if k.Name == "" || k.Description == "" {
			t.Errorf("kernel missing name/description: %+v", k)
		}
		if seen[k.Name] {
			t.Errorf("duplicate kernel name %s", k.Name)
		}
		seen[k.Name] = true
		if k.Footprint() == 0 {
			t.Errorf("%s has zero footprint", k.Name)
		}
		if k.BodyLen() == 0 {
			t.Errorf("%s has empty body", k.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		k, err := ByName(name)
		if err != nil || k.Name != name {
			t.Errorf("ByName(%s) = %v, %v", name, k, err)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestStreamDeterminism(t *testing.T) {
	for _, k := range Kernels() {
		a := k.NewStream(1<<32, 7, 500)
		b := k.NewStream(1<<32, 7, 500)
		var ia, ib isa.Inst
		for i := 0; ; i++ {
			okA := a.Next(&ia)
			okB := b.Next(&ib)
			if okA != okB {
				t.Fatalf("%s: streams diverge in length at %d", k.Name, i)
			}
			if !okA {
				break
			}
			if ia != ib {
				t.Fatalf("%s: instruction %d differs: %v vs %v", k.Name, i, ia, ib)
			}
		}
	}
}

func TestStreamLimit(t *testing.T) {
	k := Kernels()[0]
	s := k.NewStream(0, 1, 37)
	var in isa.Inst
	n := 0
	for s.Next(&in) {
		n++
	}
	if n != 37 {
		t.Fatalf("limit 37 produced %d instructions", n)
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	const base = uint64(4) << 32
	for _, k := range Kernels() {
		s := k.NewStream(base, 3, 2000)
		var in isa.Inst
		for s.Next(&in) {
			if !in.Op.IsMem() {
				continue
			}
			if in.Addr < base || in.Addr >= base+k.Footprint() {
				t.Fatalf("%s address %#x outside [%#x, %#x)", k.Name, in.Addr, base, base+k.Footprint())
			}
		}
	}
}

func TestMemOpsHaveSize(t *testing.T) {
	for _, k := range Kernels() {
		s := k.NewStream(0, 1, 500)
		var in isa.Inst
		for s.Next(&in) {
			if in.Op.IsMem() && in.Size == 0 {
				t.Fatalf("%s memory op without size", k.Name)
			}
		}
	}
}

func TestTakenBranchesHaveConsistentTargets(t *testing.T) {
	for _, k := range Kernels() {
		s := k.NewStream(0, 1, 2000)
		var prev isa.Inst
		havePrev := false
		var in isa.Inst
		for s.Next(&in) {
			if havePrev && prev.Op == isa.OpBranch && prev.Taken {
				if in.PC != prev.Target {
					t.Fatalf("%s: taken branch at %#x targets %#x but next PC is %#x",
						k.Name, prev.PC, prev.Target, in.PC)
				}
			}
			prev, havePrev = in, true
		}
	}
}

func TestRegistersInRange(t *testing.T) {
	for _, k := range Kernels() {
		s := k.NewStream(0, 1, 1000)
		var in isa.Inst
		for s.Next(&in) {
			if in.Dest != isa.RegInvalid && (in.Dest < 0 || in.Dest >= isa.NumArchRegs) {
				t.Fatalf("%s dest register %d out of range", k.Name, in.Dest)
			}
			for _, src := range in.Srcs {
				if src != isa.RegInvalid && (src < 0 || src >= isa.NumArchRegs) {
					t.Fatalf("%s source register %d out of range", k.Name, src)
				}
			}
		}
	}
}

func TestBalancedRandomMixes(t *testing.T) {
	mixes, err := BalancedRandomMixes(4, 28, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixes) != 28 {
		t.Fatalf("got %d mixes", len(mixes))
	}
	counts := map[string]int{}
	for _, m := range mixes {
		if len(m.Kernels) != 4 {
			t.Fatalf("mix with %d kernels", len(m.Kernels))
		}
		for _, k := range m.Kernels {
			counts[k.Name]++
		}
	}
	want := 28 * 4 / len(Kernels())
	for name, n := range counts {
		if n != want {
			t.Errorf("kernel %s appears %d times, want %d (balanced)", name, n, want)
		}
	}
}

func TestBalancedRandomMixesErrors(t *testing.T) {
	if _, err := BalancedRandomMixes(0, 28, 1); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := BalancedRandomMixes(3, 5, 1); err == nil {
		t.Error("non-divisible slot count accepted")
	}
}

func TestMixesDeterministic(t *testing.T) {
	a, _ := BalancedRandomMixes(4, 28, 99)
	b, _ := BalancedRandomMixes(4, 28, 99)
	for i := range a {
		for j := range a[i].Kernels {
			if a[i].Kernels[j] != b[i].Kernels[j] {
				t.Fatal("mixes not deterministic")
			}
		}
	}
}

func TestPaperMixes(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8} {
		mixes := PaperMixes(threads)
		if len(mixes) != 28 {
			t.Errorf("threads=%d: %d mixes", threads, len(mixes))
		}
	}
}

func TestMixName(t *testing.T) {
	mixes := PaperMixes(2)
	if mixes[0].Name() == "" {
		t.Error("empty mix name")
	}
}

// Property: streams are deterministic for arbitrary (kernel, seed) pairs.
func TestStreamDeterminismProperty(t *testing.T) {
	ks := Kernels()
	f := func(kidx uint8, seed uint64) bool {
		k := ks[int(kidx)%len(ks)]
		a := k.NewStream(1<<33, seed, 64)
		b := k.NewStream(1<<33, seed, 64)
		var ia, ib isa.Inst
		for a.Next(&ia) {
			if !b.Next(&ib) || ia != ib {
				return false
			}
		}
		return !b.Next(&ib)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGDistribution(t *testing.T) {
	r := newRNG(42)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		sum += r.float()
	}
	mean := sum / n
	if mean < 0.45 || mean > 0.55 {
		t.Errorf("rng mean = %g, want ~0.5", mean)
	}
	if newRNG(0).next() == 0 {
		t.Error("zero seed must be remapped")
	}
	if v := r.intn(0); v != 0 {
		t.Errorf("intn(0) = %d", v)
	}
}

// TestMixNameMatchesFormat: Name writes what fmt's "mix%02d[" plus the
// '+'-joined kernel names gives, for IDs of any sign and width.
func TestMixNameMatchesFormat(t *testing.T) {
	ks := Kernels()
	for id := -12; id <= 120; id++ {
		m := Mix{ID: id, Kernels: ks[:id&3]}
		want := fmt.Sprintf("mix%02d[", id)
		for i, k := range m.Kernels {
			if i > 0 {
				want += "+"
			}
			want += k.Name
		}
		if got := m.Name(); got != want+"]" {
			t.Fatalf("Name() = %q, want %q", got, want+"]")
		}
	}
}
