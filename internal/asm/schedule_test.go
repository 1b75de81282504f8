package asm

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"shelfsim/internal/isa"
)

// testdataPrograms returns the checked-in testdata/asm programs' sources
// in name order.
func testdataPrograms(tb testing.TB) (names, srcs []string) {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "asm", "*.s"))
	if err != nil {
		tb.Fatal(err)
	}
	sort.Strings(paths)
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, filepath.Base(path))
		srcs = append(srcs, string(src))
	}
	if len(srcs) == 0 {
		tb.Fatal("no .s files found in testdata/asm")
	}
	return names, srcs
}

// TestScheduleIsLazy pins that assembly fingerprints without keeping a
// schedule: a fresh Program holds none, ScheduleLen is known anyway, and
// the schedule NewStream builds has exactly that length.
func TestScheduleIsLazy(t *testing.T) {
	names, srcs := testdataPrograms(t)
	for i, src := range srcs {
		p := mustAssemble(t, src)
		if p.sched != nil {
			t.Fatalf("%s: freshly assembled program already holds a %d-instruction schedule", names[i], len(p.sched))
		}
		p.NewStream(0)
		if len(p.sched) != p.ScheduleLen() {
			t.Fatalf("%s: NewStream built %d instructions, ScheduleLen says %d", names[i], len(p.sched), p.ScheduleLen())
		}
	}
}

// TestAssembleAllocsIndependentOfScheduleLength pins the cost of
// fingerprinting: assembling dotprod.s (2055 dynamic instructions)
// allocates for its source and static program, never per dynamic
// instruction.
func TestAssembleAllocsIndependentOfScheduleLength(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "asm", "dotprod.s"))
	if err != nil {
		t.Fatal(err)
	}
	p := mustAssembleUncached(t, string(src))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := assemble(string(src), Options{}); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 200
	if allocs > limit {
		t.Fatalf("Assemble(dotprod.s) made %.0f allocations for a %d-instruction schedule, want at most %d",
			allocs, p.ScheduleLen(), limit)
	}
	t.Logf("Assemble(dotprod.s): %.0f allocations, %d dynamic instructions", allocs, p.ScheduleLen())
}

// TestConcurrentNewStream races the lazy schedule build: goroutines
// open streams on one fresh Program at once, and every replay of two
// full passes must be identical.
func TestConcurrentNewStream(t *testing.T) {
	_, srcs := testdataPrograms(t)
	p := mustAssemble(t, srcs[0])
	const workers = 8
	n := 2 * p.ScheduleLen()
	replays := make([][]isa.Inst, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.NewStream(0)
			out := make([]isa.Inst, n)
			for i := range out {
				s.Next(&out[i])
			}
			replays[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range replays[0] {
			if replays[w][i] != replays[0][i] {
				t.Fatalf("worker %d differs from worker 0 at %d: %+v vs %+v", w, i, replays[w][i], replays[0][i])
			}
		}
	}
}

// BenchmarkAssemble measures the asm assembly layer on a memo miss:
// lexing, parsing and fingerprinting the four testdata/asm programs, as
// shelfd does the first time a request carries them. insts/op is the
// dynamic instructions emulated per op.
func BenchmarkAssemble(b *testing.B) {
	_, srcs := testdataPrograms(b)
	b.ReportAllocs()
	var insts int
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, src := range srcs {
			p, err := assemble(src, Options{})
			if err != nil {
				b.Fatal(err)
			}
			insts += p.ScheduleLen()
		}
	}
	b.ReportMetric(float64(insts), "insts/op")
}
