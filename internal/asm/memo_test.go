package asm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shelfsim/internal/isa"
)

// replay returns n instructions of a fresh stream over p.
func replay(p *Program, base uint64, n int) []isa.Inst {
	s := p.NewStream(base)
	out := make([]isa.Inst, n)
	for i := range out {
		s.Next(&out[i])
	}
	return out
}

// assembleHit assembles src twice through the memo and returns the
// second Program, failing unless the memo answered it.
func assembleHit(t *testing.T, src string) *Program {
	t.Helper()
	mustAssemble(t, src)
	if _, ok := assembled.get(memoKey{src: src}); !ok {
		t.Fatal("a source that assembled is not memoized")
	}
	return mustAssemble(t, src)
}

// TestMemoHitEqualsMiss requires a memo hit to be indistinguishable from
// assembling the source again, down to two full passes of its stream,
// and to hold no schedule of its own or of any other Program.
func TestMemoHitEqualsMiss(t *testing.T) {
	names, srcs := testdataPrograms(t)
	for i, src := range srcs {
		t.Run(names[i], func(t *testing.T) {
			miss := mustAssembleUncached(t, src)
			hit := assembleHit(t, src)
			if hit.sched != nil {
				t.Fatalf("memo hit already holds a %d-instruction schedule", len(hit.sched))
			}
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"Name", hit.Name(), miss.Name()},
				{"Bound", hit.Bound(), miss.Bound()},
				{"StaticLen", hit.StaticLen(), miss.StaticLen()},
				{"ScheduleLen", hit.ScheduleLen(), miss.ScheduleLen()},
				{"PCBase", hit.PCBase(), miss.PCBase()},
				{"Fingerprint", hit.Fingerprint(), miss.Fingerprint()},
				{"String", hit.String(), miss.String()},
			} {
				if c.got != c.want {
					t.Errorf("%s: hit %v, miss %v", c.what, c.got, c.want)
				}
			}
			n := 2 * miss.ScheduleLen()
			if !reflect.DeepEqual(replay(hit, 1<<32, n), replay(miss, 1<<32, n)) {
				t.Fatal("two passes of the hit's stream differ from the miss's")
			}
			if again := mustAssemble(t, src); again.sched != nil {
				t.Fatal("a hit after another hit built its schedule shares that schedule")
			}
		})
	}
}

// TestMemoKeepsNoErrors requires a failing source to fail alike on every
// call, and never to enter the memo.
func TestMemoKeepsNoErrors(t *testing.T) {
	const src = "nop\nbogus x1\n"
	_, want := assemble(src, Options{})
	if want == nil {
		t.Fatal("bad source assembled")
	}
	for i := 0; i < 3; i++ {
		p, err := Assemble(src, Options{})
		if p != nil || !reflect.DeepEqual(err, want) {
			t.Fatalf("call %d: got (%v, %#v), want (nil, %#v)", i, p, err, want)
		}
		if _, ok := err.(*Error); !ok {
			t.Fatalf("call %d: error is a %T, want *Error", i, err)
		}
	}
	if _, ok := assembled.get(memoKey{src: src}); ok {
		t.Fatal("a failed assembly was memoized")
	}
}

// TestMemoKeysOnScheduleCap requires the schedule cap to be part of the
// key: a source memoized under a loose cap still fails under a tight one.
func TestMemoKeysOnScheduleCap(t *testing.T) {
	const src = ".loop 5000\nnop\n"
	mustAssemble(t, src)
	if _, err := Assemble(src, Options{MaxSchedule: 100}); err == nil {
		t.Fatal("a memoized program escaped a tighter schedule cap")
	}
}

// TestMemoHitAllocs pins a hit's cost: the Program it returns and no
// more, whatever the schedule length.
func TestMemoHitAllocs(t *testing.T) {
	_, srcs := testdataPrograms(t)
	for _, src := range srcs {
		assembleHit(t, src)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Assemble(src, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("a memo hit made %.0f allocations, want at most 2", allocs)
		}
	}
}

// TestMemoBounded feeds the memo more distinct sources than memoMaxBytes
// holds and requires what it retains, recounted from its entries, never
// to exceed the bound, and a source larger than the bound not to enter
// it at all.
func TestMemoBounded(t *testing.T) {
	body := strings.Repeat("addi x1, x1, 1\n", 512)
	fed := 0
	for i := 0; fed <= 2*memoMaxBytes; i++ {
		src := fmt.Sprintf(".name bound%d\n%s", i, body)
		p := mustAssemble(t, src)
		fed += entryBytes(memoKey{src: src}, &p.image)
		assembled.mu.Lock()
		sum := 0
		for k, img := range assembled.m {
			sum += entryBytes(k, &img)
		}
		counted := assembled.bytes
		assembled.mu.Unlock()
		if sum != counted || counted > memoMaxBytes {
			t.Fatalf("after %d sources (%d bytes) the memo counts %d bytes and holds %d, bound %d",
				i+1, fed, counted, sum, memoMaxBytes)
		}
	}
	big := ".loop 100000\n" + strings.Repeat("nop\n", memoMaxBytes/64)
	p := mustAssemble(t, big)
	if n := entryBytes(memoKey{src: big}, &p.image); n <= memoMaxBytes {
		t.Fatalf("the large source takes %d bytes, not more than the bound %d", n, memoMaxBytes)
	}
	if _, ok := assembled.get(memoKey{src: big}); ok {
		t.Fatal("a source larger than the bound was memoized")
	}
}

// concurrentRuns makes each run of TestConcurrentAssemble assemble a
// source the memo has not seen, so -count=N races misses every time.
var concurrentRuns atomic.Int64

// TestConcurrentAssemble races the memo and the lazy schedule build:
// goroutines assemble one new source and replay two passes of it at
// once, and every replay must equal the uncached program's.
func TestConcurrentAssemble(t *testing.T) {
	_, srcs := testdataPrograms(t)
	want := mustAssembleUncached(t, srcs[len(srcs)-1])
	src := fmt.Sprintf("%s# run %d\n", srcs[len(srcs)-1], concurrentRuns.Add(1))
	n := 2 * want.ScheduleLen()
	wantReplay := replay(want, 0, n)
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := Assemble(src, Options{})
			switch {
			case err != nil:
				errs <- err
			case p.Fingerprint() != want.Fingerprint():
				errs <- fmt.Errorf("fingerprint %s, want %s", p.Fingerprint(), want.Fingerprint())
			case !reflect.DeepEqual(replay(p, 0, n), wantReplay):
				errs <- fmt.Errorf("replay of %s differs from the uncached program's", p.Name())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkAssembleHit measures the asm assembly layer on memo hits: the
// four testdata/asm programs, as shelfd assembles them for every request
// after the first that carries them.
func BenchmarkAssembleHit(b *testing.B) {
	_, srcs := testdataPrograms(b)
	for _, src := range srcs {
		if _, err := Assemble(src, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var insts int
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, src := range srcs {
			p, err := Assemble(src, Options{})
			if err != nil {
				b.Fatal(err)
			}
			insts += p.ScheduleLen()
		}
	}
	b.ReportMetric(float64(insts), "insts/op")
}
