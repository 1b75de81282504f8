package runner

import (
	"context"
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/isa"
	"shelfsim/internal/workload"
)

// FuzzStream drives short supervised runs over fuzzed workload streams:
// arbitrary kernel selections, stream seeds, address-space bases, thread
// counts and both microarchitectures, with the per-cycle invariant checker
// enabled. The properties under test are the runner's core guarantees — no
// panic escapes supervision, every thread retires its full bounded stream,
// and retirement stays in strict program order (runRecorded asserts order
// through the retire observer).
func FuzzStream(f *testing.F) {
	f.Add(uint64(1), uint64(2016), uint8(0), uint16(100), false)
	f.Add(uint64(0xdeadbeef), uint64(7), uint8(1), uint16(250), true)
	f.Add(uint64(13), uint64(0), uint8(2), uint16(0), true)

	kernels := workload.Kernels()
	f.Fuzz(func(t *testing.T, kpick, seed uint64, tsel uint8, instsRaw uint16, shelf bool) {
		threads := []int{1, 2, 4}[int(tsel)%3]
		insts := int64(40 + instsRaw%260)

		mix := workload.Mix{ID: 0}
		streams := make([]isa.Stream, threads)
		for i := 0; i < threads; i++ {
			k := kernels[int(kpick>>(5*i))%len(kernels)]
			mix.Kernels = append(mix.Kernels, k)
			streams[i] = k.NewStream(uint64(i+1)<<32, seed+uint64(i)*0x9e3779b9, insts)
		}

		cfg := config.Base64(threads)
		if shelf {
			cfg = config.Shelf64(threads, true)
		}
		cfg.CheckInvariants = true

		r := &Runner{}
		counts, err := r.runRecorded(context.Background(), Job{Config: cfg, Mix: mix, Streams: streams, Measure: insts})
		if err != nil {
			t.Fatalf("supervised run failed (%s, %d threads, seed %#x): %v",
				cfg.Name, threads, seed, err)
		}
		for tid, n := range counts {
			if n != insts {
				t.Errorf("thread %d retired %d of %d instructions", tid, n, insts)
			}
		}
	})
}
