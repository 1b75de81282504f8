package runner

import (
	"context"
	"errors"
	"strings"
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/workload"
)

// chipTestCfg is a 2-core x 2-thread shelf64 chip with the ICOUNT
// allocator, small epochs and the shared-L2 model on.
func chipTestCfg() config.Config {
	cfg := config.Shelf64(2, true)
	cfg.Name = "chip-test"
	cfg.NumCores = 2
	cfg.AllocPolicy = config.AllocICount
	cfg.ChipEpoch = 1024
	cfg.MigrationCost = 200
	cfg.L2SharePenalty = 2
	return cfg
}

func TestExecuteChipJob(t *testing.T) {
	r := &Runner{}
	mix := workload.PaperMixes(4)[0] // 4 kernels: 2 per core
	res, simErr := r.Execute(context.Background(), Job{
		Config: chipTestCfg(), Mix: mix, Warmup: 500, Measure: 1500,
	})
	if simErr != nil {
		t.Fatal(simErr)
	}
	if res == nil || res.Cycles <= 0 {
		t.Fatalf("bad chip result: %+v", res)
	}
	if len(res.Threads) != 4 {
		t.Fatalf("%d thread results, want 4 (threads x cores)", len(res.Threads))
	}
	for i, tr := range res.Threads {
		if tr.Retired != 1500 {
			t.Errorf("thread %d window retired %d, want 1500", i, tr.Retired)
		}
	}
}

// TestChipDifferential runs the parallel-vs-lockstep differential for every
// allocation policy: merged fingerprints, per-core fingerprints and the
// allocation log must be bit-identical between step modes.
func TestChipDifferential(t *testing.T) {
	r := &Runner{}
	mix := workload.PaperMixes(4)[0]
	for _, policy := range []config.AllocPolicy{
		config.AllocRoundRobin, config.AllocICount, config.AllocShelfPressure,
	} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := chipTestCfg()
			cfg.AllocPolicy = policy
			if err := r.ChipDifferential(context.Background(), cfg, mix, 500, 1500); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChipDeterministicAcrossWorkers pins the satellite determinism
// property end to end through the runner: the same seed and policy produce
// identical chip Result fingerprints regardless of the worker-pool size and
// of the step mode.
func TestChipDeterministicAcrossWorkers(t *testing.T) {
	mixes := workload.PaperMixes(4)[:2]
	run := func(workers int, lockstep bool) []string {
		t.Helper()
		cfg := chipTestCfg()
		cfg.ChipLockstep = lockstep
		jobs := make([]Job, len(mixes))
		for i, m := range mixes {
			jobs[i] = Job{Config: cfg, Mix: m, Warmup: 500, Measure: 1500}
		}
		r := &Runner{Workers: workers}
		rep := r.RunAll(context.Background(), jobs)
		fps := make([]string, len(rep.Results))
		for i, jr := range rep.Results {
			if jr.Err != nil {
				t.Fatalf("job %d: %v", i, jr.Err)
			}
			fps[i] = jr.Result.Fingerprint()
		}
		return fps
	}

	base := run(1, false)
	for _, v := range []struct {
		workers  int
		lockstep bool
	}{{4, false}, {1, true}, {4, true}} {
		got := run(v.workers, v.lockstep)
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("mix %d: workers=%d lockstep=%t fingerprint %s != baseline %s",
					i, v.workers, v.lockstep, got[i], base[i])
			}
		}
	}
}

// TestChipJobInvalidStreamCount checks the chip constructor failure
// surfaces as a structured SimError, not a panic.
func TestChipJobInvalidStreamCount(t *testing.T) {
	r := &Runner{}
	mix := workload.PaperMixes(2)[0] // 2 kernels for a chip wanting 4
	res, simErr := r.Execute(context.Background(), Job{
		Config: chipTestCfg(), Mix: mix, Warmup: 100, Measure: 200,
	})
	if res != nil || simErr == nil {
		t.Fatalf("chip job with wrong stream count must fail with a SimError")
	}
}

// TestChipRejectsDrain: a chip finishes only at its retire targets, so a
// drained chip run (both differentials) fails at once with a
// deterministic SimError naming NumCores instead of burning its cycle
// budget.
func TestChipRejectsDrain(t *testing.T) {
	r := &Runner{CyclesPerInst: 10}
	mix := workload.PaperMixes(4)[0]
	for name, err := range map[string]error{
		"differential":           r.Differential(context.Background(), chipTestCfg(), chipTestCfg(), mix, 200),
		"scheduler differential": r.SchedulerDifferential(context.Background(), chipTestCfg(), mix, 200),
	} {
		var se *SimError
		if !errors.As(err, &se) {
			t.Fatalf("%s: %v is not a *SimError", name, err)
		}
		if se.Cycle != -1 || se.Transient || !strings.Contains(se.Msg, "NumCores") {
			t.Errorf("%s: got %+v, want a non-transient failure at cycle -1 naming NumCores", name, se)
		}
	}
}

// TestChipRejectsAttach: a chip rebuilds its cores on thread migration, so
// there is no stable core to observe; a chip job with Attach fails before
// it simulates rather than silently dropping the hook.
func TestChipRejectsAttach(t *testing.T) {
	attached := false
	_, se := (&Runner{}).Execute(context.Background(), Job{
		Config: chipTestCfg(), Mix: workload.PaperMixes(4)[0], Warmup: 100, Measure: 200,
		Attach: func(*core.Core) { attached = true },
	})
	if se == nil {
		t.Fatal("chip job with Attach ran")
	}
	if se.Cycle != -1 || se.Transient || !strings.Contains(se.Msg, "NumCores") {
		t.Errorf("got %+v, want a non-transient failure at cycle -1 naming NumCores", se)
	}
	if attached {
		t.Error("Attach was called on a chip job")
	}
}
