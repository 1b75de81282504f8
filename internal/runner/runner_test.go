package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/workload"
)

func testMixes(threads, n int) []workload.Mix {
	return workload.PaperMixes(threads)[:n]
}

func TestExecuteSuccess(t *testing.T) {
	r := &Runner{}
	cfg := config.Base64(4)
	cfg.CheckInvariants = true
	res, simErr := r.Execute(context.Background(), Job{
		Config: cfg, Mix: testMixes(4, 1)[0], Warmup: 200, Measure: 400,
	})
	if simErr != nil {
		t.Fatal(simErr)
	}
	if res == nil || res.Cycles <= 0 || len(res.Threads) != 4 {
		t.Fatalf("bad result: %+v", res)
	}
	for i, tr := range res.Threads {
		if tr.Retired < 400 {
			t.Errorf("thread %d retired only %d", i, tr.Retired)
		}
	}
}

func TestExecuteRecoversInjectedFault(t *testing.T) {
	r := &Runner{}
	cfg := config.Shelf64(4, true)
	cfg.InjectFaultCycle = 100
	mix := testMixes(4, 1)[0]
	res, simErr := r.Execute(context.Background(), Job{
		Config: cfg, Mix: mix, Warmup: 200, Measure: 400,
	})
	if res != nil || simErr == nil {
		t.Fatal("injected fault must produce a SimError, not a result")
	}
	if simErr.Config != cfg.Name || simErr.Mix != mix.Name() {
		t.Errorf("failure not attributed: %+v", simErr)
	}
	if simErr.Cycle != 100 {
		t.Errorf("fault at cycle 100 reported at %d", simErr.Cycle)
	}
	if simErr.Thread != 0 {
		t.Errorf("fault injected into thread 0 attributed to %d", simErr.Thread)
	}
	if simErr.Transient {
		t.Error("invariant violations are deterministic, not transient")
	}
	var inv *core.InvariantError
	if !errors.As(simErr, &inv) {
		t.Fatalf("SimError must wrap the typed InvariantError, got %v", simErr)
	}
	if inv.Check != "rob-order" {
		t.Errorf("unexpected invariant check %q", inv.Check)
	}
	if simErr.Stack == "" {
		t.Error("panic recovery must capture a stack")
	}
}

func TestExecuteHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{}
	_, simErr := r.Execute(ctx, Job{
		Config: config.Base64(4), Mix: testMixes(4, 1)[0], Warmup: 100, Measure: 200,
	})
	if simErr == nil || !strings.Contains(simErr.Msg, "wall-clock") {
		t.Fatalf("cancelled context must fail the run: %v", simErr)
	}
	if simErr.Attempt != 1 {
		t.Errorf("cancelled runs must not retry, got attempt %d", simErr.Attempt)
	}
}

// TestExecuteTimeout checks a wall-clock timeout is the transient failure:
// it is retried up to MaxAttempts, and every retry keeps the job's window.
func TestExecuteTimeout(t *testing.T) {
	var windows [][2]int64
	r := &Runner{Timeout: time.Nanosecond, MaxAttempts: 3}
	job := Job{
		Config: config.Base64(4), Mix: testMixes(4, 1)[0], Warmup: 100, Measure: 200,
		Attach: func(c *core.Core) {
			p := c.ThreadProgress(0)
			windows = append(windows, [2]int64{p.WarmupTarget, p.RetireTarget})
		},
	}
	_, simErr := r.Execute(context.Background(), job)
	if simErr == nil || !simErr.Transient {
		t.Fatalf("timeout must yield a transient SimError: %v", simErr)
	}
	if !errors.Is(simErr, context.DeadlineExceeded) {
		t.Errorf("timeout SimError must wrap the context error: %v", simErr)
	}
	if simErr.Attempt != 3 || len(windows) != 3 {
		t.Fatalf("timeout must be retried up to MaxAttempts: attempt %d, %d runs", simErr.Attempt, len(windows))
	}
	for i, w := range windows {
		if w != [2]int64{job.Warmup, job.Measure} {
			t.Errorf("attempt %d ran window %v, want warmup %d measure %d", i+1, w, job.Warmup, job.Measure)
		}
	}
}

// TestRunAllSurvivesInjectedFault is the acceptance scenario: a parallel
// sweep with one deliberately corrupted run completes every other job and
// emits a structured failure manifest naming config, mix, cycle and
// thread — the process does not crash.
func TestRunAllSurvivesInjectedFault(t *testing.T) {
	r := &Runner{Workers: 4}
	mixes := testMixes(4, 4)
	good := config.Base64(4)
	bad := config.Shelf64(4, true)
	bad.InjectFaultCycle = 150

	var jobs []Job
	for _, mix := range mixes {
		jobs = append(jobs, Job{Config: good, Mix: mix, Warmup: 100, Measure: 300})
	}
	jobs = append(jobs, Job{Config: bad, Mix: mixes[0], Warmup: 100, Measure: 300})

	rep := r.RunAll(context.Background(), jobs)
	if len(rep.Results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(rep.Results), len(jobs))
	}
	var okCount int
	for _, jr := range rep.Results {
		if jr.Err == nil && jr.Result != nil {
			okCount++
		}
	}
	if okCount != len(mixes) {
		t.Errorf("expected %d surviving jobs, got %d", len(mixes), okCount)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("expected exactly one failure, got %d", len(rep.Failures))
	}

	var buf bytes.Buffer
	if err := rep.Manifest().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Jobs != len(jobs) || m.Failed != 1 || len(m.Failures) != 1 {
		t.Fatalf("manifest shape wrong: %+v", m)
	}
	f := m.Failures[0]
	if f.Config != bad.Name || f.Mix != mixes[0].Name() || f.Cycle != 150 || f.Thread != 0 {
		t.Errorf("manifest failure must name config/mix/cycle/thread, got %+v", f)
	}
}

func TestRunAllParallelDeterminism(t *testing.T) {
	// The same job list must produce identical measurements regardless of
	// worker count: simulations share no mutable state.
	mixes := testMixes(4, 3)
	cfg := config.Shelf64(4, true)
	var jobs []Job
	for _, mix := range mixes {
		jobs = append(jobs, Job{Config: cfg, Mix: mix, Warmup: 100, Measure: 300})
	}
	serial := (&Runner{Workers: 1}).RunAll(context.Background(), jobs)
	parallel := (&Runner{Workers: 4}).RunAll(context.Background(), jobs)
	for i := range jobs {
		a, b := serial.Results[i], parallel.Results[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, a.Err, b.Err)
		}
		if a.Result.Cycles != b.Result.Cycles || a.Result.Stats.Retired != b.Result.Stats.Retired {
			t.Errorf("job %d diverged across worker counts: %d/%d cycles, %d/%d retired",
				i, a.Result.Cycles, b.Result.Cycles, a.Result.Stats.Retired, b.Result.Stats.Retired)
		}
	}
}

// TestDifferentialAllKernels is the acceptance criterion for semantic
// preservation: Shelf64 vs Base64 on every benchmark kernel retires
// identical per-thread instruction streams in program order.
func TestDifferentialAllKernels(t *testing.T) {
	r := &Runner{}
	for _, k := range workload.Kernels() {
		mix := workload.Mix{ID: 0, Kernels: []*workload.Kernel{k}}
		a := config.Base64(1)
		b := config.Shelf64(1, true)
		a.CheckInvariants, b.CheckInvariants = true, true
		if err := r.Differential(context.Background(), a, b, mix, 600); err != nil {
			t.Errorf("kernel %s: %v", k.Name, err)
		}
	}
}

func TestDifferentialMultithreaded(t *testing.T) {
	r := &Runner{}
	for _, mix := range testMixes(4, 2) {
		if err := r.Differential(context.Background(),
			config.Base64(4), config.Shelf64(4, true), mix, 500); err != nil {
			t.Errorf("%s: %v", mix.Name(), err)
		}
	}
}

func TestDifferentialDetectsCountMismatch(t *testing.T) {
	// A fault-injected run cannot complete, so the differential must fail
	// loudly rather than report equivalence.
	r := &Runner{}
	a := config.Base64(1)
	b := config.Shelf64(1, true)
	b.InjectFaultCycle = 50
	mix := workload.Mix{ID: 0, Kernels: []*workload.Kernel{workload.Kernels()[0]}}
	err := r.Differential(context.Background(), a, b, mix, 500)
	if err == nil {
		t.Fatal("differential against a faulted run must fail")
	}

	// Every supervised failure of a differential is a *SimError wrapping
	// its cause: the fault's invariant violation, a constructor error, an
	// exhausted cycle budget.
	var inv *core.InvariantError
	if !errors.As(err, &inv) {
		t.Errorf("faulted differential must wrap the InvariantError: %v", err)
	}
	two := workload.Mix{ID: 0, Kernels: workload.Kernels()[:2]}
	cases := []struct {
		name string
		err  error
	}{
		{"fault", err},
		{"stream count", r.Differential(context.Background(), a, a, two, 100)},
		{"scheduler stream count", r.SchedulerDifferential(context.Background(), a, two, 100)},
		{"chip stream count", r.ChipDifferential(context.Background(), chipTestCfg(), two, 100, 200)},
		{"budget", (&Runner{CyclesPerInst: 1}).Differential(context.Background(), a, a, mix, 100)},
		{"scheduler budget", (&Runner{CyclesPerInst: 1}).SchedulerDifferential(context.Background(), a, mix, 100)},
	}
	for _, tc := range cases {
		var se *SimError
		if !errors.As(tc.err, &se) {
			t.Errorf("%s: %v is not a *SimError", tc.name, tc.err)
			continue
		}
		if se.Unwrap() == nil {
			t.Errorf("%s: SimError wraps no cause: %v", tc.name, se)
		}
		if se.Transient {
			t.Errorf("%s: deterministic failure marked transient: %v", tc.name, se)
		}
	}
}
