package runner_test

import (
	"context"
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/harness"
	"shelfsim/internal/runner"
	"shelfsim/internal/workload"
)

// TestExecuteBudgetExhaustionIsDeterministic checks an exhausted cycle
// budget is a deterministic failure: the runner does not retry it (a retry
// would fail at the same cycle), and the harness remembers it instead of
// re-simulating it on the next lookup.
func TestExecuteBudgetExhaustionIsDeterministic(t *testing.T) {
	// One cycle per instruction is an unsatisfiable budget.
	r := &runner.Runner{CyclesPerInst: 1}
	cfg := config.Base64(4)
	mix := workload.PaperMixes(4)[0]
	_, simErr := r.Execute(context.Background(), runner.Job{
		Config: cfg, Mix: mix, Warmup: 100, Measure: 200,
	})
	if simErr == nil {
		t.Fatal("expected a budget failure")
	}
	if simErr.Transient {
		t.Errorf("budget exhaustion must be deterministic: %+v", simErr)
	}
	if simErr.Attempt != 1 {
		t.Errorf("budget exhaustion must not be retried, got attempt %d", simErr.Attempt)
	}
	if simErr.Unwrap() == nil {
		t.Error("budget SimError must wrap its cause")
	}

	h := harness.New(200, 1)
	h.Warmup = 100
	h.Runner = r
	for i := 0; i < 2; i++ {
		if _, err := h.Run(cfg, mix); err == nil {
			t.Fatalf("run %d: expected a budget failure", i+1)
		}
	}
	if n := len(h.Failures()); n != 1 {
		t.Errorf("%d failures recorded, want 1 (the second run must come from the failure cache)", n)
	}
}
