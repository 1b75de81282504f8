package harness

import (
	"context"
	"errors"
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/runner"
)

// TestCacheKeyedOnFingerprint is the regression test for the cache
// aliasing bug: two configurations sharing a display Name but differing in
// substance must produce distinct cached runs.
func TestCacheKeyedOnFingerprint(t *testing.T) {
	h := tiny()
	mix := h.Mixes(4)[0]
	a := config.Shelf64(4, true)
	b := config.Shelf64(4, true)
	b.Steer = config.SteerAllShelf // same Name, different machine

	ra, err := h.Run(a, mix)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := h.Run(b, mix)
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Fatal("distinct configs with the same Name served one cached result")
	}
	if h.Runs() != 2 {
		t.Errorf("expected 2 cache entries, got %d", h.Runs())
	}
	if ra.Cycles == rb.Cycles && ra.Stats.ShelfIssues == rb.Stats.ShelfIssues {
		t.Error("steering change had no measurable effect; cache is suspect")
	}
}

// TestHarnessRecordsFaultAndDegrades: a fault confined to one (config,
// mix) pair fails that run, is recorded with full attribution, and the
// remaining mixes of the same figure still complete.
func TestHarnessRecordsFaultAndDegrades(t *testing.T) {
	h := tiny()
	badMix := h.Mixes(4)[0]
	h.FaultConfig = config.Shelf64(4, true).Name
	h.FaultMix = badMix.Name()
	h.FaultCycle = 120

	rows, err := h.Fig10(4)
	if err != nil {
		t.Fatalf("figure must degrade, not fail: %v", err)
	}
	if len(rows) != h.MixCount-1 {
		t.Errorf("expected %d surviving mixes, got %d", h.MixCount-1, len(rows))
	}
	for _, r := range rows {
		if r.Mix.Name() == badMix.Name() {
			t.Error("faulted mix must be skipped")
		}
	}
	failures := h.Failures()
	if len(failures) != 1 {
		t.Fatalf("expected 1 recorded failure, got %d", len(failures))
	}
	f := failures[0]
	if f.Config != h.FaultConfig || f.Mix != badMix.Name() || f.Cycle != 120 || f.Thread != 0 {
		t.Errorf("failure attribution wrong: %+v", f)
	}
}

// TestPrewarmFillsCacheInParallel: Prewarm must populate the cache so
// subsequent Run calls are pure lookups, and collect failures without
// aborting.
func TestPrewarmFillsCacheInParallel(t *testing.T) {
	h := tiny()
	h.Runner.Workers = 4
	configs := []config.Config{config.Base64(4), config.Shelf64(4, true)}
	mixes := h.Mixes(4)

	rep := h.Prewarm(context.Background(), configs, mixes)
	if len(rep.Failures) != 0 {
		t.Fatalf("unexpected failures: %v", rep.Failures[0])
	}
	want := len(configs) * len(mixes)
	if h.Runs() != want {
		t.Fatalf("cache has %d entries, want %d", h.Runs(), want)
	}
	// A subsequent Run must return the exact cached pointer.
	for i, jr := range rep.Results {
		res, err := h.Run(jr.Job.Config, jr.Job.Mix)
		if err != nil {
			t.Fatal(err)
		}
		if res != rep.Results[i].Result {
			t.Fatal("Run after Prewarm did not hit the cache")
		}
	}
	// Re-prewarming schedules nothing new.
	rep2 := h.Prewarm(context.Background(), configs, mixes)
	if len(rep2.Results) != 0 {
		t.Errorf("re-prewarm ran %d jobs, want 0", len(rep2.Results))
	}
}

// TestRunReturnsSimError: failures surface as *runner.SimError through the
// plain error return, so callers can branch with errors.As / Skippable.
func TestRunReturnsSimError(t *testing.T) {
	h := tiny()
	h.FaultConfig = config.Base64(4).Name
	h.FaultCycle = 60
	_, err := h.Run(config.Base64(4), h.Mixes(4)[1])
	if err == nil {
		t.Fatal("faulted run must fail")
	}
	var se *runner.SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a SimError: %v", err)
	}
	if !Skippable(err) {
		t.Error("SimError must be Skippable")
	}
}

// TestHarnessFaultKinds: the generalized fault hook must thread every
// FaultKind down to the core, and each corruption must surface as its
// named invariant violation through the SimError chain — never as a
// clean run.
func TestHarnessFaultKinds(t *testing.T) {
	wantCheck := map[config.FaultKind]string{
		config.FaultWindow:    "rob-order",
		config.FaultStoreDrop: "lsq-membership",
		config.FaultWakeupTag: "sched-wakeup",
	}
	for kind, want := range wantCheck {
		h := tiny()
		h.CheckInvariants = true
		h.FaultConfig = config.Base64(4).Name
		h.FaultCycle = 100
		h.FaultKind = kind
		_, err := h.Run(config.Base64(4), h.Mixes(4)[0])
		if err == nil {
			t.Fatalf("kind %v: faulted run completed cleanly", kind)
		}
		var inv *core.InvariantError
		if !errors.As(err, &inv) {
			t.Fatalf("kind %v: error %v does not wrap *core.InvariantError", kind, err)
		}
		if inv.Check != want {
			t.Errorf("kind %v caught by %q, want %q", kind, inv.Check, want)
		}
	}
}

// TestPrewarmSkipsKnownFailures: a deterministic failure is simulated and
// recorded once. Prewarm consults the same result map as Run, so neither
// a second Prewarm nor a later Run re-runs a faulted job, and the failure
// manifest holds exactly one entry per faulted mix.
func TestPrewarmSkipsKnownFailures(t *testing.T) {
	h := tiny()
	h.FaultConfig = config.Base64(4).Name
	h.FaultCycle = 60
	configs := []config.Config{config.Base64(4)}
	mixes := h.Mixes(4)
	h.Prewarm(context.Background(), configs, mixes)
	if rep := h.Prewarm(context.Background(), configs, mixes); len(rep.Results) != 0 {
		t.Errorf("second Prewarm ran %d jobs, want 0", len(rep.Results))
	}
	for _, mix := range mixes {
		if _, err := h.Run(config.Base64(4), mix); !Skippable(err) {
			t.Fatalf("Run of faulted %s: err %v, want its SimError", mix.Name(), err)
		}
	}
	if got := len(h.Failures()); got != len(mixes) {
		t.Errorf("%d failures recorded, want one per faulted mix (%d)", got, len(mixes))
	}
}
