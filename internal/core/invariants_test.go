package core

import (
	"errors"
	"strings"
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/obs"
)

// stepUntil advances the core until pred holds, failing after maxCycles.
func stepUntil(t *testing.T, c *Core, maxCycles int64, pred func() bool) {
	t.Helper()
	for !pred() {
		if c.Done() || c.Cycle() > maxCycles {
			t.Fatalf("condition not reached within %d cycles", maxCycles)
		}
		c.Step()
	}
}

// recoverInvariant runs fn, which must panic with a *InvariantError, and
// returns the recovered error.
func recoverInvariant(t *testing.T, fn func()) *InvariantError {
	t.Helper()
	var inv *InvariantError
	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("expected an invariant panic, got none")
			}
			err, ok := rec.(error)
			if !ok || !errors.As(err, &inv) {
				t.Fatalf("panic value is not a *InvariantError: %v", rec)
			}
		}()
		fn()
	}()
	return inv
}

// TestSquashStatePanicIsTyped is the regression test for the squash panic
// path: an inflight op corrupted into an impossible state must surface as
// a typed InvariantError (recoverable by the runner), not a bare panic.
func TestSquashStatePanicIsTyped(t *testing.T) {
	c, err := New(config.Shelf64(1, true), kernelStreams(t, []string{"ptrchase"}, 500))
	if err != nil {
		t.Fatal(err)
	}
	t0 := c.threads[0]
	stepUntil(t, c, 10000, func() bool { return len(t0.inflight) > 0 })

	u := t0.inflight[len(t0.inflight)-1]
	u.state = stateFetched // impossible: inflight ops are past fetch
	inv := recoverInvariant(t, func() { c.squash(t0, u.seq, obs.SquashMispredict, c.cycle) })
	if inv.Check != "squash-state" {
		t.Errorf("check = %q, want squash-state", inv.Check)
	}
	if inv.Thread != 0 {
		t.Errorf("thread = %d, want 0", inv.Thread)
	}
	if inv.Cycle != c.Cycle() {
		t.Errorf("cycle = %d, want %d", inv.Cycle, c.Cycle())
	}
	if !strings.Contains(inv.Error(), "squash-state") {
		t.Errorf("message lacks check name: %v", inv)
	}
}

// TestReplayRangePanicIsTyped: asking the replay buffer for a sequence it
// has already released (below replayBase) is a pipeline bug, and must
// surface as a typed replay-range InvariantError naming the thread, not a
// bare panic or an index-out-of-range.
func TestReplayRangePanicIsTyped(t *testing.T) {
	c, err := New(config.Shelf64(2, true), kernelStreams(t, []string{"stream", "ilpmax"}, 2000))
	if err != nil {
		t.Fatal(err)
	}
	t1 := c.threads[1]
	stepUntil(t, c, 100000, func() bool { return t1.replayBase > 0 })
	inv := recoverInvariant(t, func() { t1.peekInst(t1.replayBase - 1) })
	if inv.Check != "replay-range" {
		t.Errorf("check = %q, want replay-range", inv.Check)
	}
	if inv.Thread != 1 {
		t.Errorf("thread = %d, want 1", inv.Thread)
	}
}

// TestRemoveFromIQMissingPanicIsTyped covers the other squash panic path:
// squashing a dispatched IQ op that is absent from the shared issue queue.
func TestRemoveFromIQMissingPanicIsTyped(t *testing.T) {
	c, err := New(config.Base64(1), kernelStreams(t, []string{"ptrchase"}, 500))
	if err != nil {
		t.Fatal(err)
	}
	t0 := c.threads[0]
	var victim *uop
	stepUntil(t, c, 10000, func() bool {
		for _, u := range t0.inflight {
			if u.state == stateDispatched && !u.toShelf {
				victim = u
				return true
			}
		}
		return false
	})

	removeFromSlice := func(q []*uop, u *uop) []*uop {
		for i, v := range q {
			if v == u {
				return append(q[:i], q[i+1:]...)
			}
		}
		t.Fatal("victim not in issue queue")
		return q
	}
	c.iq = removeFromSlice(c.iq, victim)
	inv := recoverInvariant(t, func() { c.squash(t0, victim.seq, obs.SquashMispredict, c.cycle) })
	if inv.Check != "iq-missing" {
		t.Errorf("check = %q, want iq-missing", inv.Check)
	}
	if inv.Thread != 0 {
		t.Errorf("thread = %d, want 0", inv.Thread)
	}
}

// TestInjectedFaultTripsChecker: the test hook corrupts the ROB pointers
// at the requested cycle and the checker must fire that same cycle even
// when per-cycle checking is otherwise disabled.
func TestInjectedFaultTripsChecker(t *testing.T) {
	cfg := config.Shelf64(1, true)
	cfg.InjectFaultCycle = 80
	c, err := New(cfg, kernelStreams(t, []string{"stream"}, 2000))
	if err != nil {
		t.Fatal(err)
	}
	inv := recoverInvariant(t, func() {
		for !c.Done() {
			c.Step()
		}
	})
	if inv.Check != "rob-order" {
		t.Errorf("check = %q, want rob-order", inv.Check)
	}
	if inv.Cycle != 80 {
		t.Errorf("cycle = %d, want 80", inv.Cycle)
	}
}

// TestCheckInvariantsDetectsFreeListCorruption: the public checker must
// report (not panic) on a corrupted rename free list.
func TestCheckInvariantsDetectsFreeListCorruption(t *testing.T) {
	c, err := New(config.Base64(2), kernelStreams(t, []string{"stream", "ptrchase"}, 500))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Step()
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("healthy core flagged: %v", err)
	}
	// Duplicate a free physical register: conservation is violated.
	c.freePRI = append(c.freePRI, c.freePRI[0])
	err = c.CheckInvariants()
	var inv *InvariantError
	if !errors.As(err, &inv) || inv.Check != "freelist-conservation" {
		t.Fatalf("corruption not detected: %v", err)
	}
}

// TestPerCycleCheckerCleanRuns: every stock configuration sustains the
// per-cycle checker across multithreaded kernel mixes to completion.
func TestPerCycleCheckerCleanRuns(t *testing.T) {
	for _, cfg := range allConfigs(2) {
		cfg := cfg
		cfg.CheckInvariants = true
		t.Run(cfg.Name, func(t *testing.T) {
			c, err := New(cfg, kernelStreams(t, []string{"branchy", "loopcarry"}, 400))
			if err != nil {
				t.Fatal(err)
			}
			run(t, c, 2_000_000)
		})
	}
}
