package runner

import (
	"context"
	"fmt"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/obs"
	"shelfsim/internal/workload"
)

// Differential validates the paper's semantics-preservation claim — the
// shelf changes performance, never program semantics — by running the same
// mix on both configurations over identical bounded streams and asserting
// that every thread retires exactly the same instruction stream in program
// order with the same retire count. A mismatch or a supervised failure is
// returned as an error (SimErrors pass through for manifest collection).
func (r *Runner) Differential(ctx context.Context, a, b config.Config, mix workload.Mix, insts int64) error {
	countsA, err := r.runRecorded(ctx, drainJob(a, mix, insts))
	if err != nil {
		return err
	}
	countsB, err := r.runRecorded(ctx, drainJob(b, mix, insts))
	if err != nil {
		return err
	}
	for tid := range countsA {
		if countsA[tid] != countsB[tid] {
			return fmt.Errorf("runner: differential %s vs %s on %s: thread %d retired %d vs %d instructions",
				a.Name, b.Name, mix.Name(), tid, countsA[tid], countsB[tid])
		}
	}
	return nil
}

// SchedulerDifferential validates that the incremental wakeup–select
// engine (sched.go) is cycle-exact against the legacy rescan scheduler:
// the same mix runs once per scheduler over identical bounded streams and
// the complete Result fingerprints — cycle count, the full counter set,
// cache statistics, per-thread scalars — must be bit-identical. Any
// timing divergence between the two select loops shows up here.
func (r *Runner) SchedulerDifferential(ctx context.Context, cfg config.Config, mix workload.Mix, insts int64) error {
	inc := cfg
	inc.RescanScheduler = false
	res := cfg
	res.RescanScheduler = true
	a, err := r.drain(ctx, drainJob(inc, mix, insts))
	if err != nil {
		return err
	}
	b, err := r.drain(ctx, drainJob(res, mix, insts))
	if err != nil {
		return err
	}
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		return fmt.Errorf("runner: scheduler differential %s on %s: incremental fingerprint %s != rescan %s",
			cfg.Name, mix.Name(), fa, fb)
	}
	return nil
}

// ChipDifferential proves the chip's parallel step path is bit-identical to
// deterministic lockstep: the same chip job runs once with ChipLockstep off
// (one goroutine per core) and once with it on (sequential core order), and
// both the merged Result fingerprint and every per-core Result fingerprint
// — plus the allocation-decision log — must match exactly. Any cross-core
// interaction leaking into the parallel step path shows up here.
func (r *Runner) ChipDifferential(ctx context.Context, cfg config.Config, mix workload.Mix, warmup, measure int64) error {
	if cfg.NumCores < 2 {
		return fmt.Errorf("runner: chip differential needs NumCores >= 2, got %d", cfg.NumCores)
	}
	par := cfg
	par.ChipLockstep = false
	seq := cfg
	seq.ChipLockstep = true

	// Each run's complete determinism evidence: merged, per-core and
	// allocation-log fingerprints.
	var merged, alloc [2]string
	var cores [2][]string
	for i, c := range []config.Config{par, seq} {
		m, res, simErr := r.run(ctx, Job{Config: c, Mix: mix, Warmup: warmup, Measure: measure}, 1, false)
		if simErr != nil {
			return simErr
		}
		merged[i], cores[i], alloc[i] = res.Fingerprint(), m.chip.CoreFingerprints(), m.chip.AllocFingerprint()
	}
	if merged[0] != merged[1] {
		return fmt.Errorf("runner: chip differential %s on %s: parallel merged fingerprint %s != lockstep %s",
			cfg.Name, mix.Name(), merged[0], merged[1])
	}
	if alloc[0] != alloc[1] {
		return fmt.Errorf("runner: chip differential %s on %s: parallel allocation log %s != lockstep %s",
			cfg.Name, mix.Name(), alloc[0], alloc[1])
	}
	for i := range cores[0] {
		if cores[0][i] != cores[1][i] {
			return fmt.Errorf("runner: chip differential %s on %s: core %d parallel fingerprint %s != lockstep %s",
				cfg.Name, mix.Name(), i, cores[0][i], cores[1][i])
		}
	}
	return nil
}

// drainJob is a differential's job: cfg over mix's streams bounded at insts
// instructions per thread, so a drained run retires exactly insts each.
func drainJob(cfg config.Config, mix workload.Mix, insts int64) Job {
	return Job{Config: cfg, Mix: mix, Streams: Streams(mix, insts), Measure: insts}
}

// drain runs job on the supervised path until every thread retires its
// whole bounded stream (no retire targets) and returns the Result.
func (r *Runner) drain(ctx context.Context, job Job) (*core.Result, error) {
	_, res, simErr := r.run(ctx, job, 1, true)
	if simErr != nil {
		return nil, simErr
	}
	return res, nil
}

// runRecorded drains job while recording retirement from the core's event
// stream. It verifies each thread retires sequence numbers 0,1,2,... in
// strict program order with no drops or duplicates, and returns the
// per-thread retire counts.
func (r *Runner) runRecorded(ctx context.Context, job Job) ([]int64, error) {
	next := make([]int64, job.Config.Threads)
	var orderErr error
	job.Attach = func(c *core.Core) {
		c.SetObserver(func(ev obs.Event) {
			if ev.Kind != obs.EvRetire {
				return
			}
			if orderErr == nil && ev.Seq != next[ev.Tid] {
				orderErr = fmt.Errorf("runner: %s on %s: thread %d retired seq %d out of program order (expected %d)",
					job.Config.Name, job.label(), ev.Tid, ev.Seq, next[ev.Tid])
			}
			next[ev.Tid]++
		})
	}
	if _, err := r.drain(ctx, job); err != nil {
		return nil, err
	}
	if orderErr != nil {
		return nil, orderErr
	}
	return next, nil
}
