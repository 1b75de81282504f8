package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"shelfsim/internal/config"
	"shelfsim/internal/harness"
	"shelfsim/internal/runner"
	"shelfsim/internal/workload"
)

// fig10-batch regenerates Figure 10 the way cmd/experiments -exp fig10
// does: harness.Prewarm of the four main configurations over the first
// figMixes paper mixes at figInsts on the runner's pool, then Fig10 over
// the warm cache.
const (
	figInsts   = 2000
	figMixes   = 16
	figThreads = 4
	// figWorkers is the pool size. On a 2-vCPU host, two simulations side
	// by side ran up to 1.6x slower from one set of runs to the next while
	// one simulation alone held steady, so the pool has one worker.
	figWorkers = 1
)

// figConfigs are Fig10's configurations, in its order.
func figConfigs() []config.Config {
	return []config.Config{
		config.Base64(figThreads),
		config.Shelf64(figThreads, false),
		config.Shelf64(figThreads, true),
		config.Base128(figThreads),
	}
}

// figLabel is the expected.json label of one batch job.
func figLabel(cfg config.Config, mix workload.Mix) string {
	return fmt.Sprintf("fig10/%s/%s/%d", cfg.Name, mix.Name(), figInsts)
}

// figJob is one simulation of the batch.
type figJob struct {
	label string
	cfg   config.Config
	mix   workload.Mix
}

// figJobs is the batch's cross product, in Fig10's config order.
func figJobs() []figJob {
	var out []figJob
	for _, cfg := range figConfigs() {
		for _, mix := range workload.PaperMixes(figThreads)[:figMixes] {
			out = append(out, figJob{label: figLabel(cfg, mix), cfg: cfg, mix: mix})
		}
	}
	return out
}

// figSetup is the batch's set-up: harness.New plus the single-thread
// baseline run of every kernel in the mixes (STP's denominators, which
// Fig10 would otherwise compute lazily).
func figSetup(rec *recorder) (*harness.Harness, time.Duration, error) {
	start := time.Now()
	h := harness.New(figInsts, figMixes)
	h.Runner.Workers = figWorkers
	seen := map[string]bool{}
	for _, mix := range h.Mixes(figThreads) {
		for _, k := range mix.Kernels {
			if seen[k.Name] {
				continue
			}
			seen[k.Name] = true
			var err error
			rec.timed("harness.single_cpi", -1, -1, func() { _, err = h.SingleCPI(k) })
			if err != nil {
				return nil, 0, fmt.Errorf("single-thread baseline %s: %w", k.Name, err)
			}
		}
	}
	return h, time.Since(start), nil
}

// batch is one timed fig10-batch phase's outcome.
type batch struct {
	prewarm, fig      time.Duration
	attempted, failed int
	retired           int64
}

// wall is the batch's timed phase: Prewarm plus Fig10.
func (b batch) wall() time.Duration { return b.prewarm + b.fig }

// figBatch is one batch's timed phase: Prewarm over the mixes in the given
// order, then Fig10. A job that fails or whose result fingerprint differs
// from the expected one is a failed op; so is a Fig10 row whose STPs
// differ from the expected row.
func figBatch(h *harness.Harness, mixes []workload.Mix, exp *expected, rec *recorder) (batch, error) {
	var b batch
	var rep *runner.Report
	b.prewarm = rec.timed("harness.prewarm", -1, -1, func() {
		rep = h.Prewarm(context.Background(), figConfigs(), mixes)
	})
	var rows []harness.MixSTP
	var err error
	b.fig = rec.timed("harness.fig10", -1, -1, func() { rows, err = h.Fig10(figThreads) })
	if err != nil {
		return b, fmt.Errorf("Fig10: %w", err)
	}
	for _, jr := range rep.Results {
		b.attempted++
		if jr.Err != nil || !exp.ok(figLabel(jr.Job.Config, jr.Job.Mix), jr.Result.Fingerprint()) {
			b.failed++
			continue
		}
		b.retired += jr.Result.Stats.Retired
	}
	b.failed += figMixes - len(rows)
	for _, r := range rows {
		if want, found := exp.STP[r.Mix.Name()]; !found || want != stpRow(r) {
			b.failed++
		}
	}
	return b, nil
}

// runFig10 is the untraced fig10-batch workload: whole batches, each with
// its own set-up, until the run's time is used. An op is one simulation
// job; a batch's latency is its Prewarm plus Fig10 wall time, the time a
// researcher waits for the figure.
func runFig10(b *bench) (outcome, error) {
	o := newOutcome()
	var setups, lats []float64
	var retired int64
	var wall, cpu time.Duration
	deadline := time.Now().Add(b.seconds)
	// A run holds few batches, so set-up is also timed setupRounds times
	// on its own before them and again after them; set-up is the median of
	// all of these. Each set-up starts from a collected heap, so it does not
	// pay for the garbage of the batch before it.
	extra := func() error {
		for range setupRounds {
			runtime.GC()
			_, setup, err := figSetup(nil)
			if err != nil {
				return err
			}
			setups = append(setups, setup.Seconds())
		}
		return nil
	}
	if err := extra(); err != nil {
		return o, err
	}
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		runtime.GC()
		h, setup, err := figSetup(nil)
		if err != nil {
			return o, err
		}
		setups = append(setups, setup.Seconds())
		cpu0 := cpuTime()
		bt, err := figBatch(h, mixOrder(b.seed, i, h.Mixes(figThreads)), b.exp, nil)
		if err != nil {
			return o, err
		}
		cpu += cpuTime() - cpu0
		wall += bt.wall()
		lats = append(lats, ms(bt.wall()))
		o.attempted += bt.attempted
		o.failed += bt.failed
		retired += bt.retired
	}
	if err := extra(); err != nil {
		return o, err
	}
	o.e2e(setups, lats, cpu, float64(retired)/wall.Seconds()/1e6)
	o.notes["batches"] = len(setups)
	o.notes["latency"] = "one batch: Prewarm plus Fig10"
	return o, nil
}

// traceFig10 is the traced fig10-batch run: one untraced batch (the
// baseline for trace.overhead_frac), one traced batch with the harness
// calls in spans, then every job replayed serially through runner.Execute
// and through a bare core.New + Core.Run loop, with the workload streams
// generated on their own.
func traceFig10(b *bench) (outcome, error) {
	o := newOutcome()
	rec := newRecorder()

	// Untraced baseline batch.
	h, _, err := figSetup(nil)
	if err != nil {
		return o, err
	}
	gc0 := gcPause()
	base, err := figBatch(h, mixOrder(b.seed, 0, h.Mixes(figThreads)), b.exp, nil)
	if err != nil {
		return o, err
	}
	o.layers["runtime.gc_pause_ms"] = ms(gcPause() - gc0)

	// Traced batch.
	setupSpan := rec.begin("harness.setup", -1, -1)
	h, _, err = figSetup(rec)
	rec.end(setupSpan)
	if err != nil {
		return o, err
	}
	bt, err := figBatch(h, mixOrder(b.seed, 1, h.Mixes(figThreads)), b.exp, rec)
	if err != nil {
		return o, err
	}
	o.attempted, o.failed = bt.attempted, bt.failed
	o.layers["harness.fig_ms"] = ms(bt.fig)
	o.layers["harness.jobs"] = float64(bt.attempted)
	o.layers["harness.single_cpi_ms"] = spanSum(rec, "harness.single_cpi")

	// Serial replays of every job, for the runner, core and workload layers.
	var acc simAcc
	r := &runner.Runner{}
	for i, j := range figJobs() {
		root := rec.begin("replay", -1, i)
		job := runner.Job{Config: j.cfg, Mix: j.mix, Warmup: h.Warmup, Measure: h.Insts}
		if _, _, ok := acc.replay(rec, root, i, r, job, b.exp, j.label); !ok {
			o.failed++
		}
		rec.end(root)
	}
	acc.report(o.layers)
	// The pool's useful work is the jobs' serial Execute time; its capacity
	// is figWorkers workers for the Prewarm wall. What the batch's wall does
	// not explain by that work and Fig10 (idle workers at the end of the
	// pool, contention between workers, harness bookkeeping) is unaccounted.
	workers := float64(figWorkers)
	o.layers["harness.pool_util"] = acc.exec.Seconds() / (workers * bt.prewarm.Seconds())
	o.layers["trace.unaccounted_frac"] = 1 - (acc.exec.Seconds()/workers+bt.fig.Seconds())/bt.wall().Seconds()
	o.layers["trace.overhead_frac"] = bt.wall().Seconds()/base.wall().Seconds() - 1
	o.trace = rec
	return o, nil
}

// spanSum is the total duration of every span named name, in ms.
func spanSum(rec *recorder, name string) float64 {
	var total int64
	for _, s := range rec.spans {
		if s.Name == name {
			total += s.End - s.Start
		}
	}
	return float64(total) / 1e6
}
