package main

import (
	"context"
	"fmt"
	"time"

	"shelfsim"
	"shelfsim/internal/chip"
	"shelfsim/internal/core"
	"shelfsim/internal/runner"
	"shelfsim/internal/workload"
)

// budgetPerInst bounds the replays' bare simulation loops (a deadlock
// guard only; the supervised runs keep their own budgets).
const budgetPerInst = 1000

// simAcc accumulates the simulation layers' numbers over replayed jobs:
// runner.Execute against a bare core loop on the same job (single-core
// jobs), the workload streams generated alone, and chip epochs stepped in
// parallel and in lockstep (chip jobs).
type simAcc struct {
	exec, bare                time.Duration
	cycles, retired, squashes int64
	gen                       time.Duration
	genInsts                  int64
	chipStep, chipRebalance   time.Duration
	chipLockstep              time.Duration
	chipEpochs                int64
}

// replay runs job through r.Execute and then, from the benchmark, through
// the layers below it. It returns Execute's result and duration, and
// whether every result's fingerprint is the expected one.
func (a *simAcc) replay(rec *recorder, parent, op int, r *runner.Runner, job runner.Job, exp *expected, label string) (*core.Result, time.Duration, bool) {
	var res *core.Result
	var simErr *runner.SimError
	exec := rec.timed("runner.execute", parent, op, func() { res, simErr = r.Execute(context.Background(), job) })
	if simErr != nil {
		return nil, exec, false
	}
	want := res.Fingerprint()
	ok := exp.ok(label, want)
	if job.Config.NumCores >= 2 {
		return res, exec, a.chip(rec, parent, op, job, want) && ok
	}
	bare, bareRes, err := bareRun(rec, parent, op, job)
	if err != nil {
		return res, exec, false
	}
	a.exec += exec
	a.bare += bare
	a.cycles += bareRes.Cycles
	a.retired += bareRes.Stats.Retired
	a.squashes += bareRes.Stats.Squashes
	a.generate(rec, parent, op, job.Mix, bareRes.Stats.Fetched/int64(len(job.Mix.Kernels)))
	return res, exec, ok && bareRes.Fingerprint() == want
}

// bareRun drives the job through core.New and Core.Run in the runner's
// chunk size, without supervision, and returns the host time of the Run
// loop.
func bareRun(rec *recorder, parent, op int, job runner.Job) (time.Duration, core.Result, error) {
	c, err := core.New(job.Config, runner.Streams(job.Mix, -1))
	if err != nil {
		return 0, core.Result{}, err
	}
	c.SetRetireTargets(job.Warmup, job.Measure)
	budget := (job.Warmup + job.Measure) * int64(job.Config.Threads) * budgetPerInst
	d := rec.timed("core.run", parent, op, func() {
		for c.Cycle() < budget {
			if _, finished := c.Run(4096); finished {
				return
			}
		}
		err = fmt.Errorf("bare run of %s exceeded %d cycles", job.Mix.Name(), budget)
	})
	return d, c.Result(), err
}

// generate times a Stream.Next loop over the mix's streams, n
// instructions each.
func (a *simAcc) generate(rec *recorder, parent, op int, mix workload.Mix, n int64) {
	var in shelfsim.Inst
	var count int64
	a.gen += rec.timed("workload.gen", parent, op, func() {
		for _, s := range runner.Streams(mix, n) {
			for s.Next(&in) {
				count++
			}
		}
	})
	a.genInsts += count
}

// chip drives the chip job from the benchmark, epoch by epoch, once with
// parallel core stepping and once in lockstep, and checks both results
// against want.
func (a *simAcc) chip(rec *recorder, parent, op int, job runner.Job, want string) bool {
	for _, lockstep := range []bool{false, true} {
		cfg := job.Config
		cfg.ChipLockstep = lockstep
		ch, err := chip.New(cfg, runner.Streams(job.Mix, -1))
		if err != nil {
			return false
		}
		ch.SetRetireTargets(job.Warmup, job.Measure)
		budget := (job.Warmup + job.Measure) * int64(cfg.Threads*cfg.NumCores) * budgetPerInst
		name := "chip.run"
		if lockstep {
			name = "chip.run_lockstep"
		}
		id := rec.begin(name, parent, op)
		var step, rebalance time.Duration
		var epochs int64
		for !ch.Done() && ch.Cycle() < budget {
			step += rec.timed("chip.step", id, op, ch.Step)
			rebalance += rec.timed("chip.rebalance", id, op, ch.Rebalance)
			epochs++
		}
		rec.end(id)
		if res := ch.Result(); !ch.Done() || res.Fingerprint() != want {
			return false
		}
		if lockstep {
			a.chipLockstep += step
			continue
		}
		a.chipStep += step
		a.chipRebalance += rebalance
		a.chipEpochs += epochs
	}
	return true
}

// report writes the simulation layers' metrics.
func (a *simAcc) report(layers map[string]float64) {
	if a.bare > 0 {
		layers["runner.overhead_frac"] = a.exec.Seconds()/a.bare.Seconds() - 1
	}
	if a.cycles > 0 {
		layers["core.ns_per_cycle"] = float64(a.bare) / float64(a.cycles)
		layers["core.ns_per_inst"] = float64(a.bare) / float64(a.retired)
	}
	layers["core.cycles"] = float64(a.cycles)
	layers["core.retired"] = float64(a.retired)
	layers["core.squashes"] = float64(a.squashes)
	if a.genInsts > 0 {
		layers["workload.gen_ns_per_inst"] = float64(a.gen) / float64(a.genInsts)
	}
	if a.chipEpochs > 0 {
		layers["chip.step_ms_per_epoch"] = ms(a.chipStep) / float64(a.chipEpochs)
		layers["chip.rebalance_us_per_epoch"] = us(a.chipRebalance) / float64(a.chipEpochs)
		layers["chip.parallel_speedup"] = a.chipLockstep.Seconds() / a.chipStep.Seconds()
	}
	layers["chip.epochs"] = float64(a.chipEpochs)
}
