package litmus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/runner"
)

// CampaignConfig shapes a torture campaign: how many instances, which
// patterns, on what configuration, and how large the fault-injection
// matrix is. The zero value plus a seed is a usable campaign.
type CampaignConfig struct {
	// Seed derives every instance's Params; the same (Seed, Instances,
	// Patterns) enumerate the same instances.
	Seed uint64 `json:"seed"`
	// Instances is the number of litmus instances to run (default 1000).
	Instances int `json:"instances"`
	// Patterns restricts the shapes (default: all).
	Patterns []Pattern `json:"patterns,omitempty"`
	// Preset names the configuration under test, using the public API's
	// preset vocabulary (default "shelf64-opt").
	Preset string `json:"preset,omitempty"`
	// Steer overrides the preset's steering policy by name ("all-iq",
	// "all-shelf", "oracle", "practical", "coarse"); empty keeps the
	// preset's own. An all-shelf campaign drives shelf-store coalescing,
	// which practical steering never reaches because it shelves no store.
	// It cannot reach load-to-load forwarding: that needs a shelf load and
	// a younger IQ load, and all-shelf steering has no IQ loads.
	Steer string `json:"steer,omitempty"`
	// Insts is the per-thread measured window per instance (default 160).
	Insts int64 `json:"insts,omitempty"`
	// MaxPad bounds the random filler between litmus events (default 6).
	MaxPad int `json:"max_pad,omitempty"`
	// FaultSample is the number of instances crossed with EACH fault kind
	// in the injection matrix (default 3; 0 keeps the default — use
	// SkipFaults to disable the matrix).
	FaultSample int `json:"fault_sample,omitempty"`
	// SkipFaults disables the fault-injection matrix.
	SkipFaults bool `json:"skip_faults,omitempty"`
	// Workers sizes the worker pool (default GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

func (cc CampaignConfig) withDefaults() CampaignConfig {
	if cc.Instances <= 0 {
		cc.Instances = 1000
	}
	if len(cc.Patterns) == 0 {
		for p := Pattern(0); p < NumPatterns; p++ {
			cc.Patterns = append(cc.Patterns, p)
		}
	}
	if cc.Preset == "" {
		cc.Preset = "shelf64-opt"
	}
	if cc.Insts <= 0 {
		cc.Insts = 160
	}
	if cc.MaxPad < 0 {
		cc.MaxPad = 0
	}
	if cc.FaultSample <= 0 {
		cc.FaultSample = 3
	}
	if cc.Workers <= 0 {
		cc.Workers = runtime.GOMAXPROCS(0)
	}
	return cc
}

// configFor materializes a preset by name, mirroring the public Request
// vocabulary (request.go) so campaign results line up with served runs.
// A non-empty steer overrides the preset's steering policy.
func configFor(preset, steer string, threads int) (config.Config, error) {
	var cfg config.Config
	switch preset {
	case "base64":
		cfg = config.Base64(threads)
	case "base128":
		cfg = config.Base128(threads)
	case "shelf64-opt":
		cfg = config.Shelf64(threads, true)
	case "shelf64-cons":
		cfg = config.Shelf64(threads, false)
	case "coarse64":
		cfg = config.Coarse64(threads, 1000)
	default:
		return cfg, config.Fielderrf("preset",
			"unknown preset %q (want base64, base128, shelf64-opt, shelf64-cons or coarse64)", preset)
	}
	if steer != "" {
		found := false
		for s := config.SteerAllIQ; s <= config.SteerCoarse; s++ {
			if s.String() == steer {
				cfg.Steer = s
				found = true
				break
			}
		}
		if !found {
			return cfg, config.Fielderrf("steer", "unknown steering policy %q", steer)
		}
		if cfg.Steer == config.SteerCoarse && cfg.CoarseInterval == 0 {
			cfg.CoarseInterval = 1000
		}
	}
	return cfg, nil
}

// FaultCell is one cell of the injection matrix: a fault kind crossed with
// a litmus instance. A healthy simulator detects every injected fault as a
// typed *core.InvariantError; Detected=false cells are campaign failures
// (Check explains which way the cell failed).
type FaultCell struct {
	// Kind names the injected fault.
	Kind string `json:"kind"`
	// Preset is the configuration the cell ran on.
	Preset string `json:"preset"`
	// Params is the litmus instance.
	Params Params `json:"params"`
	// InjectCycle is the armed injection cycle.
	InjectCycle int64 `json:"inject_cycle"`
	// Detected reports whether the fault surfaced as a typed invariant
	// error.
	Detected bool `json:"detected"`
	// Check is the tripped invariant's identifier, or the failure mode
	// ("silent-pass", "not-injected", "untyped: ...") when undetected.
	Check string `json:"check"`
}

// CampaignReport is a campaign's outcome.
type CampaignReport struct {
	// Instances is the number of litmus instances run (fault cells not
	// included).
	Instances int `json:"instances"`
	// Failures holds one structured failure per failing instance, each
	// carrying a replay=<params JSON> token for the shrunken instance.
	Failures []*runner.SimError `json:"failures,omitempty"`
	// FaultCells is the injection matrix outcome.
	FaultCells []FaultCell `json:"fault_cells,omitempty"`
	// Coverage sums the checker's event counts over every instance: proof
	// the campaign exercised forwarding, coalescing and squash-replay
	// rather than passing vacuously.
	Coverage CheckerStats `json:"coverage"`
}

// OK reports whether the campaign passed: no memory-model or invariant
// failures, and every injected fault detected.
func (r *CampaignReport) OK() bool {
	if len(r.Failures) > 0 {
		return false
	}
	for _, cell := range r.FaultCells {
		if !cell.Detected {
			return false
		}
	}
	return true
}

// Manifest renders the campaign into the runner's failure-manifest format,
// including one synthesized failure per undetected fault cell, so existing
// manifest tooling consumes torture results unchanged.
func (r *CampaignReport) Manifest() runner.Manifest {
	failures := append([]*runner.SimError(nil), r.Failures...)
	for _, cell := range r.FaultCells {
		if cell.Detected {
			continue
		}
		pj, _ := json.Marshal(cell.Params)
		failures = append(failures, &runner.SimError{
			Config: fmt.Sprintf("%s+fault=%s", cell.Preset, cell.Kind),
			Mix:    fmt.Sprintf("litmus-%s", cell.Params.Pattern),
			Cycle:  cell.InjectCycle, Thread: -1, Attempt: 1,
			Msg: fmt.Sprintf("injected %s fault not detected (%s); replay=%s", cell.Kind, cell.Check, pj),
		})
	}
	return runner.NewManifest(r.Instances+len(r.FaultCells), failures)
}

// instanceOutcome is one supervised litmus run's result.
type instanceOutcome struct {
	simErr     *runner.SimError
	violations []Violation
	injected   bool
	stats      CheckerStats
}

// runInstance executes one litmus instance under full supervision: the
// per-cycle invariant checker on, the axiomatic memory-model checker
// attached, and (optionally) a fault armed.
func runInstance(ctx context.Context, p Params, preset, steer string, kind config.FaultKind, faultCycle int64) instanceOutcome {
	threads := p.Pattern.Threads()
	cfg, err := configFor(preset, steer, threads)
	if err != nil {
		return instanceOutcome{simErr: &runner.SimError{
			Config: preset, Mix: "litmus-" + p.Pattern.String(), Cycle: -1, Thread: -1,
			Attempt: 1, Msg: err.Error(),
		}}
	}
	cfg.Name = fmt.Sprintf("litmus-%s-%s", preset, p.Pattern)
	cfg.CheckInvariants = true
	cfg.InjectFaultKind = kind
	cfg.InjectFaultCycle = faultCycle

	inst := New(p)
	var (
		ch   *Checker
		cref *core.Core
	)
	// Litmus bodies are short loops; the memory-order squash storms the
	// branchy variants provoke still fit comfortably in this budget. One
	// attempt: an instance's verdict comes from its first and only run.
	r := &runner.Runner{CyclesPerInst: 4000, MaxAttempts: 1}
	warmup := p.Insts / 4
	res := instanceOutcome{}
	_, res.simErr = r.Execute(ctx, runner.Job{
		Config:  cfg,
		Streams: inst.Streams,
		Warmup:  warmup,
		Measure: p.Insts,
		Attach: func(c *core.Core) {
			cref = c
			ch = NewChecker(threads)
			c.SetObserver(ch.Observe)
		},
	})
	if ch != nil {
		res.violations = ch.Violations()
		res.stats = ch.Stats()
	}
	if cref != nil {
		res.injected = cref.FaultInjected()
	}
	return res
}

// violationError synthesizes a structured failure from memory-model
// violations, embedding the (possibly shrunken) replay Params.
func violationError(p Params, preset string, v []Violation) *runner.SimError {
	pj, _ := json.Marshal(p)
	return &runner.SimError{
		Config: fmt.Sprintf("litmus-%s-%s", preset, p.Pattern),
		Mix:    fmt.Sprintf("litmus-%s", p.Pattern),
		Cycle:  v[0].Cycle, Thread: v[0].Tid, Attempt: 1,
		Msg: fmt.Sprintf("%d memory-model violation(s); first: %s; replay=%s",
			len(v), v[0].Error(), pj),
	}
}

// addStats accumulates per-instance checker counts into the campaign
// coverage totals.
func addStats(dst *CheckerStats, s CheckerStats) {
	dst.Loads += s.Loads
	dst.LoadFwdStore += s.LoadFwdStore
	dst.LoadFwdLoad += s.LoadFwdLoad
	dst.Stores += s.Stores
	dst.Coalesced += s.Coalesced
	dst.Commits += s.Commits
	dst.Retires += s.Retires
	dst.Squashes += s.Squashes
}

// paramsAt enumerates the i-th instance of the campaign deterministically.
func (cc CampaignConfig) paramsAt(i int) Params {
	r := rng{s: cc.Seed ^ (uint64(i)+1)*0xd6e8feb86659fd93}
	h := r.next()
	return Params{
		Pattern:    cc.Patterns[i%len(cc.Patterns)],
		Seed:       r.next(),
		Insts:      cc.Insts,
		MaxPad:     int(h>>8) % (cc.MaxPad + 1),
		SameLine:   h&1 != 0,
		PrivateMem: h&2 != 0,
		Branchy:    h&4 != 0,
	}
}

// maxShrinkRuns bounds the extra supervised runs one failing instance may
// spend on minimization.
const maxShrinkRuns = 24

// shrink minimizes a failing instance: it walks simplifying reductions
// (halve the window, strip padding, drop the branchy/private-memory
// riders, separate the contended lines) and keeps each reduction that
// still fails, so the manifest's replay entry is close to minimal.
func shrink(ctx context.Context, p Params, preset, steer string) Params {
	runs := 0
	return shrinkWith(p, func(cand Params) bool {
		if runs >= maxShrinkRuns || ctx.Err() != nil {
			return false
		}
		runs++
		out := runInstance(ctx, cand, preset, steer, config.FaultWindow, 0)
		return out.simErr != nil || len(out.violations) > 0
	})
}

// shrinkWith runs the reduction walk against an arbitrary still-fails
// predicate (separated from the supervised re-run for testability).
func shrinkWith(p Params, stillFails func(Params) bool) Params {
	cur := p
	for cur.Insts > 32 {
		cand := cur
		cand.Insts = cur.Insts / 2
		if !stillFails(cand) {
			break
		}
		cur = cand
	}
	for cur.MaxPad > 0 {
		cand := cur
		cand.MaxPad = cur.MaxPad / 2
		if !stillFails(cand) {
			break
		}
		cur = cand
	}
	for _, reduce := range []func(*Params){
		func(q *Params) { q.Branchy = false },
		func(q *Params) { q.PrivateMem = false },
		func(q *Params) { q.SameLine = false },
	} {
		cand := cur
		reduce(&cand)
		if cand != cur && stillFails(cand) {
			cur = cand
		}
	}
	return cur
}

// RunCampaign executes the torture campaign: Instances litmus runs on the
// worker pool (each under CheckInvariants with the axiomatic checker
// attached, failures shrunk to minimal replayable Params), followed by the
// fault-injection matrix crossing every config.FaultKind with sampled
// instances and requiring each injected fault to surface as a typed
// *core.InvariantError.
func RunCampaign(ctx context.Context, cc CampaignConfig) *CampaignReport {
	cc = cc.withDefaults()
	rep := &CampaignReport{Instances: cc.Instances}

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	idx := make(chan int)
	for w := 0; w < cc.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				p := cc.paramsAt(i)
				out := runInstance(ctx, p, cc.Preset, cc.Steer, config.FaultWindow, 0)
				mu.Lock()
				addStats(&rep.Coverage, out.stats)
				mu.Unlock()
				if out.simErr == nil && len(out.violations) == 0 {
					continue
				}
				min := shrink(ctx, p, cc.Preset, cc.Steer)
				var failure *runner.SimError
				if len(out.violations) > 0 {
					failure = violationError(min, cc.Preset, out.violations)
				} else {
					failure = out.simErr
					pj, _ := json.Marshal(min)
					failure.Msg = fmt.Sprintf("%s; replay=%s", failure.Msg, pj)
				}
				mu.Lock()
				rep.Failures = append(rep.Failures, failure)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < cc.Instances; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	if !cc.SkipFaults {
		rep.FaultCells = runFaultMatrix(ctx, cc)
	}
	return rep
}

// ReplayInstance re-runs one instance (typically a manifest replay token)
// under the same supervision as a campaign run and reports any failure.
func ReplayInstance(ctx context.Context, p Params, cc CampaignConfig) *CampaignReport {
	cc = cc.withDefaults()
	rep := &CampaignReport{Instances: 1}
	out := runInstance(ctx, p, cc.Preset, cc.Steer, config.FaultWindow, 0)
	switch {
	case len(out.violations) > 0:
		rep.Failures = append(rep.Failures, violationError(p, cc.Preset, out.violations))
	case out.simErr != nil:
		rep.Failures = append(rep.Failures, out.simErr)
	}
	return rep
}

// runFaultMatrix crosses every fault kind with FaultSample litmus
// instances. Store-drop corrupts the IQ store queue, so its cells run on
// base64 (all-IQ steering guarantees SQ occupancy); the other kinds run on
// the campaign preset.
func runFaultMatrix(ctx context.Context, cc CampaignConfig) []FaultCell {
	kinds := []config.FaultKind{config.FaultWindow, config.FaultStoreDrop, config.FaultWakeupTag}
	var cells []FaultCell
	for _, kind := range kinds {
		preset, steer := cc.Preset, cc.Steer
		switch kind {
		case config.FaultStoreDrop:
			// Store-drop corrupts the IQ store queue: run it on base64
			// with default steering so SQ occupancy is guaranteed.
			preset, steer = "base64", ""
		case config.FaultWakeupTag:
			// Wakeup-tag corruption needs registered IQ waiters, which an
			// all-shelf steering override never creates.
			steer = ""
		}
		for i := 0; i < cc.FaultSample; i++ {
			p := cc.paramsAt(i)
			cycle := int64(64 + (i*37)%256)
			cell := FaultCell{
				Kind: kind.String(), Preset: preset, Params: p, InjectCycle: cycle,
			}
			out := runInstance(ctx, p, preset, steer, kind, cycle)
			var inv *core.InvariantError
			switch {
			case out.simErr == nil && !out.injected:
				cell.Check = "not-injected"
			case out.simErr == nil:
				cell.Check = "silent-pass"
			case errors.As(out.simErr, &inv):
				cell.Detected = true
				cell.Check = inv.Check
			default:
				cell.Check = "untyped: " + out.simErr.Msg
			}
			cells = append(cells, cell)
		}
	}
	return cells
}
