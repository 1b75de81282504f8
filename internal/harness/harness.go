// Package harness runs the paper's experiments: it builds workloads,
// drives simulations with the paper's warmup/measurement methodology,
// memoizes runs shared between figures, and computes the reported metrics
// (STP over single-threaded CPIs, EDP, in-sequence statistics). Runs are
// supervised by internal/runner: a crashing or hung simulation becomes a
// recorded failure and the surrounding experiment degrades gracefully
// instead of aborting.
package harness

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/energy"
	"shelfsim/internal/metrics"
	"shelfsim/internal/obs"
	"shelfsim/internal/runner"
	"shelfsim/internal/workload"
)

// Harness caches simulation results across experiments. It is safe for
// concurrent use: Prewarm executes runs on the runner's worker pool and
// figure computations then hit the shared cache.
type Harness struct {
	// Warmup and Insts are per-thread retired-instruction counts for the
	// warmup and measurement windows.
	Warmup int64
	Insts  int64
	// MixCount limits how many of the 28 balanced-random mixes are used
	// (28 = full paper methodology; fewer for quick runs).
	MixCount int
	// Runner supervises the simulations (panic recovery, budgets,
	// timeouts, retries). New installs a default zero-policy runner.
	Runner *runner.Runner
	// CheckInvariants enables the core's per-cycle invariant checker on
	// every supervised run.
	CheckInvariants bool
	// Telemetry enables the per-core observability collector on every
	// supervised run; read the aggregate with MergedTelemetry.
	Telemetry bool
	// FaultConfig/FaultMix/FaultCycle inject an artificial invariant
	// violation into runs of the named configuration at the given cycle —
	// the fault-path test hook for exercising graceful degradation end to
	// end. An empty FaultMix faults every mix of FaultConfig; naming a mix
	// confines the fault to that one run so the rest of a sweep completes.
	FaultConfig string
	FaultMix    string
	FaultCycle  int64
	// FaultKind selects which structure the injected fault corrupts
	// (config.FaultWindow, FaultStoreDrop, FaultWakeupTag).
	FaultKind config.FaultKind

	mu       sync.Mutex
	runs     map[string]outcome
	failures []*runner.SimError
}

// outcome is one cached simulation: its result, or its deterministic
// failure.
type outcome struct {
	res *core.Result
	err *runner.SimError
}

func (o outcome) result() (*core.Result, error) {
	if o.err != nil {
		return nil, o.err
	}
	return o.res, nil
}

// New builds a harness with the given measurement window; warmup defaults
// to half the window.
func New(insts int64, mixCount int) *Harness {
	if mixCount <= 0 || mixCount > 28 {
		mixCount = 28
	}
	return &Harness{
		Warmup:   insts / 2,
		Insts:    insts,
		MixCount: mixCount,
		Runner:   &runner.Runner{},
		runs:     make(map[string]outcome),
	}
}

// Mixes returns the first MixCount balanced-random mixes for a thread
// count.
func (h *Harness) Mixes(threads int) []workload.Mix {
	return workload.PaperMixes(threads)[:h.MixCount]
}

// prepare applies the harness-wide run options to one job's config.
func (h *Harness) prepare(cfg *config.Config, mix workload.Mix) {
	if h.CheckInvariants {
		cfg.CheckInvariants = true
	}
	if h.Telemetry {
		cfg.Telemetry = true
	}
	if h.FaultConfig != "" && cfg.Name == h.FaultConfig &&
		(h.FaultMix == "" || mix.Name() == h.FaultMix) {
		cfg.InjectFaultCycle = h.FaultCycle
		cfg.InjectFaultKind = h.FaultKind
	}
}

// CacheKey is the canonical identity of one simulation: the full
// configuration fingerprint (never the display name — two configs sharing
// a Name but differing in any parameter must not alias), the mix identity
// and the measurement window. The harness memoizes on it, the request API
// exposes it, and the serving layer deduplicates in-flight jobs with it,
// so all three agree on when two runs are the same run.
func CacheKey(cfg *config.Config, mix workload.Mix, warmup, insts int64) string {
	return WorkloadCacheKey(cfg, mix.Name(), warmup, insts)
}

// WorkloadCacheKey is CacheKey for any workload with a canonical string
// identity — a kernel mix name or an assembled-program workload ID. The
// two workload namespaces cannot collide: mix names are kernel names
// joined with '+', program IDs are "asm[...]".
func WorkloadCacheKey(cfg *config.Config, workloadID string, warmup, insts int64) string {
	return cfg.Fingerprint() + "/" + workloadID + "/" +
		strconv.FormatInt(warmup, 10) + "/" + strconv.FormatInt(insts, 10)
}

// cacheKey keys runs on the harness's own measurement window.
func (h *Harness) cacheKey(cfg *config.Config, mix workload.Mix) string {
	return CacheKey(cfg, mix, h.Warmup, h.Insts)
}

// Run simulates cfg over mix under runner supervision, memoized on the
// config fingerprint and mix identity. Failures are recorded (see
// Failures) and returned as *runner.SimError.
func (h *Harness) Run(cfg config.Config, mix workload.Mix) (*core.Result, error) {
	h.prepare(&cfg, mix)
	key := h.cacheKey(&cfg, mix)
	h.mu.Lock()
	o, ok := h.runs[key]
	h.mu.Unlock()
	if ok {
		return o.result()
	}

	res, simErr := h.Runner.Execute(context.Background(), runner.Job{
		Config: cfg, Mix: mix, Warmup: h.Warmup, Measure: h.Insts,
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.record(key, res, simErr).result()
}

// Prewarm executes the cross product of configs and mixes on the runner's
// worker pool, filling the run cache in parallel. Per-run failures are
// recorded, not fatal; the returned report carries partial results plus
// the failure manifest.
func (h *Harness) Prewarm(ctx context.Context, configs []config.Config, mixes []workload.Mix) *runner.Report {
	var jobs []runner.Job
	var keys []string
	h.mu.Lock()
	for _, base := range configs {
		for _, mix := range mixes {
			cfg := base
			h.prepare(&cfg, mix)
			key := h.cacheKey(&cfg, mix)
			if _, ok := h.runs[key]; ok {
				continue
			}
			jobs = append(jobs, runner.Job{
				Config: cfg, Mix: mix, Warmup: h.Warmup, Measure: h.Insts,
			})
			keys = append(keys, key)
		}
	}
	h.mu.Unlock()

	rep := h.Runner.RunAll(ctx, jobs)
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, jr := range rep.Results {
		h.record(keys[i], jr.Result, jr.Err)
	}
	return rep
}

// record caches one finished job and returns the outcome lookups see. The
// first result for a key wins a race, so its pointer stays stable. A
// failure is logged once, and a deterministic one (a panic, an invariant
// violation, an exhausted cycle budget) is cached so later lookups don't
// re-run a known-bad job. Transient failures (wall-clock timeouts) stay
// uncached: a retry under different load may succeed. Callers must hold
// h.mu.
func (h *Harness) record(key string, res *core.Result, se *runner.SimError) outcome {
	if se != nil {
		h.failures = append(h.failures, se)
		if !se.Transient {
			h.runs[key] = outcome{err: se}
		}
		return outcome{err: se}
	}
	if o, ok := h.runs[key]; ok {
		return o
	}
	h.runs[key] = outcome{res: res}
	return h.runs[key]
}

// Failures returns the supervised failures recorded so far, oldest first.
func (h *Harness) Failures() []*runner.SimError {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*runner.SimError, len(h.failures))
	copy(out, h.failures)
	return out
}

// MergedTelemetry folds the telemetry of every cached run into one
// collector. Each distinct simulation is counted exactly once no matter how
// many experiments shared it through the cache — back-to-back runs can no
// longer accumulate into each other the way the old process-global counters
// did — and cache hits return the identical aggregate.
func (h *Harness) MergedTelemetry() *obs.Collector {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := obs.New()
	for _, o := range h.runs {
		if o.res != nil {
			m.Merge(o.res.Obs)
		}
	}
	return m
}

// Runs returns how many distinct successful simulations the harness has
// cached.
func (h *Harness) Runs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, o := range h.runs {
		if o.res != nil {
			n++
		}
	}
	return n
}

// Skippable reports whether err is a supervised per-run failure that a
// sweep should record and skip rather than abort on.
func Skippable(err error) bool {
	var se *runner.SimError
	return errors.As(err, &se)
}

// SingleCPI returns the kernel's CPI running alone on the single-threaded
// baseline core — the normalization point for STP, shared by every
// configuration so STP ratios are directly comparable.
func (h *Harness) SingleCPI(kernel *workload.Kernel) (float64, error) {
	mix := workload.Mix{ID: 0, Kernels: []*workload.Kernel{kernel}}
	res, err := h.Run(config.Base64(1), mix)
	if err != nil {
		return 0, err
	}
	cpi := res.Threads[0].CPI
	if cpi <= 0 {
		return 0, fmt.Errorf("harness: non-positive single-thread CPI for %s", kernel.Name)
	}
	return cpi, nil
}

// STP computes system throughput for a finished run of mix.
func (h *Harness) STP(mix workload.Mix, res *core.Result) (float64, error) {
	single := make([]float64, len(mix.Kernels))
	multi := make([]float64, len(mix.Kernels))
	for i, k := range mix.Kernels {
		cpi, err := h.SingleCPI(k)
		if err != nil {
			return 0, err
		}
		single[i] = cpi
		multi[i] = res.Threads[i].CPI
	}
	return metrics.STP(single, multi)
}

// Power returns the run's steady-state average core power: total energy
// over total cycles (robust to post-window overshoot, since both integrate
// the same steady state).
func Power(cfg *config.Config, res *core.Result) float64 {
	if res.Cycles == 0 {
		return 0
	}
	b := energy.Energy(cfg, res)
	return b.Total() / float64(res.Cycles)
}

// EDPFrom combines average power with STP into an energy-delay product:
// the mix's delay is the time to complete one normalized program, 1/STP,
// so EDP = P x (1/STP)^2. Only ratios between configurations matter.
func EDPFrom(power, stp float64) float64 {
	if stp <= 0 {
		return 0
	}
	return power / (stp * stp)
}
