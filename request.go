package shelfsim

import (
	"context"
	"fmt"

	"shelfsim/internal/asm"
	"shelfsim/internal/config"
	"shelfsim/internal/harness"
	"shelfsim/internal/runner"
	"shelfsim/internal/workload"
)

// FieldError is a typed validation failure naming the offending request or
// configuration field. Every invalid Request resolves to one of these, so
// callers — CLIs and the shelfd HTTP front end alike — can attribute the
// failure to a field without parsing messages.
type FieldError = config.FieldError

// SimError is a supervised run's structured failure (config, mix, cycle,
// thread, message). Run returns it for simulation-time failures: recovered
// panics, invariant violations, cycle budgets and wall-clock limits.
type SimError = runner.SimError

// Request is the one description of a simulation accepted by every entry
// point: the library API (Run), the shelfd network service and its client
// package all exchange this JSON-serializable type, so a job that ran
// locally can be replayed against a server byte-for-byte and vice versa.
//
// A request names its configuration either by Preset (with optional
// Overrides) — the wire-friendly path — or by embedding a full Config.
//
// The workload is a union: exactly one of Kernels (registry names) or
// Programs (assembly source text) describes the per-thread work. Both
// travel over the wire and have canonical cache identities; a custom
// workload is written as a program.
type Request struct {
	// Preset names a Table I configuration: "base64", "base128",
	// "shelf64-opt", "shelf64-cons" or "coarse64". Mutually exclusive with
	// Config.
	Preset string `json:"preset,omitempty"`
	// Config embeds a complete configuration, for callers that need full
	// control. Mutually exclusive with Preset.
	Config *Config `json:"config,omitempty"`
	// Overrides adjusts individual fields on top of the preset or config.
	Overrides *Overrides `json:"overrides,omitempty"`

	// Threads is the SMT thread count; 0 derives it from the workload
	// (one thread per kernel or program).
	Threads int `json:"threads,omitempty"`
	// Kernels names the workload, one kernel per thread.
	Kernels []string `json:"kernels,omitempty"`
	// Programs is assembly source text, one program per thread (see
	// internal/asm for the RV32IM-flavored dialect). Programs travel over
	// the wire as plain text; Resolve assembles each one and attributes
	// failures to "programs[i]" with the line/column diagnostic as the
	// cause.
	Programs []string `json:"programs,omitempty"`

	// Insts is the measured window, in retired instructions per thread.
	Insts int64 `json:"insts"`
	// Warmup is the cache/predictor training window preceding measurement;
	// nil selects the paper's default of Insts/2.
	Warmup *int64 `json:"warmup,omitempty"`
}

// Overrides adjusts individual configuration fields on top of a Request's
// preset or embedded config. Pointer fields distinguish "unset" from an
// explicit zero, so a JSON request only overrides what it names.
type Overrides struct {
	// Steer overrides the steering policy by name: "all-iq", "all-shelf",
	// "oracle", "practical" or "coarse".
	Steer *string `json:"steer,omitempty"`
	// CoarseInterval overrides the coarse-grain switching interval.
	CoarseInterval *int64 `json:"coarse_interval,omitempty"`
	// ROB, IQ, LQ, SQ, PRF and Shelf override the window structure sizes.
	ROB   *int `json:"rob,omitempty"`
	IQ    *int `json:"iq,omitempty"`
	LQ    *int `json:"lq,omitempty"`
	SQ    *int `json:"sq,omitempty"`
	PRF   *int `json:"prf,omitempty"`
	Shelf *int `json:"shelf,omitempty"`
	// Cores overrides the chip core count (Config.NumCores); a value of two
	// or more turns the request into an N-core chip simulation, with the
	// workload listing Threads kernels per core.
	Cores *int `json:"cores,omitempty"`
	// Alloc overrides the thread-to-core allocation policy by name:
	// "round-robin", "icount" or "shelf-pressure". Chip mode only.
	Alloc *string `json:"alloc,omitempty"`
	// ChipLockstep forces the chip's deterministic sequential step path
	// instead of one goroutine per core (the results are bit-identical; this
	// trades wall-clock speed for single-threaded execution).
	ChipLockstep *bool `json:"chip_lockstep,omitempty"`
	// ChipEpoch overrides the allocation-epoch length in cycles.
	ChipEpoch *int64 `json:"chip_epoch,omitempty"`
	// MigrationCost overrides the modeled fetch-stall cost, in cycles, a
	// thread pays after migrating to another core.
	MigrationCost *int64 `json:"migration_cost,omitempty"`
	// L2SharePenalty overrides the shared-L2 contention penalty.
	L2SharePenalty *int64 `json:"l2_share_penalty,omitempty"`
	// Telemetry attaches the per-core observability collector to the run.
	Telemetry *bool `json:"telemetry,omitempty"`
	// CheckInvariants enables the per-cycle invariant checker.
	CheckInvariants *bool `json:"check_invariants,omitempty"`
	// AsmBound overrides the cap on assembled programs' unrolled execution
	// schedules (Config.AsmScheduleBound).
	AsmBound *int64 `json:"asm_bound,omitempty"`
	// Name relabels the configuration in reports.
	Name *string `json:"name,omitempty"`
}

// steerByName maps wire names to steering policies (the inverse of
// SteerKind.String).
func steerByName(name string) (SteerKind, error) {
	for s := SteerAllIQ; s <= SteerCoarse; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, config.Fielderrf("overrides.steer", "unknown steering policy %q", name)
}

// apply folds the overrides into cfg.
func (o *Overrides) apply(cfg *Config) error {
	if o == nil {
		return nil
	}
	if o.Steer != nil {
		s, err := steerByName(*o.Steer)
		if err != nil {
			return err
		}
		cfg.Steer = s
		if s == SteerCoarse && cfg.CoarseInterval == 0 {
			cfg.CoarseInterval = defaultCoarseInterval
		}
	}
	if o.CoarseInterval != nil {
		cfg.CoarseInterval = *o.CoarseInterval
	}
	for _, f := range []struct {
		v   *int
		dst *int
	}{{o.ROB, &cfg.ROB}, {o.IQ, &cfg.IQ}, {o.LQ, &cfg.LQ},
		{o.SQ, &cfg.SQ}, {o.PRF, &cfg.PRF}, {o.Shelf, &cfg.Shelf}} {
		if f.v != nil {
			*f.dst = *f.v
		}
	}
	if o.Cores != nil {
		cfg.NumCores = *o.Cores
	}
	if o.Alloc != nil {
		p, err := config.AllocPolicyByName(*o.Alloc)
		if err != nil {
			return err
		}
		cfg.AllocPolicy = p
	}
	if o.ChipLockstep != nil {
		cfg.ChipLockstep = *o.ChipLockstep
	}
	if o.ChipEpoch != nil {
		cfg.ChipEpoch = *o.ChipEpoch
	}
	if o.MigrationCost != nil {
		cfg.MigrationCost = *o.MigrationCost
	}
	if o.L2SharePenalty != nil {
		cfg.L2SharePenalty = *o.L2SharePenalty
	}
	if cfg.NumCores >= 2 && cfg.ChipEpoch == 0 {
		cfg.ChipEpoch = defaultChipEpoch
	}
	if o.Telemetry != nil {
		cfg.Telemetry = *o.Telemetry
	}
	if o.CheckInvariants != nil {
		cfg.CheckInvariants = *o.CheckInvariants
	}
	if o.AsmBound != nil {
		cfg.AsmScheduleBound = *o.AsmBound
	}
	if o.Name != nil {
		cfg.Name = *o.Name
	}
	return nil
}

// defaultCoarseInterval is the switching interval used when a request asks
// for coarse steering without naming one (prior coarse-grain designs
// switch at thousand-instruction granularity).
const defaultCoarseInterval = 1000

// defaultChipEpoch is the allocation-epoch length used when a request asks
// for a chip (cores >= 2) without naming one: long enough to amortize the
// epoch-boundary synchronization, short enough that the allocator reacts
// within the paper's measurement windows.
const defaultChipEpoch = 4096

// Resolved is a Request after validation: a concrete configuration, the
// workload (exactly one of Mix or Programs populated) and the measurement
// window.
type Resolved struct {
	Config Config
	Mix    Mix
	// Programs is the assembled-program workload, one per thread.
	Programs []*asm.Program
	Warmup   int64
	Insts    int64
}

// CacheKey is the canonical identity of the resolved simulation — the
// configuration fingerprint, workload identity and measurement window.
// The harness memoizes on it and shelfd deduplicates in-flight jobs with
// it. Program workloads key on their execution-schedule fingerprints, so
// textually different sources assembling to the same schedule share one
// cache entry.
func (rv *Resolved) CacheKey() string {
	if len(rv.Programs) > 0 {
		return harness.WorkloadCacheKey(&rv.Config, asm.WorkloadID(rv.Programs), rv.Warmup, rv.Insts)
	}
	return harness.CacheKey(&rv.Config, rv.Mix, rv.Warmup, rv.Insts)
}

// workloadKind reports which arm of the workload union the request uses,
// rejecting requests that set more than one with a FieldError naming the
// conflicting fields. An empty request resolves to kindNone; Resolve
// rejects it after thread derivation (the counts may still matter for
// the diagnostic).
type workloadKind uint8

const (
	kindNone workloadKind = iota
	kindKernels
	kindPrograms
)

func (r *Request) workloadKind() (workloadKind, error) {
	switch {
	case len(r.Kernels) > 0 && len(r.Programs) > 0:
		return kindNone, config.Fielderrf("kernels",
			"request names more than one workload kind (kernels and programs); they are mutually exclusive")
	case len(r.Kernels) > 0:
		return kindKernels, nil
	case len(r.Programs) > 0:
		return kindPrograms, nil
	}
	return kindNone, nil
}

// Resolve validates the request and materializes the configuration and
// workload. Every failure is a *FieldError naming the offending field;
// program assembly failures carry the *asm.Error (line, column, message)
// as their cause.
func (r Request) Resolve() (Resolved, error) {
	var rv Resolved

	kind, err := r.workloadKind()
	if err != nil {
		return rv, err
	}
	// Chip requests list Threads workloads per core, so deriving the
	// per-core thread count from the workload needs the core count first.
	cores := 1
	if r.Config != nil {
		cores = r.Config.NumCores
	}
	if r.Overrides != nil && r.Overrides.Cores != nil {
		cores = *r.Overrides.Cores
	}
	if cores < 1 {
		cores = 1
	}
	threads := r.Threads
	if threads == 0 {
		total := len(r.Kernels) + len(r.Programs)
		if total%cores != 0 {
			field := "kernels"
			if kind == kindPrograms {
				field = "programs"
			}
			return rv, config.Fielderrf(field, "%d workloads do not divide across %d cores", total, cores)
		}
		threads = total / cores
	}
	if threads <= 0 {
		return rv, config.Fielderrf("threads", "no thread count and no workload to derive it from")
	}

	switch {
	case r.Config != nil && r.Preset != "":
		return rv, config.Fielderrf("preset", "request has both a preset %q and an embedded config", r.Preset)
	case r.Config != nil:
		rv.Config = *r.Config
		if r.Threads > 0 && rv.Config.Threads != r.Threads {
			return rv, config.Fielderrf("threads", "request thread count %d contradicts config thread count %d",
				r.Threads, rv.Config.Threads)
		}
	default:
		switch r.Preset {
		case "base64":
			rv.Config = Base64(threads)
		case "base128":
			rv.Config = Base128(threads)
		case "shelf64-opt":
			rv.Config = Shelf64(threads, true)
		case "shelf64-cons":
			rv.Config = Shelf64(threads, false)
		case "coarse64":
			rv.Config = Coarse64(threads, defaultCoarseInterval)
		case "":
			return rv, config.Fielderrf("preset", "request names neither a preset nor a config")
		default:
			return rv, config.Fielderrf("preset", "unknown preset %q (want base64, base128, shelf64-opt, shelf64-cons or coarse64)", r.Preset)
		}
	}
	if err := r.Overrides.apply(&rv.Config); err != nil {
		return rv, err
	}

	// In chip mode the workload lists Threads software threads per core.
	want := rv.Config.Threads
	if rv.Config.NumCores >= 2 {
		want *= rv.Config.NumCores
	}
	switch kind {
	case kindPrograms:
		if len(r.Programs) != want {
			return rv, config.Fielderrf("programs", "%d programs for %d threads", len(r.Programs), want)
		}
		progs := make([]*asm.Program, len(r.Programs))
		for i, src := range r.Programs {
			p, err := asm.Assemble(src, asm.Options{MaxSchedule: rv.Config.AsmScheduleBound})
			if err != nil {
				return rv, config.WrapFielderr(fmt.Sprintf("programs[%d]", i), err)
			}
			progs[i] = p
		}
		rv.Programs = progs
	case kindKernels:
		if len(r.Kernels) != want {
			return rv, config.Fielderrf("kernels", "%d kernels for %d threads", len(r.Kernels), want)
		}
		ks := make([]*Kernel, len(r.Kernels))
		for i, name := range r.Kernels {
			k, err := workload.ByName(name)
			if err != nil {
				return rv, config.Fielderrf("kernels", "thread %d: unknown kernel %q", i, name)
			}
			ks[i] = k
		}
		rv.Mix = Mix{ID: 0, Kernels: ks}
	default:
		return rv, config.Fielderrf("kernels", "request has no workload (no kernels, no programs)")
	}

	if r.Insts <= 0 {
		return rv, config.Fielderrf("insts", "non-positive instruction count %d", r.Insts)
	}
	rv.Insts = r.Insts
	if r.Warmup != nil {
		if *r.Warmup < 0 {
			return rv, config.Fielderrf("warmup", "negative warmup %d", *r.Warmup)
		}
		rv.Warmup = *r.Warmup
	} else {
		rv.Warmup = r.Insts / 2
	}

	if err := rv.Config.Validate(); err != nil {
		return rv, err
	}
	return rv, nil
}

// CacheKey resolves the request and returns its canonical cache key —
// identical requests (even after a JSON round trip) produce identical
// keys.
func (r Request) CacheKey() (string, error) {
	rv, err := r.Resolve()
	if err != nil {
		return "", err
	}
	return rv.CacheKey(), nil
}

// Run executes one simulation described by req under runner supervision:
// panics in the core become structured *SimError failures, the context
// cancels or bounds the run's wall-clock time, and the cycle budget of
// DefaultMaxCyclesPerInst cycles per requested instruction aborts
// deadlocks. It is the single entry point behind the CLIs and the shelfd
// service, so all of them produce bit-identical results for the same
// request.
func Run(ctx context.Context, req Request) (Result, error) {
	rv, err := req.Resolve()
	if err != nil {
		return Result{}, err
	}
	return runResolved(ctx, rv)
}

// runResolved executes an already-validated request on the runner's
// supervised path, which always measures the requested window. It makes a
// single attempt: a timed-out request fails rather than re-simulating.
func runResolved(ctx context.Context, rv Resolved) (Result, error) {
	r := &runner.Runner{CyclesPerInst: DefaultMaxCyclesPerInst, MaxAttempts: 1}
	res, simErr := r.Execute(ctx, runner.Job{
		Config:   rv.Config,
		Mix:      rv.Mix,
		Programs: rv.Programs,
		Warmup:   rv.Warmup,
		Measure:  rv.Insts,
	})
	if simErr != nil {
		return Result{}, simErr
	}
	return *res, nil
}
