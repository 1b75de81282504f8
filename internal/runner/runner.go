// Package runner supervises simulation runs. It executes (config, mix)
// jobs on a worker pool of goroutines, recovers panics from the core and
// its substrates into structured SimErrors (config, mix, cycle, thread,
// message, stack), enforces per-run cycle budgets and wall-clock timeouts,
// and degrades gracefully: a sweep returns partial results plus a failure
// manifest instead of aborting the process.
//
// Every run takes one supervised path: single-core and chip jobs and the
// differentials alike. A result always covers the window its job names.
// Only a wall-clock timeout is transient, and its retry re-runs the
// identical window; an exhausted cycle budget is deterministic.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"shelfsim/internal/asm"
	"shelfsim/internal/chip"
	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/isa"
	"shelfsim/internal/workload"
)

// SimError is one supervised run's structured failure. It serializes into
// the failure manifest and wraps the underlying error (for example a
// *core.InvariantError) for errors.As inspection.
type SimError struct {
	// Config is the failing configuration's name.
	Config string `json:"config"`
	// Mix identifies the workload mix.
	Mix string `json:"mix"`
	// Cycle is the simulation cycle at which the run failed (-1 unknown).
	Cycle int64 `json:"cycle"`
	// Thread is the offending hardware thread, or -1 when not attributable.
	Thread int `json:"thread"`
	// Attempt is the 1-based attempt number that produced this failure.
	Attempt int `json:"attempt"`
	// Transient marks failures worth retrying: wall-clock timeouts and
	// cancellations. Everything else, cycle-budget exhaustion included,
	// fails the same way on every attempt.
	Transient bool `json:"transient"`
	// Msg is the recovered panic message or failure description.
	Msg string `json:"message"`
	// Stack is the goroutine stack at the recovery point (panics only).
	Stack string `json:"stack,omitempty"`

	err error
}

// Error implements the error interface.
func (e *SimError) Error() string {
	return fmt.Sprintf("runner: %s on %s failed at cycle %d (thread %d, attempt %d): %s",
		e.Config, e.Mix, e.Cycle, e.Thread, e.Attempt, e.Msg)
}

// Unwrap exposes the underlying error (e.g. a *core.InvariantError).
func (e *SimError) Unwrap() error { return e.err }

// Job is one supervised simulation: a configuration over a mix with the
// paper's warmup/measurement methodology (Warmup retired instructions of
// training, then a window of Measure retired instructions per thread).
type Job struct {
	Config config.Config
	Mix    workload.Mix
	// Programs, when non-empty, is the assembled-program workload, one
	// program per thread. Unlike Streams, programs have canonical cache
	// identities (their schedule fingerprints), so program jobs serve and
	// memoize like kernel mixes. Fresh replay streams are instantiated per
	// attempt, so retries see the workload from the top.
	Programs []*asm.Program
	// Streams, when non-nil, overrides the mix-derived instruction streams
	// (library callers driving custom workloads: litmus tests and the
	// differentials). It is not serializable, so network front ends never
	// set it.
	Streams []isa.Stream
	Warmup  int64
	Measure int64
	// Attach, when non-nil, is invoked with the freshly constructed core
	// before the run starts, so library callers can observe supervised
	// runs: subscribe to its event stream (core.SetObserver) or read its
	// state afterwards. Like Streams it is library-only and never
	// serializes. Attach is single-core only: chip jobs (Config.NumCores
	// >= 2) rebuild cores on thread migration, so there is no stable core
	// to observe, and a chip job with Attach fails before it runs.
	Attach func(c *core.Core)
}

// label identifies the job's workload in failure reports: the mix name,
// the program workload ID, or the stream names when the job runs
// caller-provided streams.
func (j *Job) label() string {
	if len(j.Programs) > 0 {
		return asm.WorkloadID(j.Programs)
	}
	if len(j.Mix.Kernels) > 0 || j.Streams == nil {
		return j.Mix.Name()
	}
	s := "streams["
	for i, st := range j.Streams {
		if i > 0 {
			s += "+"
		}
		s += st.Name()
	}
	return s + "]"
}

// JobResult pairs a job with its outcome: exactly one of Result and Err is
// non-nil.
type JobResult struct {
	Job    Job
	Result *core.Result
	Err    *SimError
}

// Report is a sweep's outcome: per-job results in input order (failed jobs
// keep their slot with Err set) plus the collected failures.
type Report struct {
	Results  []JobResult
	Failures []*SimError
}

// Runner executes supervised simulation jobs. The zero value is ready to
// use with defaults; fields tune the supervision policy.
type Runner struct {
	// Workers is the worker-pool size for RunAll (default GOMAXPROCS).
	Workers int
	// Timeout bounds one attempt's wall-clock time (0 = unlimited).
	Timeout time.Duration
	// CyclesPerInst scales the per-run cycle budget: a run aborts after
	// (warmup+measure) * threads * CyclesPerInst cycles (default 1000).
	CyclesPerInst int64
	// MaxAttempts caps attempts at a timed-out job, the first included
	// (default 2). A retry re-runs the identical window.
	MaxAttempts int
}

// ctxCheckInterval is how many cycles the supervised loop simulates on a
// single core between context/deadline checks.
const ctxCheckInterval = 4096

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (r *Runner) cyclesPerInst() int64 {
	if r.CyclesPerInst > 0 {
		return r.CyclesPerInst
	}
	return 1000
}

func (r *Runner) maxAttempts() int {
	if r.MaxAttempts > 0 {
		return r.MaxAttempts
	}
	return 2
}

// Streams instantiates the per-thread workload streams for a mix using the
// harness conventions: disjoint 4 GiB address regions and per-thread seeds.
// limit bounds each stream's length (<0 for unbounded).
func Streams(mix workload.Mix, limit int64) []isa.Stream {
	streams := make([]isa.Stream, len(mix.Kernels))
	for i, k := range mix.Kernels {
		streams[i] = k.NewStream(uint64(i+1)<<32, uint64(i)+1, limit)
	}
	return streams
}

// Execute runs one job under supervision and returns its result or its
// failure. A wall-clock timeout is the only transient failure: it is
// retried on the identical window, up to MaxAttempts. Every other failure
// (a panic, an invariant violation, a constructor error, an exhausted
// cycle budget) is deterministic and returned at once.
func (r *Runner) Execute(ctx context.Context, job Job) (*core.Result, *SimError) {
	for attempt := 1; ; attempt++ {
		_, res, simErr := r.run(ctx, job, attempt, false)
		if simErr == nil || !simErr.Transient || attempt >= r.maxAttempts() || ctx.Err() != nil {
			return res, simErr
		}
	}
}

// machine is what the supervised loop advances: one core, or an N-core
// chip when Config.NumCores >= 2. At most one field is set.
type machine struct {
	core *core.Core
	chip *chip.Chip
}

// cycle is the machine's current cycle, or -1 before it is built.
func (m *machine) cycle() int64 {
	switch {
	case m.chip != nil:
		return m.chip.Cycle()
	case m.core != nil:
		return m.core.Cycle()
	}
	return -1
}

// advance simulates one supervision step toward budget and reports whether
// every thread finished. A core runs at most ctxCheckInterval cycles and
// never past the budget; a chip runs one Step+Rebalance allocation epoch.
func (m *machine) advance(budget int64) bool {
	if m.chip != nil {
		if !m.chip.Done() {
			m.chip.Step()
			m.chip.Rebalance()
		}
		return m.chip.Done()
	}
	_, finished := m.core.Run(min(ctxCheckInterval, budget-m.core.Cycle()))
	return finished
}

// run is the one supervised path every job takes: it instantiates the
// job's streams, builds its machine, applies Runner.Timeout and advances
// the machine until every thread finishes, checking the context and the
// cycle budget between steps. A panic anywhere in it is recovered into a
// SimError. Normally each thread runs Warmup retired instructions and then
// a Measure window; with drain set no retire targets are set and the run
// lasts until every (bounded) stream has fully retired, which is how the
// differentials compare whole runs. Drain mode and Attach are single-core
// only. run returns the finished machine so callers can read more than
// its Result.
func (r *Runner) run(ctx context.Context, job Job, attempt int, drain bool) (m machine, res *core.Result, simErr *SimError) {
	defer func() {
		if rec := recover(); rec != nil {
			res, simErr = nil, recoveredError(job, rec, attempt, m.cycle())
		}
	}()

	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}

	streams := job.Streams
	if streams == nil {
		if len(job.Programs) > 0 {
			streams = asm.Streams(job.Programs)
		} else {
			streams = Streams(job.Mix, -1)
		}
	}
	threads := int64(job.Config.Threads)
	var err error
	if n := job.Config.NumCores; n >= 2 {
		// A chip finishes only at its retire targets, and it rebuilds its
		// cores on thread migration, so there is no stable core to attach.
		switch {
		case drain:
			return m, nil, job.failure(attempt, -1, false, fmt.Errorf("drain mode needs one core, got NumCores=%d", n))
		case job.Attach != nil:
			return m, nil, job.failure(attempt, -1, false, fmt.Errorf("Attach needs one core, got NumCores=%d", n))
		}
		threads *= int64(n)
		m.chip, err = chip.New(job.Config, streams)
	} else {
		m.core, err = core.New(job.Config, streams)
	}
	if err != nil {
		return m, nil, job.failure(attempt, -1, false, err)
	}
	if !drain {
		if m.chip != nil {
			m.chip.SetRetireTargets(job.Warmup, job.Measure)
		} else {
			m.core.SetRetireTargets(job.Warmup, job.Measure)
		}
	}
	if job.Attach != nil {
		job.Attach(m.core)
	}

	budget := (job.Warmup + job.Measure) * threads * r.cyclesPerInst()
	for {
		if err := ctx.Err(); err != nil {
			return m, nil, job.failure(attempt, m.cycle(), true, fmt.Errorf("wall-clock limit: %w", err))
		}
		if m.cycle() >= budget {
			return m, nil, job.failure(attempt, m.cycle(), false,
				fmt.Errorf("cycle budget %d exhausted (possible deadlock or pathological slowdown)", budget))
		}
		if m.advance(budget) {
			break
		}
	}
	var out core.Result
	if m.chip != nil {
		out = m.chip.Result()
	} else {
		out = m.core.Result()
	}
	return m, &out, nil
}

// failure is the SimError of a run of j that stopped without a panic.
func (j *Job) failure(attempt int, cycle int64, transient bool, err error) *SimError {
	return &SimError{
		Config: j.Config.Name, Mix: j.label(), Cycle: cycle, Thread: -1,
		Attempt: attempt, Transient: transient, Msg: err.Error(), err: err,
	}
}

// recoveredError converts a recovered panic value into a SimError at the
// machine's cycle, refining cycle and thread from typed invariant errors.
func recoveredError(job Job, rec any, attempt int, cycle int64) *SimError {
	err, ok := rec.(error)
	if !ok {
		err = errors.New(fmt.Sprint(rec))
	}
	e := job.failure(attempt, cycle, false, err)
	e.Stack = string(debug.Stack())
	var inv *core.InvariantError
	if errors.As(err, &inv) {
		e.Thread = inv.Thread
		if inv.Cycle >= 0 {
			e.Cycle = inv.Cycle
		}
	}
	return e
}

// RunAll executes jobs on the worker pool and returns every job's outcome:
// failed jobs do not abort the sweep, they are collected into the report's
// failure list while the remaining jobs complete.
func (r *Runner) RunAll(ctx context.Context, jobs []Job) *Report {
	out := make([]JobResult, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, simErr := r.Execute(ctx, jobs[i])
				out[i] = JobResult{Job: jobs[i], Result: res, Err: simErr}
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rep := &Report{Results: out}
	for i := range out {
		if out[i].Err != nil {
			rep.Failures = append(rep.Failures, out[i].Err)
		}
	}
	return rep
}
