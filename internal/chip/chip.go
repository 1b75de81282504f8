// Package chip simulates an N-core chip built from N independent
// core.Core instances. Each core owns its complete state — shelf, IQ, PRF,
// private cache hierarchy and telemetry collector — so cores share no
// mutable structure on the step path and can be stepped in parallel, one
// goroutine per core, with no per-cycle barrier: cores run ahead
// independently for a whole allocation epoch (Config.ChipEpoch cycles) and
// interact only at epoch boundaries, where the thread-to-core allocator and
// the shared-L2 contention model run single-threaded over quiescent cores.
// Config.ChipLockstep replaces the parallel step with a sequential
// core-order sweep; because cores are isolated within an epoch the two modes
// are bit-identical, and the runner's chip differential asserts exactly
// that.
//
// On top sits the thread-to-core allocation layer (config.AllocPolicy):
// round-robin (static), ICOUNT-aware, and shelf-pressure-aware policies
// following the SMT thread-to-core allocation literature. A migrated thread
// restarts on a freshly built core — cold microarchitectural state is part
// of the migration cost model — plus Config.MigrationCost cycles of fetch
// stall; its warmup/measurement window carries across segments via the
// chip's cross-segment accounting.
package chip

import (
	"fmt"
	"sync"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/isa"
	"shelfsim/internal/mem"
	"shelfsim/internal/obs"
)

// FNV-1a constants for the allocation-decision log hash.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// l2ShareCap bounds the shared-L2 surcharge at this many multiples of
// Config.L2SharePenalty, so a pathological epoch cannot push L2 latency
// past DRAM.
const l2ShareCap = 8

// maxCores mirrors config.Validate's NumCores ceiling for fixed scratch.
const maxCores = 64

// slot is one core's seat on the chip. The core instance is replaced
// (rebuilt) when the allocator migrates any of its threads; base anchors the
// current segment in chip time.
type slot struct {
	id   int
	core *core.Core
	// base is the chip cycle at which this segment's core was built; the
	// core's local cycle c maps to chip cycle base+c.
	base int64
	// l2Extra is the shared-L2 surcharge currently applied to this core.
	l2Extra int64
	// epochRetired / epochL2 are the segment-local counter values at the
	// last epoch boundary, for per-epoch deltas (telemetry, L2 model).
	epochRetired int64
	epochL2      uint64
	// panicked carries a panic out of this slot's step goroutine.
	panicked any
}

// threadAcc is one software thread's cross-segment accumulator: totals,
// measurement-window sums, and chip-time window anchors.
type threadAcc struct {
	workload string
	stream   *replayStream

	// Totals across segments (the counterpart of single-core per-thread
	// totals, warmup included).
	retired, retiredInSeq, retiredShelf     int64
	fetched, steerShelf, steerIQ            int64
	squashes, mispredicts, memViolations    int64
	loadForwards, storeCoalesce, migrations int64

	// Measurement-window accumulation across segments.
	winRetired, winInSeq, winShelf int64
	warmStartChip                  int64
	warmStartSet                   bool
	finishChip                     int64
	done                           bool

	// epochSteerShelf is the segment-local steer counter at the last epoch
	// boundary (shelf-pressure metric base).
	epochSteerShelf int64
}

// Chip owns NumCores independent cores and the thread-to-core allocation
// layer above them. Drive it with Step (one allocation epoch of core
// execution) followed by Rebalance (the epoch boundary: telemetry,
// allocator, shared-L2 model) until Done, then read Result.
type Chip struct {
	cfg     config.Config
	slots   []*slot
	threads []*threadAcc
	// assign maps core id -> resident thread ids, ascending; a core's local
	// thread index is the position in its slice.
	assign [][]int

	// cycle is chip time: completed allocation epochs times ChipEpoch.
	cycle int64

	warmup, measure int64
	targetsSet      bool

	// wg is the reused per-epoch join for the parallel step path.
	wg sync.WaitGroup

	// obsAcc holds the chip-level gauges and the telemetry of closed
	// segments (nil unless Config.Telemetry). The *Acc fields accumulate
	// the closed segments of rebuilt cores so nothing is lost across
	// migrations; live cores are added at Result.
	statsAcc core.Stats
	l1iAcc   mem.CacheStats
	l1dAcc   mem.CacheStats
	l2Acc    mem.CacheStats
	obsAcc   *obs.Collector

	// allocHash is the FNV-1a log of every epoch's allocation decisions.
	allocHash uint64

	// Rebalance scratch, reused across epochs.
	metricScratch []threadMetric
	slotScratch   []int
}

// threadMetric pairs a movable thread with its allocation metric.
type threadMetric struct {
	tid    int
	metric int64
}

// New builds a chip for cfg (which must have NumCores >= 2) over
// cfg.Threads*cfg.NumCores workload streams: thread t starts on core
// t % NumCores, the round-robin deal every policy shares at cycle 0.
func New(cfg config.Config, streams []isa.Stream) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumCores < 2 {
		return nil, fmt.Errorf("chip: NumCores %d; the single-core path is core.New", cfg.NumCores)
	}
	want := cfg.Threads * cfg.NumCores
	if len(streams) != want {
		return nil, fmt.Errorf("chip: %d streams for %d cores x %d threads", len(streams), cfg.NumCores, cfg.Threads)
	}
	ch := &Chip{
		cfg:       cfg,
		slots:     make([]*slot, cfg.NumCores),
		threads:   make([]*threadAcc, want),
		assign:    make([][]int, cfg.NumCores),
		allocHash: fnvOffset,
	}
	if cfg.Telemetry {
		ch.obsAcc = obs.New()
	}
	for t, s := range streams {
		if s == nil {
			return nil, fmt.Errorf("chip: nil stream for thread %d", t)
		}
		ch.threads[t] = &threadAcc{workload: s.Name(), stream: newReplayStream(s)}
		k := t % cfg.NumCores
		ch.assign[k] = append(ch.assign[k], t)
	}
	for k := range ch.slots {
		c, err := ch.buildCore(ch.assign[k])
		if err != nil {
			return nil, err
		}
		ch.slots[k] = &slot{id: k, core: c}
	}
	ch.foldAssignment()
	ch.metricScratch = make([]threadMetric, 0, want)
	ch.slotScratch = make([]int, 0, want)
	return ch, nil
}

// buildCore constructs one core over the given thread ids' streams, in
// ascending thread-id order.
func (ch *Chip) buildCore(tids []int) (*core.Core, error) {
	streams := make([]isa.Stream, len(tids))
	for i, tid := range tids {
		streams[i] = ch.threads[tid].stream
	}
	return core.New(ch.cfg, streams)
}

// SetRetireTargets gives every software thread the paper's methodology:
// warmup retired instructions of training, then a measurement window of
// measure retired instructions, both counted across migrations. Call it
// once, before the first Step.
func (ch *Chip) SetRetireTargets(warmup, measure int64) {
	ch.warmup, ch.measure = warmup, measure
	ch.targetsSet = true
	for _, s := range ch.slots {
		s.core.SetRetireTargets(warmup, measure)
	}
}

// Cycle returns chip time: completed allocation epochs times ChipEpoch.
func (ch *Chip) Cycle() int64 { return ch.cycle }

// Config returns the chip's configuration.
func (ch *Chip) Config() config.Config { return ch.cfg }

// Done reports whether every software thread has closed its cumulative
// measurement window.
func (ch *Chip) Done() bool {
	for _, s := range ch.slots {
		for li, tid := range ch.assign[s.id] {
			if ch.threads[tid].done {
				continue
			}
			if !s.core.ThreadProgress(li).TargetReached {
				return false
			}
		}
	}
	return true
}

// Step runs one allocation epoch: every core advances ChipEpoch cycles with
// zero cross-core interaction. In the default parallel mode each core steps
// on its own goroutine (no per-cycle barrier — the join is the epoch
// boundary itself); under Config.ChipLockstep the cores step sequentially
// in core order. The two modes are bit-identical because cores share no
// mutable state within an epoch. A panic inside any core (invariant
// violation, fault injection) is re-raised on the caller's goroutine after
// every core quiesces.
func (ch *Chip) Step() {
	n := ch.cfg.ChipEpoch
	if ch.cfg.ChipLockstep {
		for _, s := range ch.slots {
			s.core.Run(n)
		}
	} else {
		for _, s := range ch.slots {
			s := s
			ch.wg.Add(1)
			go func() {
				defer ch.wg.Done()
				defer func() { s.panicked = recover() }()
				s.core.Run(n)
			}()
		}
		ch.wg.Wait()
		for _, s := range ch.slots {
			if p := s.panicked; p != nil {
				s.panicked = nil
				panic(p)
			}
		}
	}
	ch.cycle += n
}

// Rebalance is the allocation-epoch boundary, run single-threaded over
// quiescent cores: sample chip telemetry, capture per-epoch deltas, let the
// configured policy migrate threads, apply the shared-L2 contention model
// for the next epoch, and trim the replay buffers. Call it after every
// Step.
func (ch *Chip) Rebalance() {
	// Per-epoch deltas come from segment-local counters, captured before
	// any rebuild resets them.
	var l2Delta [maxCores]uint64
	var l2Total uint64
	for i, s := range ch.slots {
		retired := s.core.Stats().Retired
		if ch.obsAcc != nil {
			ch.obsAcc.RecordChipCore(retired-s.epochRetired, int64(len(ch.assign[s.id])))
		}
		s.epochRetired = retired

		l2 := s.core.Hierarchy().L2().Stats
		cur := l2.Hits + l2.Misses
		l2Delta[i] = cur - s.epochL2
		s.epochL2 = cur

		for li, tid := range ch.assign[s.id] {
			acc := ch.threads[tid]
			acc.stream.trim(acc.retired + s.core.ThreadProgress(li).Retired)
		}
		l2Total += l2Delta[i]
	}

	moved := 0
	if ch.cfg.AllocPolicy != config.AllocRoundRobin {
		moved = ch.rebalanceThreads()
	}

	// Shared-L2 contention model: core i's L2 latency for the next epoch is
	// inflated by L2SharePenalty cycles per unit of the other cores'
	// previous-epoch L2 accesses per cycle, saturated at l2ShareCap
	// multiples. With L2SharePenalty == 0 the L2s stay private.
	if ch.cfg.L2SharePenalty > 0 {
		for i, s := range ch.slots {
			others := int64(l2Total - l2Delta[i])
			extra := ch.cfg.L2SharePenalty * others / ch.cfg.ChipEpoch
			if max := l2ShareCap * ch.cfg.L2SharePenalty; extra > max {
				extra = max
			}
			s.l2Extra = extra
			s.core.Hierarchy().SetL2ExtraLatency(extra)
		}
	}

	ch.foldAssignment()
	if ch.obsAcc != nil {
		ch.obsAcc.RecordChipEpoch(int64(moved))
	}
}

// foldAssignment hashes the current thread-to-core assignment into the
// allocation-decision log.
func (ch *Chip) foldAssignment() {
	h := ch.allocHash
	for k, tids := range ch.assign {
		h = (h ^ uint64(k+1)) * fnvPrime
		for _, tid := range tids {
			h = (h ^ uint64(tid+2)) * fnvPrime
		}
	}
	ch.allocHash = h
}

// AllocFingerprint returns the hash of every allocation decision taken so
// far (the per-epoch thread-to-core assignments). Determinism tests compare
// it across GOMAXPROCS settings and step modes.
func (ch *Chip) AllocFingerprint() string { return fmt.Sprintf("%016x", ch.allocHash) }

// RunToCompletion drives Step/Rebalance epochs until every thread closes
// its window or maxCycles of chip time elapse (0 = unbounded); it returns
// the chip cycles executed and whether the chip finished. The supervised
// runner drives the same loop itself for per-epoch context checks.
func (ch *Chip) RunToCompletion(maxCycles int64) (cycles int64, finished bool) {
	start := ch.cycle
	for !ch.Done() {
		if maxCycles > 0 && ch.cycle-start >= maxCycles {
			return ch.cycle - start, false
		}
		ch.Step()
		ch.Rebalance()
	}
	return ch.cycle - start, true
}
