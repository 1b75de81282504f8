package core

import (
	"fmt"

	"shelfsim/internal/config"
	"shelfsim/internal/isa"
	"shelfsim/internal/mem"
	"shelfsim/internal/obs"
	"shelfsim/internal/storesets"
)

// Core is one SMT out-of-order core with an optional shelf. Construct with
// New, attach one instruction stream per thread, then drive with Step or
// Run.
type Core struct {
	cfg     config.Config
	hier    *mem.Hierarchy
	ssets   *storesets.Predictor
	threads []*thread
	steerer Steerer

	cycle int64
	gseq  int64

	// Unified physical register file: per-thread architectural blocks
	// followed by the shared rename pool. Tags index the same space,
	// extended by the shelf's extension tag space (§III-C).
	numPRIs  int
	extBase  int
	extSize  int
	freePRI  []int32
	freeExt  []int32
	tagReady []bool

	// iq is the shared unordered issue queue.
	iq []*uop

	// Incremental wakeup–select engine (sched.go): wakeup holds the
	// per-tag consumer lists built at dispatch; readyq is the ready set —
	// dispatched IQ ops whose every wakeup edge has resolved. cycleWakeups
	// counts consumer wakeups this cycle for telemetry.
	wakeup       [][]*uop
	readyq       []*uop
	cycleWakeups int64
	// selectq is issue's per-cycle scratch: the ready set sorted by age.
	selectq []*uop

	// Allocation-free hot path: uopFree recycles micro-ops at retire and
	// squash so steady state allocates nothing per instruction;
	// squashScratch collects the dead ops of one squash before recycling.
	uopFree       []*uop
	squashScratch []*uop
	// invSeen is the invariant checker's reusable mark vector.
	invSeen []bool

	// orderedIQRemoval restores the legacy order-preserving IQ deletion;
	// it exists only for the swap-removal equivalence test.
	orderedIQRemoval bool
	// classifyCrossCheck runs the full classification walk beside the
	// O(1) early exit on every issue and fails on disagreement; it exists
	// only for the classify equivalence test.
	classifyCrossCheck bool

	// events is the completion calendar: pending writebacks bucketed by
	// cycle, gseq-ordered within a cycle (events.go).
	events calendar

	// Functional units: pipelined classes are per-cycle counters;
	// unpipelined divides reserve a unit until done.
	fuBusyUntil struct {
		intMD []int64
		fp    []int64
	}

	// fetchRR breaks ICOUNT ties round-robin.
	fetchRR int
	// rotate is cycle mod the thread count, kept by compare-and-wrap in
	// Step: dispatch and retire rotate their thread priority from it.
	rotate int

	// faultInjected disarms Config.InjectFaultCycle after its corruption
	// has been applied (the injection is armed, not exact-cycle: some fault
	// kinds must wait for their target structure to be populated).
	faultInjected bool

	// tele is this core's telemetry collector (nil unless
	// Config.Telemetry); sink receives the event stream: the collector,
	// the SetObserver function, or both (nil when neither). observer is
	// the SetObserver function alone: retire and store-commit events go
	// only to it, since the collector counts neither. All are owned by the
	// instance, so concurrently simulated cores share no mutable
	// instrumentation state.
	tele     *obs.Collector
	sink     func(obs.Event)
	observer func(obs.Event)

	stats Stats
}

// New builds a core for cfg with one workload stream per thread. It
// returns an error if the configuration is invalid or the stream count
// does not match the thread count.
func New(cfg config.Config, streams []isa.Stream) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(streams) != cfg.Threads {
		return nil, fmt.Errorf("core: %d streams for %d threads", len(streams), cfg.Threads)
	}
	c := &Core{
		cfg:   cfg,
		hier:  mem.NewHierarchy(cfg.Mem),
		ssets: storesets.New(cfg.StoreSets),
	}
	if cfg.Telemetry {
		c.tele = obs.New()
		c.sink = c.tele.Observe
	}
	c.numPRIs = cfg.Threads*isa.NumArchRegs + cfg.PRF
	c.extBase = c.numPRIs
	c.extSize = 2*cfg.Shelf + cfg.ROB
	if cfg.Shelf == 0 {
		c.extSize = 0
	}
	c.tagReady = make([]bool, c.numPRIs+c.extSize)

	// The rename pool is free; architectural mappings are ready.
	c.freePRI = make([]int32, 0, cfg.PRF)
	for i := cfg.Threads * isa.NumArchRegs; i < c.numPRIs; i++ {
		c.freePRI = append(c.freePRI, int32(i))
	}
	for i := 0; i < cfg.Threads*isa.NumArchRegs; i++ {
		c.tagReady[i] = true
	}
	c.freeExt = make([]int32, 0, c.extSize)
	for i := 0; i < c.extSize; i++ {
		c.freeExt = append(c.freeExt, int32(c.extBase+i))
	}

	c.iq = make([]*uop, 0, cfg.IQ)
	c.wakeup = make([][]*uop, c.numPRIs+c.extSize)
	c.readyq = make([]*uop, 0, cfg.IQ)
	c.selectq = make([]*uop, 0, cfg.IQ)
	c.invSeen = make([]bool, c.numPRIs+c.extSize)
	windowCap := cfg.ROB + cfg.Shelf + cfg.Threads*cfg.FetchWidth*cfg.FetchToDispatch
	c.uopFree = make([]*uop, 0, windowCap)
	c.squashScratch = make([]*uop, 0, windowCap)
	c.fuBusyUntil.intMD = make([]int64, cfg.IntMultDiv)
	c.fuBusyUntil.fp = make([]int64, cfg.FPUnits)

	c.threads = make([]*thread, cfg.Threads)
	for i, s := range streams {
		if s == nil {
			return nil, fmt.Errorf("core: nil stream for thread %d", i)
		}
		c.threads[i] = newThread(c, i, s)
	}

	switch cfg.Steer {
	case config.SteerAllIQ:
		c.steerer = allIQSteerer{}
	case config.SteerAllShelf:
		c.steerer = allShelfSteerer{}
	case config.SteerOracle:
		c.steerer = &oracleSteerer{}
	case config.SteerPractical:
		c.steerer = &practicalSteerer{}
	case config.SteerCoarse:
		c.steerer = &coarseSteerer{}
	default:
		return nil, fmt.Errorf("core: unknown steering policy %v", cfg.Steer)
	}
	if cfg.Shelf == 0 && cfg.Steer != config.SteerAllIQ {
		return nil, fmt.Errorf("core: steering policy %v requires a shelf", cfg.Steer)
	}
	return c, nil
}

// Config returns the core's configuration.
func (c *Core) Config() config.Config { return c.cfg }

// Hierarchy exposes the memory system for statistics.
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Cycle returns the current cycle number.
func (c *Core) Cycle() int64 { return c.cycle }

// FaultInjected reports whether the armed fault (Config.InjectFaultCycle)
// has fired. Fault-injection harnesses use it to distinguish "fault never
// found its target structure" from "fault injected and silently survived".
func (c *Core) FaultInjected() bool { return c.faultInjected }

// SetRetireTargets gives each thread a warmup of `warmup` retired
// instructions (caches and predictors train, statistics discarded)
// followed by a measurement window of `measure` retired instructions.
// Threads keep running — and contending for shared resources — until
// every thread closes its window, so per-thread CPIs reflect realistic
// multiprogrammed interference throughout.
func (c *Core) SetRetireTargets(warmup, measure int64) {
	for _, t := range c.threads {
		t.warmupTarget = warmup
		t.retireTarget = measure
		if warmup > 0 {
			t.warmed = false
		}
	}
}

// Done reports whether every thread has finished: reached its retire
// target if one is set, or retired its entire (bounded) stream otherwise.
func (c *Core) Done() bool {
	for _, t := range c.threads {
		if t.retireTarget > 0 {
			if !t.targetReached {
				return false
			}
		} else if !t.done {
			return false
		}
	}
	return true
}

// Step advances the core by one cycle. Stage order is back to front so
// that in-flight state moves at most one stage per cycle: writeback events
// first, then retire, issue, dispatch, fetch.
func (c *Core) Step() {
	c.cycle++
	now := c.cycle
	if c.rotate++; c.rotate == len(c.threads) {
		c.rotate = 0
	}

	// Per-cycle state ticks.
	for _, t := range c.threads {
		if t.iqSSR > 0 {
			t.iqSSR--
		}
		if t.shelfSSR > 0 {
			t.shelfSSR--
		}
		t.itHeadSnapshot = t.itHead
	}
	c.steerer.Tick(c)

	c.drainEvents(now)
	c.retire(now)
	issuesBefore, dispatchBefore := c.stats.Issues, c.stats.Renames
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)

	c.accumulateOccupancy(now, c.stats.Renames-dispatchBefore, c.stats.Issues-issuesBefore)

	// Fault injection (robustness test hook): deliberately corrupt the
	// structure named by Config.InjectFaultKind so supervised runners can
	// prove they convert invariant trips into structured failures. The
	// injection is armed from the configured cycle and fires at the first
	// cycle its target structure is populated (a store-queue drop needs SQ
	// entries, a wakeup-tag corruption needs registered waiters), then
	// disarms. The corruption is always checked immediately, even when
	// per-cycle checking is off.
	if c.cfg.InjectFaultCycle > 0 && !c.faultInjected && now >= c.cfg.InjectFaultCycle {
		if c.tryInjectFault() {
			c.faultInjected = true
			c.checkInvariants()
		}
	}
	if c.cfg.CheckInvariants {
		c.checkInvariants()
	}
}

// Run steps the core until every thread finishes or maxCycles elapses; it
// returns the number of cycles executed and whether all threads finished.
func (c *Core) Run(maxCycles int64) (cycles int64, finished bool) {
	start := c.cycle
	for !c.Done() {
		if maxCycles > 0 && c.cycle-start >= maxCycles {
			return c.cycle - start, false
		}
		c.Step()
	}
	for _, t := range c.threads {
		if !t.frozenSeries {
			t.series.Finish()
			t.frozenSeries = true
		}
	}
	return c.cycle - start, true
}

// Obs returns the core's telemetry collector, or nil when Config.Telemetry
// is off. The collector is owned by this core; read or merge it only after
// the run completes.
func (c *Core) Obs() *obs.Collector { return c.tele }

// accumulateOccupancy integrates structure occupancies for the energy
// model and for reporting, and emits the cycle's EvCycle with the slots
// dispatch and issue used.
func (c *Core) accumulateOccupancy(now, dispatched, issued int64) {
	s := &c.stats
	s.Cycles++
	iq := int64(len(c.iq))
	prf := int64(c.cfg.PRF - len(c.freePRI))
	s.IQOccupancy += iq
	s.PRFOccupancy += prf
	s.ExtTagOccupancy += int64(c.extSize - len(c.freeExt))
	var rob, lq, sq, shelf int64
	for _, t := range c.threads {
		rob += t.robAllocPos - t.robHead
		lq += int64(len(t.lq))
		sq += int64(len(t.sq))
		if t.shelfCap > 0 {
			shelf += t.shelfTail - t.shelfHead
		}
	}
	s.ROBOccupancy += rob
	s.LQOccupancy += lq
	s.SQOccupancy += sq
	s.ShelfOccupancy += shelf
	if c.sink != nil {
		c.sink(obs.Event{Kind: obs.EvCycle, Cycle: now, ProviderSeq: -1, Sample: obs.CycleSample{
			DispatchSlots: int(dispatched), IssueSlots: int(issued),
			IQ: iq, ROB: rob, Shelf: shelf, LQ: lq, SQ: sq, PRF: prf,
			Ready: int64(len(c.readyq)), Wakeups: c.cycleWakeups,
		}})
	}
	c.cycleWakeups = 0
}

// newUop takes a micro-op from the freelist, allocating only when the
// freelist is empty (cold start or window growth after deep squashes).
func (c *Core) newUop() *uop {
	if n := len(c.uopFree); n > 0 {
		u := c.uopFree[n-1]
		c.uopFree[n-1] = nil
		c.uopFree = c.uopFree[:n-1]
		return u
	}
	u := &uop{} //shelfvet:ignore hotalloc — freelist growth path, amortized to zero in steady state
	resetUop(u)
	return u
}

// freeUop recycles a micro-op that no live pipeline structure references.
func (c *Core) freeUop(u *uop) {
	resetUop(u)
	c.uopFree = append(c.uopFree, u)
}

// allocPRI pops a free physical register, or returns -1.
func (c *Core) allocPRI() int32 {
	if len(c.freePRI) == 0 {
		return -1
	}
	p := c.freePRI[len(c.freePRI)-1]
	c.freePRI = c.freePRI[:len(c.freePRI)-1]
	return p
}

// freePhysReg returns a rename-pool register to the free list;
// architectural-block registers are never freed.
func (c *Core) freePhysReg(p int32) {
	if int(p) >= c.cfg.Threads*isa.NumArchRegs && int(p) < c.numPRIs {
		c.freePRI = append(c.freePRI, p)
	}
}

// allocExtTag pops a free extension tag, or returns -1.
func (c *Core) allocExtTag() int32 {
	if len(c.freeExt) == 0 {
		return -1
	}
	t := c.freeExt[len(c.freeExt)-1]
	c.freeExt = c.freeExt[:len(c.freeExt)-1]
	return t
}

// freeExtTag returns an extension tag to its free list.
func (c *Core) freeExtTag(t int32) {
	if int(t) >= c.extBase {
		c.freeExt = append(c.freeExt, t)
	}
}

// isExtTag reports whether tag lies in the extension space.
func (c *Core) isExtTag(t int32) bool { return int(t) >= c.extBase }
