package core

import (
	"math/bits"

	"shelfsim/internal/branch"
	"shelfsim/internal/isa"
	"shelfsim/internal/metrics"
	"shelfsim/internal/steer"
)

// replayEntry is one fetched architectural instruction kept for possible
// refetch after a squash.
type replayEntry struct {
	inst isa.Inst
	seq  int64
}

// storeBufEntry is one committed-but-undrained store buffer slot.
type storeBufEntry struct {
	line    uint64
	drainAt int64
}

// storeBufDrainCycles is how long a committed store lingers in the
// coalescing buffer before draining to the cache.
const storeBufDrainCycles = 8

// StoreBufDrainCycles exports the store-buffer drain latency for the
// litmus checker's coalescing axiom (internal/litmus).
const StoreBufDrainCycles = storeBufDrainCycles

// commitStore records a drained store in the coalescing buffer.
func (t *thread) commitStore(line uint64, now int64) {
	t.storeBuf[t.storeBufPos] = storeBufEntry{line: line, drainAt: now + storeBufDrainCycles}
	t.storeBufPos = (t.storeBufPos + 1) % len(t.storeBuf)
}

// storeBufHas reports whether line is still undrained in the buffer.
func (t *thread) storeBufHas(line uint64, now int64) bool {
	for _, e := range t.storeBuf {
		if e.line == line && e.drainAt > now {
			return true
		}
	}
	return false
}

// thread holds all per-thread (partitioned) state: front end, ROB/shelf
// partitions, LQ/SQ partitions, rename tables, and steering state.
type thread struct {
	id     int
	stream isa.Stream
	// streamDone is set once the workload generator is exhausted.
	streamDone bool
	// warmupTarget is the number of retired instructions before the
	// measurement window opens (caches and predictors stay warm, all
	// statistics restart); retireTarget is the retirement count at which
	// the measurement window ends. The thread keeps running (and
	// contending for resources) until every thread reaches its target.
	warmupTarget int64
	retireTarget int64
	// warmed marks that the measurement window opened; warmStartCycle,
	// warmInSeq and warmShelf snapshot the window's start.
	warmed         bool
	warmStartCycle int64
	warmInSeq      int64
	warmShelf      int64
	// targetReached marks that the measurement window ended.
	targetReached bool
	// frozenInSeq/frozenShelf snapshot classification counters over the
	// measurement window so late execution does not pollute it.
	frozenInSeq  int64
	frozenShelf  int64
	frozenSeries bool
	// done is set when the thread has retired its entire stream (bounded
	// streams only).
	done bool
	// finishCycle records when the thread reached its retire target (or
	// retired its last instruction for bounded streams).
	finishCycle int64

	pred *branch.Predictor

	// Replay buffer: fetched but unretired instructions, so squashes can
	// refetch. A power-of-two ring: entry replayBase lives at replayHead,
	// replayLen entries follow. Pointerless, so advancing the head is the
	// whole release path (no re-slicing, no reallocation churn).
	replayBuf  []replayEntry
	replayHead int
	replayLen  int
	replayBase int64
	// fetchSeq is the next sequence number the front end will fetch
	// (rewound by squashes).
	fetchSeq int64
	// pulled is the next sequence number to pull from the stream
	// (monotone; == replayBase + len(replay)).
	pulled int64

	// nextFetchCycle gates fetch (I-cache miss or post-squash redirect).
	nextFetchCycle int64
	// fetchBlockedOn is a mispredicted branch we have fetched; fetch
	// stalls until it resolves (trace-driven wrong-path model).
	fetchBlockedOn *uop

	// fetchQ is the front-end pipeline: fetched micro-ops waiting to
	// dispatch, each dispatchable at its frontReadyCycle. The fetch loop
	// bounds occupancy to the logical capacity fetchQCap, so the ring
	// never grows; its storage is rounded up to a power of two and indexed
	// with fetchQMask: fetchQN entries starting at fetchQHead.
	fetchQ     []*uop
	fetchQHead int
	fetchQN    int
	fetchQCap  int
	fetchQMask int

	// inflight lists dispatched, not-yet-fully-retired micro-ops in
	// program order (both IQ and shelf). It is a window into inflightBuf:
	// pruning retired ops re-slices the front off in O(1), and pushInflight
	// slides the window back to offset zero only when the tail of the
	// backing array is reached — one amortized pointer move per op instead
	// of a bulk copy per retire cycle.
	inflight    []*uop
	inflightBuf []*uop

	// Rename state: architectural register -> (physical register, tag).
	ratPRI []int32
	ratTag []int32

	// ROB partition. Positions are monotone allocation indices. robCap is
	// the logical capacity; the ring's storage is rounded up to a power of
	// two and indexed pos & robMask (robSlot). Live positions never span
	// more than robCap, so they occupy distinct slots.
	robCap      int
	robMask     int64
	rob         []*uop
	robAllocPos int64
	robHead     int64
	// lastIQPos is the ROB position of the thread's most recently
	// dispatched IQ instruction (-1 before any).
	lastIQPos int64

	// Issue-tracking bitvector (§III-A): itIssued[robSlot(pos)] for
	// positions in [itHead, robAllocPos). itHead is the oldest unissued IQ
	// position. itHeadSnapshot is itHead as of the start of the current
	// cycle; the conservative microarchitecture uses the snapshot.
	itIssued       []bool
	itHead         int64
	itHeadSnapshot int64

	// Shelf partition (§III-A/B). shelfCap is a power of two (config
	// validation), so the entries ring is indexed idx & shelfMask and the
	// doubled index space idx & spanMask (span 2*shelfCap, never rounded:
	// shelfIndexFree relies on aliasing at exactly tail-span). Occupied
	// entries are [shelfHead, shelfTail).
	releaseAtWB bool
	shelfCap    int
	shelfMask   int64
	spanMask    int64
	shelf       []*uop
	shelfTail   int64
	shelfHead   int64
	// shelfRetire is the oldest unretired shelf index; shelfRetired rings
	// over the doubled index space.
	shelfRetire  int64
	shelfRetired []bool
	// shelfIndexBusy marks doubled-space indices whose first assignee was
	// squashed in flight and has not yet drained from the execution
	// pipeline; such an index may not be reallocated (§III-B).
	shelfIndexBusy []bool

	// LQ/SQ partitions: IQ loads/stores only, in program order. Elder/
	// younger relations within the queues are by sequence number (the
	// hardware's tail-pointer recording is equivalent since the queues
	// are program-ordered per thread).
	lqCap int
	lq    []*uop
	sqCap int
	sq    []*uop

	// storeBuf models the coalescing store buffer (§III-D, relaxed
	// model): committed stores linger for storeBufDrainCycles before
	// draining to the cache; a shelf store matching an undrained entry
	// coalesces into it. Ring of the most recent commits.
	storeBuf    [8]storeBufEntry
	storeBufPos int

	// Practical steering state (§IV-B).
	rct *steer.RCT
	plt *steer.PLT
	// pltLoads maps PLT columns to their in-flight tracked loads.
	pltLoads []*uop
	// earliestIssue is the shelf's earliest-allowable issue cycle
	// tracker, stored as an absolute cycle. While any tracked load is late
	// it freezes (is pushed back one cycle per cycle) along with the rest
	// of the dependence tree (§IV-B).
	earliestIssue int64

	// Oracle steering state: absolute actual ready cycles per
	// architectural register, corrected as execution proceeds (§IV-A).
	oracleReady []int64
	// oracleLastIssue is the oracle's view of the most recent predicted
	// issue cycle (shelf in-order issue constraint).
	oracleLastIssue int64

	// Coarse-grain (MorphCore-style) steering state: the current
	// wholesale mode and the retirement snapshot at the last switch.
	coarseShelfMode   bool
	coarseLastRetired int64
	coarseLastInSeq   int64

	// series tracks in-sequence/reordered runs in program order (Fig. 2);
	// it is fed at retirement.
	series *metrics.SeriesTracker

	// Stats.
	retired       int64
	retiredInSeq  int64
	retiredShelf  int64
	fetched       int64
	squashes      int64
	memViolations int64
	steerShelf    int64
	steerIQ       int64
	mispredicts   int64
	loadForwards  int64
	storeCoalesce int64
}

// newThread builds per-thread state for core c.
func newThread(c *Core, id int, stream isa.Stream) *thread {
	cfg := c.cfg
	t := &thread{
		id:          id,
		stream:      stream,
		pred:        branch.New(cfg.Branch),
		fetchQCap:   cfg.FetchWidth * cfg.FetchToDispatch,
		ratPRI:      make([]int32, isa.NumArchRegs),
		ratTag:      make([]int32, isa.NumArchRegs),
		robCap:      cfg.ROBPerThread(),
		lastIQPos:   -1,
		warmed:      true, // no warmup unless SetRetireTargets asks
		lqCap:       cfg.LQPerThread(),
		sqCap:       cfg.SQPerThread(),
		series:      metrics.NewSeriesTracker(),
		oracleReady: make([]int64, isa.NumArchRegs),
	}
	t.releaseAtWB = cfg.ShelfReleaseAtWriteback
	robStore := ringSize(t.robCap)
	t.robMask = int64(robStore - 1)
	t.rob = make([]*uop, robStore)
	t.itIssued = make([]bool, robStore)
	t.shelfCap = cfg.ShelfPerThread()
	if t.shelfCap > 0 {
		t.shelfMask = int64(t.shelfCap - 1)
		t.spanMask = int64(2*t.shelfCap - 1)
		t.shelf = make([]*uop, t.shelfCap)
		t.shelfRetired = make([]bool, 2*t.shelfCap)
		t.shelfIndexBusy = make([]bool, 2*t.shelfCap)
	}
	t.lq = make([]*uop, 0, t.lqCap)
	t.sq = make([]*uop, 0, t.sqCap)
	fetchQStore := ringSize(t.fetchQCap)
	t.fetchQMask = fetchQStore - 1
	t.fetchQ = make([]*uop, fetchQStore)
	t.inflightBuf = make([]*uop, t.robCap+2*t.shelfCap+8)
	t.inflight = t.inflightBuf[:0]
	t.replayBuf = make([]replayEntry, 256)
	t.rct = steer.NewRCT(isa.NumArchRegs, cfg.RCTBits)
	t.plt = steer.NewPLT(isa.NumArchRegs, cfg.PLTLoads)
	t.pltLoads = make([]*uop, cfg.PLTLoads)

	// Initial architectural mappings: thread id's reserved block of
	// physical registers, tags equal to PRIs.
	for r := 0; r < isa.NumArchRegs; r++ {
		pri := int32(id*isa.NumArchRegs + r)
		t.ratPRI[r] = pri
		t.ratTag[r] = pri
	}
	return t
}

// ringSize returns the power-of-two storage for a ring of logical capacity
// n >= 1, so ring positions index with a mask instead of a divide.
func ringSize(n int) int { return 1 << bits.Len(uint(n-1)) }

// robSlot maps a ROB position to its ring slot.
func (t *thread) robSlot(pos int64) int64 { return pos & t.robMask }

// shelfSlot maps a shelf index to its FIFO entry.
func (t *thread) shelfSlot(idx int64) int64 { return idx & t.shelfMask }

// spanSlot maps a shelf index to its slot in the doubled index space
// (the shelfRetired and shelfIndexBusy bitvectors).
func (t *thread) spanSlot(idx int64) int64 { return idx & t.spanMask }

// icount is the ICOUNT fetch-policy occupancy metric: instructions in the
// front end plus the window.
func (t *thread) icount() int { return t.fetchQLen() + len(t.inflight) }

// fetchQLen is the number of queued front-end micro-ops.
func (t *thread) fetchQLen() int { return t.fetchQN }

// fetchQFront is the oldest queued micro-op; callers check fetchQLen.
func (t *thread) fetchQFront() *uop { return t.fetchQ[t.fetchQHead] }

// fetchQAt returns the i-th queued micro-op (0 = front).
func (t *thread) fetchQAt(i int) *uop {
	return t.fetchQ[(t.fetchQHead+i)&t.fetchQMask]
}

// popFetchQ removes the queue front.
func (t *thread) popFetchQ() {
	t.fetchQ[t.fetchQHead] = nil
	t.fetchQHead = (t.fetchQHead + 1) & t.fetchQMask
	t.fetchQN--
}

// pushFetchQ appends u at the ring tail; the fetch loop bounds occupancy
// to fetchQCap, so the slot is always free.
func (t *thread) pushFetchQ(u *uop) {
	t.fetchQ[(t.fetchQHead+t.fetchQN)&t.fetchQMask] = u
	t.fetchQN++
}

// truncFetchQ drops all but the first keep entries (squash path; the
// dropped suffix is youngest-last and the caller has already recycled it).
func (t *thread) truncFetchQ(keep int) {
	for i := keep; i < t.fetchQN; i++ {
		t.fetchQ[(t.fetchQHead+i)&t.fetchQMask] = nil
	}
	t.fetchQN = keep
}

// pushInflight appends a dispatched op to the in-flight window, sliding
// the window back to the front of its backing array when the tail is
// reached (amortized O(1) per op).
func (t *thread) pushInflight(u *uop) {
	if len(t.inflight) == cap(t.inflight) {
		buf := t.inflightBuf
		if len(t.inflight) >= len(buf) {
			// The architectural sizing (ROB + doubled shelf index space)
			// should make this unreachable; grow rather than fail.
			buf = make([]*uop, 2*len(buf)) //shelfvet:ignore hotalloc — cold resize of the in-flight backing array
			t.inflightBuf = buf
		}
		n := copy(buf, t.inflight)
		for i := n; i < len(buf); i++ {
			buf[i] = nil
		}
		t.inflight = buf[:n]
	}
	t.inflight = append(t.inflight, u)
}

// robFree reports free ROB partition entries.
func (t *thread) robFree() bool { return t.robAllocPos-t.robHead < int64(t.robCap) }

// shelfEntryFree reports whether a shelf entry (FIFO slot) is available.
// Entries normally recycle at issue (§III-B); the release-at-writeback
// ablation holds them until retirement.
func (t *thread) shelfEntryFree() bool {
	if t.shelfCap == 0 {
		return false
	}
	if t.releaseAtWB {
		return t.shelfTail-t.shelfRetire < int64(t.shelfCap)
	}
	return t.shelfTail-t.shelfHead < int64(t.shelfCap)
}

// shelfIndexFree reports whether the next shelf virtual index may be
// allocated: the doubled index space must not wrap onto indices still
// referenced by the shelf retire pointer or the ROB reservation pointer,
// and the index's previous in-flight assignee must have drained (§III-B).
func (t *thread) shelfIndexFree() bool {
	if t.shelfCap == 0 {
		return false
	}
	reserve := t.shelfRetire
	if head := t.robOldest(); head != nil && head.shelfSquashIdx < reserve {
		reserve = head.shelfSquashIdx
	}
	if t.shelfTail-reserve >= int64(2*t.shelfCap) {
		return false
	}
	return !t.shelfIndexBusy[t.spanSlot(t.shelfTail)]
}

// robOldest returns the oldest unretired IQ instruction, or nil.
func (t *thread) robOldest() *uop {
	if t.robHead == t.robAllocPos {
		return nil
	}
	return t.rob[t.robSlot(t.robHead)]
}

// shelfOldest returns the shelf head (oldest unissued shelf instruction),
// or nil if the shelf FIFO is empty.
func (t *thread) shelfOldest() *uop {
	if t.shelfCap == 0 || t.shelfHead == t.shelfTail {
		return nil
	}
	return t.shelf[t.shelfSlot(t.shelfHead)]
}

// advanceITHead moves the issue-tracking head past issued/squashed
// positions.
func (t *thread) advanceITHead() {
	for t.itHead < t.robAllocPos && t.itIssued[t.robSlot(t.itHead)] {
		t.itHead++
	}
}

// advanceShelfRetire moves the shelf retire pointer over retired indices,
// clearing bits behind it for the next lap of the doubled index space.
func (t *thread) advanceShelfRetire() {
	if t.shelfCap == 0 {
		return
	}
	for t.shelfRetire < t.shelfTail && t.shelfRetired[t.spanSlot(t.shelfRetire)] {
		t.shelfRetired[t.spanSlot(t.shelfRetire)] = false
		t.shelfRetire++
	}
}
