package core

import (
	"fmt"

	"shelfsim/internal/config"
	"shelfsim/internal/isa"
)

// InvariantError reports a violated microarchitectural invariant. The
// pipeline panics with a value of this type (instead of a bare string) so
// a supervising runner can recover it and attribute the failure to a
// configuration, cycle and thread; the per-cycle checker enabled by
// Config.CheckInvariants produces the same type.
type InvariantError struct {
	// Check is a short stable identifier of the violated invariant
	// (e.g. "rob-order", "iq-missing", "freelist-conservation").
	Check string
	// Cycle is the simulation cycle at which the violation was detected
	// (-1 when unknown, e.g. outside the stepped pipeline).
	Cycle int64
	// Thread is the offending hardware thread, or -1 for core-wide state.
	Thread int
	// Detail describes the violation.
	Detail string
}

// Error implements the error interface.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("core: invariant %s violated (cycle %d, thread %d): %s",
		e.Check, e.Cycle, e.Thread, e.Detail)
}

// fail panics with a typed InvariantError carrying core context. It is the
// replacement for the pipeline's bare panic calls.
func (c *Core) fail(thread int, check, format string, args ...any) {
	panic(&InvariantError{
		Check:  check,
		Cycle:  c.cycle,
		Thread: thread,
		Detail: fmt.Sprintf(format, args...),
	})
}

// checkInvariants runs the per-cycle checker and converts a violation into
// an InvariantError panic, routing it through the same supervised path as
// the pipeline's own assertions.
func (c *Core) checkInvariants() {
	if err := c.CheckInvariants(); err != nil {
		panic(err)
	}
}

// tryInjectFault deliberately corrupts the structure selected by
// Config.InjectFaultKind and reports whether the corruption was applied.
// It is the fault-injection hook behind Config.InjectFaultCycle, used to
// prove that a supervised run converts every class of silent state damage
// into a typed invariant trip instead of a wrong-value pass. Kinds whose
// target structure is empty at the attempt cycle (no SQ entries, no
// registered wakeup waiters) report false so the armed injection in Step
// retries on a later cycle.
func (c *Core) tryInjectFault() bool {
	switch c.cfg.InjectFaultKind {
	case config.FaultStoreDrop:
		for _, t := range c.threads {
			if len(t.sq) > 0 {
				t.sq = popQueueFront(t.sq)
				return true
			}
		}
		return false
	case config.FaultWakeupTag:
		for tag, waiters := range c.wakeup {
			if len(waiters) > 0 && !c.tagReady[tag] {
				c.tagReady[tag] = true
				return true
			}
		}
		return false
	default: // config.FaultWindow
		t := c.threads[0]
		t.robHead = t.robAllocPos + 1
		return true
	}
}

// CheckInvariants validates the window's structural invariants and returns
// a typed *InvariantError describing the first violation found, or nil.
// With Config.CheckInvariants set it runs automatically after every cycle;
// tests and external tooling may also call it directly.
func (c *Core) CheckInvariants() error {
	if err := c.checkShared(); err != nil {
		return err
	}
	if err := c.checkSched(); err != nil {
		return err
	}
	for _, t := range c.threads {
		if err := c.checkThread(t); err != nil {
			return err
		}
	}
	return nil
}

// inv builds (but does not panic with) an InvariantError at the current
// cycle.
func (c *Core) inv(thread int, check, format string, args ...any) *InvariantError {
	return &InvariantError{
		Check:  check,
		Cycle:  c.cycle,
		Thread: thread,
		Detail: fmt.Sprintf(format, args...),
	}
}

// checkShared validates the shared structures: the issue queue and the
// free lists (conservation: correct ranges, no duplicates, and no register
// that is simultaneously free and architecturally mapped).
func (c *Core) checkShared() *InvariantError {
	if len(c.iq) > c.cfg.IQ {
		return c.inv(-1, "iq-capacity", "IQ over capacity: %d > %d", len(c.iq), c.cfg.IQ)
	}
	for _, u := range c.iq {
		if u.state != stateDispatched {
			return c.inv(u.tid, "iq-state", "IQ entry %v in state %v", u, u.state)
		}
		if u.toShelf {
			return c.inv(u.tid, "iq-state", "shelf op %v found in IQ", u)
		}
	}

	// Free-list conservation.
	if len(c.freePRI) > c.cfg.PRF {
		return c.inv(-1, "freelist-conservation",
			"physical free list overfull: %d > %d", len(c.freePRI), c.cfg.PRF)
	}
	if len(c.freeExt) > c.extSize {
		return c.inv(-1, "freelist-conservation",
			"extension free list overfull: %d > %d", len(c.freeExt), c.extSize)
	}
	seen := c.invSeen
	for i := range seen {
		seen[i] = false
	}
	for _, p := range c.freePRI {
		if int(p) < c.cfg.Threads*isa.NumArchRegs || int(p) >= c.numPRIs {
			return c.inv(-1, "freelist-conservation", "free PRI %d outside rename pool", p)
		}
		if seen[p] {
			return c.inv(-1, "freelist-conservation", "PRI %d on free list twice", p)
		}
		seen[p] = true
	}
	for _, tag := range c.freeExt {
		if int(tag) < c.extBase || int(tag) >= c.numPRIs+c.extSize {
			return c.inv(-1, "freelist-conservation", "free extension tag %d out of range", tag)
		}
		if seen[tag] {
			return c.inv(-1, "freelist-conservation", "extension tag %d on free list twice", tag)
		}
		seen[tag] = true
	}
	for _, t := range c.threads {
		for r := 0; r < isa.NumArchRegs; r++ {
			if t.ratPRI[r] < 0 || int(t.ratPRI[r]) >= c.numPRIs {
				return c.inv(t.id, "rat-range", "RAT PRI out of range for r%d: %d", r, t.ratPRI[r])
			}
			if t.ratTag[r] < 0 || int(t.ratTag[r]) >= c.numPRIs+c.extSize {
				return c.inv(t.id, "rat-range", "RAT tag out of range for r%d: %d", r, t.ratTag[r])
			}
			if seen[t.ratPRI[r]] {
				return c.inv(t.id, "freelist-conservation",
					"PRI %d mapped by r%d while on the free list", t.ratPRI[r], r)
			}
			if c.isExtTag(t.ratTag[r]) && seen[t.ratTag[r]] {
				return c.inv(t.id, "freelist-conservation",
					"extension tag %d mapped by r%d while on the free list", t.ratTag[r], r)
			}
		}
	}
	return nil
}

// checkSched audits the incremental wakeup–select engine against the IQ:
// slot indices match, ready-set entries are edge-free dispatched IQ ops,
// wakeup-list entries are dispatched consumers of an unready tag, and
// every IQ entry's waitCount equals its registered edges — exactly zero
// when (and only when) the op sits in the ready set.
func (c *Core) checkSched() *InvariantError {
	for _, u := range c.iq {
		u.auditEdges = 0
	}
	for i, u := range c.iq {
		if int(u.iqIdx) != i {
			return c.inv(u.tid, "sched-index", "IQ slot %d holds op %v with iqIdx %d", i, u, u.iqIdx)
		}
	}
	if len(c.readyq) > len(c.iq) {
		return c.inv(-1, "sched-ready", "ready set %d larger than IQ %d", len(c.readyq), len(c.iq))
	}
	for i, u := range c.readyq {
		if int(u.readyIdx) != i {
			return c.inv(u.tid, "sched-ready", "ready slot %d holds op %v with readyIdx %d", i, u, u.readyIdx)
		}
		if u.state != stateDispatched || u.toShelf {
			return c.inv(u.tid, "sched-ready", "ready set holds %v (state %v)", u, u.state)
		}
		if u.waitCount != 0 {
			return c.inv(u.tid, "sched-ready", "ready op %v still has %d wakeup edges", u, u.waitCount)
		}
		if u.iqIdx < 0 || int(u.iqIdx) >= len(c.iq) || c.iq[u.iqIdx] != u {
			return c.inv(u.tid, "sched-ready", "ready op %v not in the IQ", u)
		}
	}
	for tag := range c.wakeup {
		waiters := c.wakeup[tag]
		if len(waiters) == 0 {
			continue
		}
		if c.tagReady[tag] {
			return c.inv(-1, "sched-wakeup", "ready tag %d has %d registered waiters", tag, len(waiters))
		}
		for _, w := range waiters {
			if w == nil || w.state != stateDispatched || w.toShelf {
				return c.inv(-1, "sched-wakeup", "tag %d wakeup list holds %v", tag, w)
			}
			sources := false
			for _, src := range w.srcTags {
				if int(src) == tag {
					sources = true
					break
				}
			}
			if !sources {
				return c.inv(w.tid, "sched-wakeup", "op %v registered on tag %d it does not source", w, tag)
			}
			w.auditEdges++
		}
	}
	for _, u := range c.iq {
		if u.depStore != nil {
			if u.depStore.completed() {
				return c.inv(u.tid, "sched-wakeup", "op %v holds a dep edge to completed store t%d#%d",
					u, u.depStore.tid, u.depStore.seq)
			}
			found := false
			for _, w := range u.depStore.depWaiters {
				if w == u {
					found = true
					break
				}
			}
			if !found {
				return c.inv(u.tid, "sched-wakeup", "op %v missing from its dep store's waiter list", u)
			}
			u.auditEdges++
		}
		if u.auditEdges != u.waitCount {
			return c.inv(u.tid, "sched-waitcount", "op %v has %d registered edges but waitCount %d",
				u, u.auditEdges, u.waitCount)
		}
		if (u.waitCount == 0) != (u.readyIdx >= 0) {
			return c.inv(u.tid, "sched-waitcount", "op %v waitCount %d inconsistent with readyIdx %d",
				u, u.waitCount, u.readyIdx)
		}
	}
	return nil
}

// checkThread validates one thread's partitioned structures.
func (c *Core) checkThread(t *thread) *InvariantError {
	// ROB pointer sanity and capacity.
	if t.robHead > t.robAllocPos {
		return c.inv(t.id, "rob-order", "ROB head %d past alloc %d", t.robHead, t.robAllocPos)
	}
	if t.robAllocPos-t.robHead > int64(t.robCap) {
		return c.inv(t.id, "rob-capacity", "ROB occupancy %d over capacity %d",
			t.robAllocPos-t.robHead, t.robCap)
	}

	// Issue-tracking head within [robHead, robAllocPos]; bitvector
	// consistent with the dispatched run: a clear bit names an occupied,
	// unissued IQ entry, a set bit an issued (or elder, already tracked)
	// one (§III-A).
	if t.itHead < t.robHead || t.itHead > t.robAllocPos {
		return c.inv(t.id, "it-head", "issue-tracking head %d outside ROB [%d,%d]",
			t.itHead, t.robHead, t.robAllocPos)
	}
	var prevROBSeq int64 = -1
	for pos := t.robHead; pos < t.robAllocPos; pos++ {
		u := t.rob[t.robSlot(pos)]
		if u == nil || u.robPos != pos || u.tid != t.id || u.toShelf {
			return c.inv(t.id, "rob-order", "ROB slot %d holds %v", pos, u)
		}
		if u.seq <= prevROBSeq {
			return c.inv(t.id, "rob-order", "ROB not in program order at pos %d seq %d", pos, u.seq)
		}
		prevROBSeq = u.seq
		if pos >= t.itHead {
			issued := t.itIssued[t.robSlot(pos)]
			if issued && !u.issued() && u.state != stateSquashed {
				return c.inv(t.id, "it-bitvector",
					"issue bit set for pos %d but op is %v", pos, u.state)
			}
			if !issued && u.state != stateDispatched {
				return c.inv(t.id, "it-bitvector",
					"issue bit clear for pos %d but op is %v", pos, u.state)
			}
		}
	}

	if t.shelfCap > 0 {
		if err := c.checkShelf(t); err != nil {
			return err
		}
	}

	// LQ/SQ capacity and age ordering (program-ordered partitions).
	if len(t.lq) > t.lqCap || len(t.sq) > t.sqCap {
		return c.inv(t.id, "lsq-capacity", "LSQ over capacity: lq=%d/%d sq=%d/%d",
			len(t.lq), t.lqCap, len(t.sq), t.sqCap)
	}
	for _, part := range [...]struct {
		name string
		q    []*uop
	}{{"LQ", t.lq}, {"SQ", t.sq}} {
		name, q := part.name, part.q
		var prev int64 = -1
		for _, u := range q {
			if u.seq <= prev {
				return c.inv(t.id, "lsq-order", "%s not age-ordered at seq %d", name, u.seq)
			}
			prev = u.seq
			if u.tid != t.id || u.toShelf {
				return c.inv(t.id, "lsq-order", "%s holds foreign or shelf op %v", name, u)
			}
			if u.state == stateSquashed || u.state == stateRetired {
				return c.inv(t.id, "lsq-order", "%s holds %v op %v", name, u.state, u)
			}
			if name == "LQ" && u.inst.Op != isa.OpLoad || name == "SQ" && u.inst.Op != isa.OpStore {
				return c.inv(t.id, "lsq-order", "%s holds non-matching op %v", name, u)
			}
		}
	}

	// In-flight list strictly in program order with live states only; and
	// LQ/SQ membership: every live (unretired, unsquashed) in-flight IQ
	// load/store must occupy its program-order slot in the matching queue,
	// and the queues must hold nothing else. Both sides are program-ordered,
	// so a single merge walk detects dropped entries (e.g. a corrupted
	// store-buffer slot) the cycle they disappear, instead of waiting for
	// the op to reach the retire head.
	var prevSeq int64 = -1
	li, si := 0, 0
	for _, u := range t.inflight {
		if u.seq <= prevSeq {
			return c.inv(t.id, "inflight-order", "inflight not in program order at seq %d", u.seq)
		}
		prevSeq = u.seq
		if u.state == stateFetched || u.state == stateSquashed {
			return c.inv(t.id, "inflight-order", "inflight op %v in state %v", u, u.state)
		}
		if u.toShelf || u.state == stateRetired || u.squashPending {
			continue
		}
		switch u.inst.Op {
		case isa.OpLoad:
			if li >= len(t.lq) || t.lq[li] != u {
				return c.inv(t.id, "lsq-membership", "in-flight load seq %d missing from LQ slot %d", u.seq, li)
			}
			li++
		case isa.OpStore:
			if si >= len(t.sq) || t.sq[si] != u {
				return c.inv(t.id, "lsq-membership", "in-flight store seq %d missing from SQ slot %d", u.seq, si)
			}
			si++
		}
	}
	if li != len(t.lq) {
		return c.inv(t.id, "lsq-membership", "LQ holds %d entries beyond the in-flight window", len(t.lq)-li)
	}
	if si != len(t.sq) {
		return c.inv(t.id, "lsq-membership", "SQ holds %d entries beyond the in-flight window", len(t.sq)-si)
	}
	return nil
}

// checkShelf validates the shelf FIFO and its doubled index space
// (§III-A/B).
func (c *Core) checkShelf(t *thread) *InvariantError {
	span := int64(2 * t.shelfCap)
	if t.shelfHead > t.shelfTail {
		return c.inv(t.id, "shelf-order", "shelf head %d past tail %d", t.shelfHead, t.shelfTail)
	}
	if t.shelfTail-t.shelfHead > int64(t.shelfCap) {
		return c.inv(t.id, "shelf-capacity", "shelf occupancy %d over capacity %d",
			t.shelfTail-t.shelfHead, t.shelfCap)
	}
	if t.shelfRetire > t.shelfTail {
		return c.inv(t.id, "shelf-retire", "shelf retire pointer %d past tail %d",
			t.shelfRetire, t.shelfTail)
	}
	// Doubled-index-space disjointness at retire: the live window
	// [shelfRetire, shelfTail) must fit within one lap of the doubled
	// space, so every retire/busy bit maps to at most one virtual index.
	if t.shelfTail-t.shelfRetire > span {
		return c.inv(t.id, "shelf-index-disjoint",
			"live shelf index window [%d,%d) exceeds doubled space %d",
			t.shelfRetire, t.shelfTail, span)
	}
	for b := int64(0); b < span; b++ {
		// The virtual index in [shelfRetire, shelfTail) mapping to raw
		// slot b, if any.
		idx := t.shelfRetire + ((b-t.shelfRetire%span)+span)%span
		live := idx < t.shelfTail
		if !live && t.shelfRetired[b] {
			return c.inv(t.id, "shelf-index-disjoint",
				"retired bit set at slot %d outside live window [%d,%d)",
				b, t.shelfRetire, t.shelfTail)
		}
		if t.shelfRetired[b] && t.shelfIndexBusy[b] {
			return c.inv(t.id, "shelf-index-disjoint",
				"slot %d both retired and busy (squash drain pending)", b)
		}
	}
	// FIFO entries [shelfHead, shelfTail) occupied, program-ordered,
	// awaiting issue.
	var prev int64 = -1
	for idx := t.shelfHead; idx < t.shelfTail; idx++ {
		u := t.shelf[t.shelfSlot(idx)]
		if u == nil || !u.toShelf || u.tid != t.id || u.shelfIdx != idx {
			return c.inv(t.id, "shelf-order", "shelf slot %d holds %v", idx, u)
		}
		if u.state != stateDispatched {
			return c.inv(t.id, "shelf-order", "unissued shelf entry %v in state %v", u, u.state)
		}
		if u.seq <= prev {
			return c.inv(t.id, "shelf-order", "shelf not in program order at idx %d seq %d",
				idx, u.seq)
		}
		prev = u.seq
	}
	return nil
}
