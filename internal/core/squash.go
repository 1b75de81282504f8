package core

import (
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
)

// squash flushes every instruction of thread t with sequence number >=
// fromSeq for the given cause: front-end entries are dropped, window
// entries are removed with rename state rolled back youngest-first,
// in-flight executions are marked for writeback filtering, and fetch
// rewinds to fromSeq.
func (c *Core) squash(t *thread, fromSeq int64, cause obs.SquashCause, now int64) {
	t.squashes++
	c.stats.Squashes++
	if c.sink != nil {
		c.sink(obs.Event{Kind: obs.EvSquash, Tid: t.id, Seq: fromSeq, Cycle: now, Cause: cause, ProviderSeq: -1})
	}

	// Front end: drop fetched-but-undispatched ops (fetchQ is in order).
	cut := t.fetchQN
	for i := 0; i < t.fetchQN; i++ {
		if t.fetchQAt(i).seq >= fromSeq {
			cut = i
			break
		}
	}
	for i := cut; i < t.fetchQN; i++ {
		u := t.fetchQAt(i)
		u.state = stateSquashed
		c.squashScratch = append(c.squashScratch, u)
	}
	t.truncFetchQ(cut)

	// Window: walk inflight youngest-first.
	minROBPos := int64(-1)
	minShelfIdx := int64(-1)
	firstKept := len(t.inflight)
	for i := len(t.inflight) - 1; i >= 0; i-- {
		u := t.inflight[i]
		if u.seq < fromSeq {
			break
		}
		firstKept = i
		c.squashOne(t, u, &minROBPos, &minShelfIdx)
	}
	t.inflight = t.inflight[:firstKept]

	// ROB rollback: squashed IQ entries form a suffix of positions.
	if minROBPos >= 0 {
		t.robAllocPos = minROBPos
		if t.itHead > t.robAllocPos {
			t.itHead = t.robAllocPos
		}
		if t.itHeadSnapshot > t.robAllocPos {
			t.itHeadSnapshot = t.robAllocPos
		}
	}
	// Shelf rollback: the tail returns to the eldest squashed index; if
	// issued-in-flight shelf ops were squashed, the FIFO is now empty.
	if minShelfIdx >= 0 {
		t.shelfTail = minShelfIdx
		if t.shelfHead > t.shelfTail {
			t.shelfHead = t.shelfTail
		}
	}
	// lastIQPos must not point at a rolled-back position.
	if t.lastIQPos >= t.robAllocPos {
		t.lastIQPos = t.robAllocPos - 1
	}

	// LQ/SQ rollback (suffixes in program order).
	t.lq = truncateQueue(t.lq, fromSeq)
	t.sq = truncateQueue(t.sq, fromSeq)

	// Fetch rewind.
	t.fetchSeq = fromSeq
	if t.nextFetchCycle <= now {
		t.nextFetchCycle = now + 1
	}
	if t.fetchBlockedOn != nil && t.fetchBlockedOn.seq >= fromSeq {
		t.fetchBlockedOn = nil
	}

	c.steerer.OnSquash(c, t, fromSeq)

	// Recycle the squash's dead ops only now: the steerer's rollback above
	// (PLT columns, tracked loads) was their last outside reference. Ops
	// squashed in flight (squashPending) recycle when their writeback
	// drains instead.
	for i, u := range c.squashScratch {
		c.squashScratch[i] = nil
		c.freeUop(u)
	}
	c.squashScratch = c.squashScratch[:0]
}

// squashOne removes one window entry, rolling back its rename mappings.
func (c *Core) squashOne(t *thread, u *uop, minROBPos, minShelfIdx *int64) {
	// Rename rollback (youngest-first restores the elder mapping).
	if u.hasDest() {
		t.ratPRI[u.archDest] = u.prevPRI
		t.ratTag[u.archDest] = u.prevTag
		if u.toShelf {
			c.freeExtTag(u.destTag)
		} else {
			c.freePhysReg(u.destPRI)
		}
	}
	if u.inst.Op == isa.OpStore {
		c.ssets.SquashStore(c.taggedPC(u), u.gseq)
	}

	switch u.state {
	case stateDispatched:
		// Still in the scheduling window: remove from IQ or shelf FIFO.
		if u.toShelf {
			if *minShelfIdx < 0 || u.shelfIdx < *minShelfIdx {
				*minShelfIdx = u.shelfIdx
			}
		} else {
			c.removeFromIQ(u)
			c.unregisterSched(u)
			if *minROBPos < 0 || u.robPos < *minROBPos {
				*minROBPos = u.robPos
			}
		}
		u.state = stateSquashed
		c.squashScratch = append(c.squashScratch, u)
	case stateIssued:
		// In flight: filter at writeback. The shelf index may not be
		// reallocated until the op drains (§III-B).
		u.squashPending = true
		if u.toShelf {
			t.shelfIndexBusy[t.spanSlot(u.shelfIdx)] = true
			if *minShelfIdx < 0 || u.shelfIdx < *minShelfIdx {
				*minShelfIdx = u.shelfIdx
			}
		} else if *minROBPos < 0 || u.robPos < *minROBPos {
			*minROBPos = u.robPos
		}
	case stateCompleted:
		// Completed but unretired IQ op: discard (its ROB slot rolls
		// back). A shelf op writes back only once non-speculative
		// (§III-B): every elder speculation source resolves one cycle
		// after issue and no op completes sooner, so a completed shelf op
		// is never squashed (once it retires at writeback, the
		// squash-state arm below catches the same fault). Squashes are
		// rare, so the check is always on.
		if u.toShelf {
			c.fail(t.id, "shelf-squash-completed", "squash reached completed shelf op %v", u)
		}
		u.state = stateSquashed
		c.squashScratch = append(c.squashScratch, u)
		if !u.toShelf && (*minROBPos < 0 || u.robPos < *minROBPos) {
			*minROBPos = u.robPos
		}
	case stateRetired, stateSquashed, stateFetched:
		// Retired ops are not in inflight with seq >= fromSeq (a retired
		// op is non-speculative, hence elder than any squash source);
		// fetched ops are not in inflight at all.
		c.fail(t.id, "squash-state", "squash reached op %v in state %v", u, u.state)
	}
}

// removeFromIQ deletes u from the shared issue queue by its cached slot
// index, swapping the last entry into the hole: selection compares gseq,
// not slice order, so ordering is not load-bearing. The order-preserving
// shift survives behind the orderedIQRemoval test hook, which the
// swap-equivalence test uses to prove results identical.
func (c *Core) removeFromIQ(u *uop) {
	i := int(u.iqIdx)
	if i < 0 || i >= len(c.iq) || c.iq[i] != u {
		c.fail(u.tid, "iq-missing", "dispatched IQ op %v missing from issue queue", u)
	}
	last := len(c.iq) - 1
	if c.orderedIQRemoval {
		copy(c.iq[i:], c.iq[i+1:])
		c.iq[last] = nil
		c.iq = c.iq[:last]
		for j := i; j < last; j++ {
			c.iq[j].iqIdx = int32(j)
		}
	} else {
		c.iq[i] = c.iq[last]
		c.iq[i].iqIdx = int32(i)
		c.iq[last] = nil
		c.iq = c.iq[:last]
	}
	u.iqIdx = -1
}

// truncateQueue drops the suffix of q with seq >= fromSeq, clearing the
// dropped slots so recycled uops are not retained past their lifetime.
func truncateQueue(q []*uop, fromSeq int64) []*uop {
	cut := len(q)
	for i, u := range q {
		if u.seq >= fromSeq {
			cut = i
			break
		}
	}
	for i := cut; i < len(q); i++ {
		q[i] = nil
	}
	return q[:cut]
}
