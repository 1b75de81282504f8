package core

import (
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
)

// calendarSlots is the completion calendar's ring size: one slot per
// cycle, a power of two covering the default hierarchy's DRAM round trip
// (1 + L1D + L2 + memory latency = 235 cycles). Completions further out
// (MSHR-queued misses, slower memory configurations) wait on the overflow
// chain until they come within range.
const calendarSlots = 256

// calendar holds pending completions (writebacks) bucketed by cycle. Every
// completion is scheduled at least one cycle ahead and drainEvents runs
// every cycle, so slot cycle&mask drains exactly on its cycle. Each slot
// chains its ops through uop.evNext in gseq order, which is the (cycle,
// gseq) order the pipeline depends on: elder instructions' effects — in
// particular squashes — precede younger completions in the same cycle.
// The chains are intrusive, so steady state allocates nothing.
type calendar struct {
	slots [calendarSlots]calSlot
	// overflow chains, unordered, the completions beyond the ring when
	// they were scheduled; overflowMin is their earliest cycle.
	overflow    *uop
	overflowMin int64
	// pending counts scheduled, undrained completions.
	pending int
}

// calSlot is one cycle's completions, gseq-ascending from head to tail.
type calSlot struct {
	head, tail *uop
}

// push schedules u to complete at u.completeCycle, which the caller
// guarantees lies after now, the current (already drained) cycle.
func (q *calendar) push(u *uop, now int64) {
	q.pending++
	if u.completeCycle-now > calendarSlots {
		if q.overflow == nil || u.completeCycle < q.overflowMin {
			q.overflowMin = u.completeCycle
		}
		u.evNext = q.overflow
		q.overflow = u
		return
	}
	q.insert(u)
}

// insert links u into its cycle's slot in gseq order. Ops mostly arrive
// in age order, so the append at the tail is the common case.
func (q *calendar) insert(u *uop) {
	s := &q.slots[u.completeCycle&(calendarSlots-1)]
	switch {
	case s.head == nil:
		u.evNext = nil
		s.head, s.tail = u, u
	case s.tail.gseq < u.gseq:
		u.evNext = nil
		s.tail.evNext = u
		s.tail = u
	case u.gseq < s.head.gseq:
		u.evNext = s.head
		s.head = u
	default:
		prev := s.head
		for prev.evNext.gseq < u.gseq {
			prev = prev.evNext
		}
		u.evNext = prev.evNext
		prev.evNext = u
	}
}

// take detaches and returns the chain of completions due at cycle now, in
// gseq order. Overflow completions that have come within the ring's range
// [now, now+calendarSlots) move into their slots first.
func (q *calendar) take(now int64) *uop {
	if q.overflow != nil && q.overflowMin-now < calendarSlots {
		var keep *uop
		u := q.overflow
		for u != nil {
			next := u.evNext
			if u.completeCycle-now < calendarSlots {
				q.insert(u)
			} else {
				if keep == nil || u.completeCycle < q.overflowMin {
					q.overflowMin = u.completeCycle
				}
				u.evNext = keep
				keep = u
			}
			u = next
		}
		q.overflow = keep
	}
	s := &q.slots[now&(calendarSlots-1)]
	head := s.head
	s.head, s.tail = nil, nil
	return head
}

// drainEvents processes all completions due at now.
func (c *Core) drainEvents(now int64) {
	u := c.events.take(now)
	for u != nil {
		next := u.evNext
		u.evNext = nil
		c.events.pending--
		if u.completeCycle != now {
			c.fail(u.tid, "event-order", "completion of %v due at cycle %d drained at %d", u, u.completeCycle, now)
		}
		c.complete(u, now)
		u = next
	}
}

// complete performs writeback for u at cycle now.
func (c *Core) complete(u *uop, now int64) {
	t := c.threads[u.tid]

	if u.squashPending || u.state == stateSquashed {
		// Squash-index filtering (§III-B): a squashed in-flight op drains
		// without writing back. Its shelf index becomes reusable.
		u.state = stateSquashed
		if u.toShelf && t.shelfCap > 0 {
			t.shelfIndexBusy[t.spanSlot(u.shelfIdx)] = false
		}
		c.stats.SquashedWritebacksFiltered++
		// The drained op's last reference (this event) is gone: recycle.
		// Its wakeup edges died with the squash that marked it pending.
		c.freeUop(u)
		return
	}

	u.state = stateCompleted
	if u.hasDest() {
		c.tagReady[u.destTag] = true
		c.wakeTag(u.destTag)
		c.stats.PRFWrites++
		c.stats.TagBroadcasts++
	}
	c.steerer.OnComplete(c, t, u)

	switch {
	case u.inst.Op.IsMem():
		if u.inst.Op == isa.OpStore {
			c.ssets.StoreCompleted(c.taggedPC(u), u.gseq)
			c.wakeStoreWaiters(u)
			c.checkViolations(t, u, now)
		}
	case u.inst.Op == isa.OpBranch:
		t.pred.Resolve(u.inst.PC, u.inst.Taken, u.inst.Target, u.mispredict, u.predToken)
		if u.mispredict {
			t.mispredicts++
			c.squash(t, u.seq+1, obs.SquashMispredict, now)
			if t.fetchBlockedOn == u {
				// The resolving branch itself was blocking fetch.
				t.fetchBlockedOn = nil
			}
		}
	}

	if u.toShelf {
		c.retireShelfOp(t, u, now)
	}
}

// retireShelfOp commits a shelf instruction at writeback: shelf
// instructions retire out of program order the moment they write back,
// coordinated with the ROB through the shelf retire bitvector (§III-B).
func (c *Core) retireShelfOp(t *thread, u *uop, now int64) {
	u.state = stateRetired
	t.shelfRetired[t.spanSlot(u.shelfIdx)] = true
	t.advanceShelfRetire()

	// Return the replaced extension tag, if any (§III-C): the previous
	// mapping's readers have all issued (in-order shelf issue).
	if u.hasDest() && u.prevTag != u.prevPRI {
		c.freeExtTag(u.prevTag)
	}

	if u.inst.Op == isa.OpStore {
		if u.coalesced {
			t.storeCoalesce++
		} else {
			c.hier.StoreCommit(u.inst.Addr, now)
			t.commitStore(u.inst.Addr>>3, now)
			if c.observer != nil {
				c.emit(c.observer, obs.EvStoreCommit, u, now)
			}
		}
	}
	t.retiredShelf++
}

// checkViolations scans the thread's load queue after store u resolves its
// address: any younger load that already issued and obtained its value
// without seeing this store has violated memory order; the pipeline
// flushes and restarts at the eldest such load (§III-D).
func (c *Core) checkViolations(t *thread, u *uop, now int64) {
	var victim *uop
	for _, v := range t.lq {
		if v.seq <= u.seq || !v.issued() || v.state == stateSquashed || v.squashPending {
			continue
		}
		if v.inst.Addr>>3 != u.inst.Addr>>3 {
			continue
		}
		if v.forwardedFromSeq == u.seq {
			continue // the load correctly forwarded from this store
		}
		// The load's scan happened at issue+1; if the store's address was
		// already visible then, the load saw it (no violation).
		if u.addrReadyCycle <= v.issueCycle+1 {
			continue
		}
		if victim == nil || v.seq < victim.seq {
			victim = v
		}
	}
	if victim == nil {
		return
	}
	t.memViolations++
	c.ssets.Violation(c.taggedPCOf(t, victim), c.taggedPC(u))
	c.squash(t, victim.seq, obs.SquashMemOrder, now)
}

// taggedPC namespaces a PC per thread for the shared store-sets tables,
// since threads run disjoint programs in disjoint address spaces. The
// thread id is folded across the whole word so low-bit table indices
// differ per thread.
func (c *Core) taggedPC(u *uop) uint64 {
	return u.inst.PC ^ (uint64(u.tid)+1)*0x9e3779b97f4a7c15
}

func (c *Core) taggedPCOf(t *thread, u *uop) uint64 {
	return u.inst.PC ^ (uint64(t.id)+1)*0x9e3779b97f4a7c15
}
