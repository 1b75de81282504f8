package core

import (
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
)

// retire commits up to Width IQ instructions per cycle from the per-thread
// ROB heads, in program order per thread, coordinated with out-of-order
// shelf retirement through the shelf retire pointer (§III-B). It then
// prunes each thread's in-flight list front, feeding the program-order
// series tracker and retirement counters.
func (c *Core) retire(now int64) {
	budget := c.cfg.Width
	n := len(c.threads)
	j := c.rotate + 1 // one ahead of dispatch's rotation
	if j == n {
		j = 0
	}
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[j]
		if j++; j == n {
			j = 0
		}
		for budget > 0 {
			if !c.retireOne(t, now) {
				break
			}
			budget--
		}
	}
	for _, t := range c.threads {
		c.pruneRetired(t, now)
	}
}

// retireOne tries to retire thread t's ROB head.
func (c *Core) retireOne(t *thread, now int64) bool {
	u := t.robOldest()
	if u == nil || !u.completed() {
		return false
	}
	// ROB instructions may not retire before older shelf instructions:
	// wait until the shelf retire pointer reaches the recorded index.
	if t.shelfCap > 0 && t.shelfRetire < u.shelfSquashIdx && !c.cfg.AblateNoRetireCoord {
		c.stats.ROBShelfWaits++
		return false
	}

	u.state = stateRetired
	t.robHead++
	c.stats.ROBReads++

	// Free the previous mapping (§III-C): the physical register returns
	// to the physical free list; a differing tag came from the extension
	// space.
	if u.hasDest() {
		c.freePhysReg(u.prevPRI)
		if u.prevTag != u.prevPRI {
			c.freeExtTag(u.prevTag)
		}
	}

	switch u.inst.Op {
	case isa.OpStore:
		// Drain the store through the coalescing store buffer.
		if len(t.sq) == 0 || t.sq[0] != u {
			c.fail(t.id, "sq-head", "retiring store %v is not the SQ head", u)
		}
		t.sq = popQueueFront(t.sq)
		c.hier.StoreCommit(u.inst.Addr, now)
		t.commitStore(u.inst.Addr>>3, now)
		if c.observer != nil {
			c.emit(c.observer, obs.EvStoreCommit, u, now)
		}
	case isa.OpLoad:
		if len(t.lq) == 0 || t.lq[0] != u {
			c.fail(t.id, "lq-head", "retiring load %v is not the LQ head", u)
		}
		t.lq = popQueueFront(t.lq)
	}
	return true
}

// pruneRetired removes fully retired instructions from the front of the
// in-flight list in program order, updating retirement statistics, the
// series tracker and the replay buffer.
func (c *Core) pruneRetired(t *thread, now int64) {
	i := 0
	for i < len(t.inflight) && t.inflight[i].state == stateRetired {
		u := t.inflight[i]
		t.retired++
		c.stats.Retired++
		if c.observer != nil {
			c.emit(c.observer, obs.EvRetire, u, now)
		}
		if u.inSeq {
			t.retiredInSeq++
		}
		if !t.frozenSeries && t.warmed {
			t.series.Observe(u.inSeq)
		}
		if t.retireTarget > 0 {
			if !t.warmed && t.retired == t.warmupTarget {
				// Warmup done: open the measurement window.
				t.warmed = true
				t.warmStartCycle = now
				t.warmInSeq = t.retiredInSeq
				t.warmShelf = t.retiredShelf
			}
			if t.retired == t.warmupTarget+t.retireTarget {
				// End of the measurement window: freeze the
				// classification counters and the series tracker.
				t.targetReached = true
				t.finishCycle = now
				t.frozenInSeq = t.retiredInSeq - t.warmInSeq
				t.frozenShelf = t.retiredShelf - t.warmShelf
				t.series.Finish()
				t.frozenSeries = true
			}
		}
		i++
	}
	if i > 0 {
		// Recycle the pruned ops — nothing references a fully retired
		// instruction (its event fired, its LSQ entries popped, its PLT
		// column cleared at completion) — and slice the window forward in
		// O(1); pushInflight slides it back when the backing array's tail
		// is reached.
		for j := 0; j < i; j++ {
			c.freeUop(t.inflight[j])
			t.inflight[j] = nil
		}
		t.inflight = t.inflight[i:]
		t.releaseReplay(t.inflight0Seq())
	}
	if !t.done && t.streamDone && len(t.inflight) == 0 && t.fetchQLen() == 0 {
		if _, ok := t.peekInst(t.fetchSeq); !ok {
			t.done = true
			t.finishCycle = now
		}
	}
}

// inflight0Seq returns the sequence number of the oldest in-flight
// instruction, or the next fetch point if the window is empty.
func (t *thread) inflight0Seq() int64 {
	if len(t.inflight) > 0 {
		return t.inflight[0].seq
	}
	if t.fetchQLen() > 0 && t.fetchQFront().seq < t.fetchSeq {
		return t.fetchQFront().seq
	}
	return t.fetchSeq
}

// popQueueFront removes q's head in place (copy-down keeps the backing
// array stable; the partitions are at most a handful of entries).
func popQueueFront(q []*uop) []*uop {
	n := copy(q, q[1:])
	q[n] = nil
	return q[:n]
}
