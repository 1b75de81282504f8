package core

import (
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
)

// dispatch renames and inserts up to Width micro-ops into the window each
// cycle. Threads are visited round-robin; a thread stalls (head-of-line
// within the thread only) when its head cannot allocate the structures its
// steering decision requires.
func (c *Core) dispatch(now int64) {
	budget := c.cfg.Width
	n := len(c.threads)
	j := c.rotate // rotate priority so no thread starves
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[j]
		if j++; j == n {
			j = 0
		}
		for budget > 0 {
			if !c.dispatchOne(t, now) {
				break
			}
			budget--
		}
	}
}

// dispatchOne tries to dispatch thread t's oldest front-end op; it returns
// false if there is nothing ready or the op stalls on a structural hazard.
func (c *Core) dispatchOne(t *thread, now int64) bool {
	if t.fetchQLen() == 0 || t.fetchQFront().frontReadyCycle > now {
		return false
	}
	u := t.fetchQFront()

	// Memory barriers synchronize the pipeline at dispatch (§III-D).
	if u.inst.Op == isa.OpBarrier && len(t.inflight) > 0 {
		return false
	}

	// Steering decision (made once, at decode, consumed here).
	if !u.steerDecided {
		u.toShelf = t.shelfCap > 0 && c.steerer.Steer(c, t, u, now)
		u.steerDecided = true
		if c.sink != nil {
			c.emit(c.sink, obs.EvSteer, u, now)
		}
	}

	// Structural checks for the chosen side.
	if u.toShelf {
		if !t.shelfEntryFree() || !t.shelfIndexFree() {
			c.stats.ShelfDispatchStalls++
			return false
		}
		if u.hasDest() && len(c.freeExt) == 0 {
			c.stats.ExtTagStalls++
			return false
		}
	} else {
		if !t.robFree() || len(c.iq) >= c.cfg.IQ {
			c.stats.IQDispatchStalls++
			return false
		}
		if u.inst.Op == isa.OpLoad && len(t.lq) >= t.lqCap {
			c.stats.LSQDispatchStalls++
			return false
		}
		if u.inst.Op == isa.OpStore && len(t.sq) >= t.sqCap {
			c.stats.LSQDispatchStalls++
			return false
		}
		if u.hasDest() && len(c.freePRI) == 0 {
			c.stats.PRFDispatchStalls++
			return false
		}
	}

	// Commit to dispatch: pop the front end and rename.
	t.popFetchQ()
	c.rename(t, u)
	c.insertWindow(t, u, now)
	return true
}

// rename translates source operands through the RAT and allocates the
// destination mapping: IQ instructions draw a fresh physical register
// (tag == PRI); shelf instructions reuse the existing physical register
// and draw a tag from the extension space (§III-C, Fig. 8).
func (c *Core) rename(t *thread, u *uop) {
	c.stats.Renames++
	for i, src := range u.inst.Srcs {
		if src == isa.RegInvalid || src == isa.RegZero {
			u.srcTags[i] = invalidTag
			continue
		}
		u.srcTags[i] = t.ratTag[src]
	}
	if !u.hasDest() {
		return
	}
	d := u.archDest
	u.prevPRI = t.ratPRI[d]
	u.prevTag = t.ratTag[d]
	if u.toShelf {
		u.destPRI = u.prevPRI // overwrite in place (§III-C)
		u.destTag = c.allocExtTag()
		if u.destTag < 0 {
			c.fail(t.id, "ext-freelist", "extension free list empty after structural check")
		}
		t.ratTag[d] = u.destTag
	} else {
		p := c.allocPRI()
		if p < 0 {
			c.fail(t.id, "pri-freelist", "physical free list empty after structural check")
		}
		u.destPRI = p
		u.destTag = p
		t.ratPRI[d] = p
		t.ratTag[d] = p
	}
	c.tagReady[u.destTag] = false
}

// insertWindow places a renamed op into the ROB+IQ(+LSQ) or the shelf.
func (c *Core) insertWindow(t *thread, u *uop, now int64) {
	u.state = stateDispatched
	u.dispatchCycle = now
	u.gseq = c.gseq
	c.gseq++

	if u.toShelf {
		u.shelfIdx = t.shelfTail
		t.shelf[t.shelfSlot(u.shelfIdx)] = u
		t.shelfTail++
		u.lastIQROBPos = t.lastIQPos
		t.steerShelf++
		c.stats.ShelfWrites++
	} else {
		u.robPos = t.robAllocPos
		t.rob[t.robSlot(u.robPos)] = u
		t.itIssued[t.robSlot(u.robPos)] = false
		t.robAllocPos++
		t.lastIQPos = u.robPos
		// Record the shelf squash index: the index the next shelf
		// instruction will receive (§III-B).
		u.shelfSquashIdx = t.shelfTail
		u.iqIdx = int32(len(c.iq))
		c.iq = append(c.iq, u)
		c.stats.IQWrites++
		c.stats.ROBWrites++
		switch u.inst.Op {
		case isa.OpLoad:
			t.lq = append(t.lq, u)
			c.stats.LSQWrites++
		case isa.OpStore:
			t.sq = append(t.sq, u)
			c.stats.LSQWrites++
		}
		t.steerIQ++
	}
	t.pushInflight(u)

	// Speculation sources (§III-B): branches may mispredict; stores may
	// trigger memory-order violations when their addresses resolve.
	switch u.inst.Op {
	case isa.OpBranch, isa.OpStore:
		u.speculative = true
	}

	// Store-sets bookkeeping (§III-D). Stores within a set must issue in
	// order (Chrysos & Emer), so a store records its set predecessor just
	// as a load records its predicted producer.
	switch u.inst.Op {
	case isa.OpStore:
		u.depStoreSeq = c.ssets.StoreDispatched(c.taggedPC(u), u.gseq)
	case isa.OpLoad:
		u.depStoreSeq = c.ssets.LoadDependsOn(c.taggedPC(u))
	}

	// Wakeup registration (sched.go) — after every dependence edge,
	// including the store-sets predecessor above, is known.
	if !u.toShelf {
		c.registerSched(t, u)
	}
}
