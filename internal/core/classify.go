package core

// classifyAtIssue applies the paper's §II definition at the moment u
// issues: u is *in-sequence* iff a simple in-order core would have issued
// it at the same point, i.e.
//
//	(a) every elder instruction of the thread has already issued
//	    (data/structural ordering: the INO core issues in program order),
//	(b) no elder instruction's speculation resolves after u's earliest
//	    writeback (the INO core's result shift register would stall u), and
//	(c) the previous writer of u's destination register has written back
//	    (the INO scoreboard's WAW stall).
//
// Otherwise u is reordered: it benefited from the OOO machinery.
//
// Condition (a) is decided in O(1) from the issue-tracking head and the
// shelf FIFO (elderUnissued); only ops that pass it walk the in-flight
// list for (b) and (c).
func (c *Core) classifyAtIssue(t *thread, u *uop, now int64) {
	u.inSeq = !t.elderUnissued(u) && classifyWalk(t, u, now)
	if c.classifyCrossCheck {
		c.crossCheckClassify(t, u, now)
	}
}

// crossCheckClassify fails unless elderUnissued agrees with a scan of u's
// elders for an unissued one and the classification with the full walk.
func (c *Core) crossCheckClassify(t *thread, u *uop, now int64) {
	unissued := false
	for _, v := range t.inflight {
		if v.seq >= u.seq {
			break
		}
		if !v.issued() {
			unissued = true
			break
		}
	}
	if exit := t.elderUnissued(u); exit != unissued {
		c.fail(t.id, "classify-exit", "op %v: early exit says unissued elder=%v, scan %v", u, exit, unissued)
	}
	if walk := classifyWalk(t, u, now); walk != u.inSeq {
		c.fail(t.id, "classify-exit", "op %v: early exit says inSeq=%v, full walk %v", u, u.inSeq, walk)
	}
}

// elderUnissued reports whether u, about to issue, has an unissued elder in
// its thread — exactly when condition (a) fails. itHead is the oldest
// unissued IQ position and the shelf head the oldest unissued shelf op.
// An IQ op has an unissued IQ elder iff itHead lies below its ROB position,
// and an unissued shelf elder iff the shelf head is older. A shelf op is
// the shelf head, so its shelf elders have issued; its IQ elders occupy
// positions up to lastIQROBPos.
func (t *thread) elderUnissued(u *uop) bool {
	if u.toShelf {
		return t.itHead <= u.lastIQROBPos
	}
	if t.itHead < u.robPos {
		return true
	}
	head := t.shelfOldest()
	return head != nil && head.seq < u.seq
}

// classifyWalk evaluates (a)–(c) by walking u's elders in the in-flight
// list.
func classifyWalk(t *thread, u *uop, now int64) bool {
	wb := now + minExecDelay(u)
	for _, v := range t.inflight {
		if v.seq >= u.seq {
			break
		}
		if !v.issued() {
			return false
		}
		if v.speculative && v.resolveCycle > wb {
			return false
		}
		if u.hasDest() && v.hasDest() && v.archDest == u.archDest && !v.completed() {
			return false
		}
	}
	return true
}
