package core

import (
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
)

// fuState tracks per-cycle functional unit usage for the pipelined
// classes; unpipelined units (divides) reserve entries of Core.fuBusyUntil.
type fuState struct {
	alu int
	mem int
}

// issue selects up to Width instructions, oldest first across the shared
// IQ and every thread's shelf head, subject to functional unit limits.
// Under the optimistic microarchitecture assumption a shelf head may issue
// in the same cycle as the last elder IQ instruction of its run; the
// selection loop re-evaluates shelf eligibility after every issue, which
// naturally models that bypass. The conservative design checks run
// eligibility against the cycle-start snapshot of the issue-tracking head.
//
// IQ candidates come from the incremental engine's ready set (sched.go).
// Tag readiness is static within a cycle (broadcasts happen in
// drainEvents, renames after issue), so the reallocated-tag revalidation
// runs once, and the surviving ready set — the rescan scheduler's iqReady
// set — is sorted by age into selectq. Each slot's IQ pick is the eldest
// candidate whose functional unit is free; a candidate whose unit is busy
// stays unissuable for the rest of the cycle (units only fill up within
// a cycle), so one cursor walks selectq once per cycle. The shelf heads
// are still evaluated per slot, in thread order and only when elder than
// the IQ pick, because under the optimistic shelf the run condition reads
// the live itHead, which moves as IQ ops issue. Selection is cycle-exact
// with issueRescan.
func (c *Core) issue(now int64) {
	if c.cfg.RescanScheduler {
		c.issueRescan(now)
		return
	}
	for i := 0; i < len(c.readyq); {
		u := c.readyq[i]
		if !c.recheckReady(u) {
			c.demoteStale(u) // swap-removal: re-examine slot i
			continue
		}
		i++
	}
	cands := append(c.selectq[:0], c.readyq...)
	sortByAge(cands)
	next := 0
	var fs fuState
	for issued := 0; issued < c.cfg.Width; issued++ {
		for next < len(cands) && !c.fuFree(cands[next], now, &fs) {
			next++
		}
		var best *uop
		if next < len(cands) {
			best = cands[next]
		}
		iqPick := best
		for _, t := range c.threads {
			u := t.shelfOldest()
			if u == nil || (best != nil && u.gseq >= best.gseq) {
				continue
			}
			if c.shelfEligible(t, u, now) && c.fuFree(u, now, &fs) {
				best = u
			}
		}
		if best == nil {
			break
		}
		if best == iqPick {
			next++
		}
		c.fuReserve(best, now, &fs)
		c.issueOne(best, now)
	}
	clear(cands)
	c.selectq = cands[:0]
}

// sortByAge orders q by gseq. An insertion sort: the ready set is small
// and mostly arrives in age order, so it beats a general sort's dispatch
// through a comparison function.
func sortByAge(q []*uop) {
	for i := 1; i < len(q); i++ {
		u := q[i]
		j := i
		for ; j > 0 && q[j-1].gseq > u.gseq; j-- {
			q[j] = q[j-1]
		}
		q[j] = u
	}
}

// issueRescan is the legacy O(window) select loop, kept verbatim behind
// Config.RescanScheduler for the runner's scheduler differential.
func (c *Core) issueRescan(now int64) {
	issued := 0
	var fs fuState
	for issued < c.cfg.Width {
		var best *uop
		for _, u := range c.iq {
			if (best == nil || u.gseq < best.gseq) && c.iqReady(u, now) && c.fuFree(u, now, &fs) {
				best = u
			}
		}
		for _, t := range c.threads {
			u := t.shelfOldest()
			if u == nil || (best != nil && u.gseq >= best.gseq) {
				continue
			}
			if c.shelfEligible(t, u, now) && c.fuFree(u, now, &fs) {
				best = u
			}
		}
		if best == nil {
			return
		}
		c.fuReserve(best, now, &fs)
		c.issueOne(best, now)
		issued++
	}
}

// iqReady reports whether IQ entry u may issue at cycle now: all source
// tags ready and no store-sets-ordering predecessor outstanding (loads
// wait for their predicted producer store; stores issue in order within
// their store set, per Chrysos & Emer). Only the rescan scheduler calls
// this; the incremental engine resolves both conditions through wakeup
// edges at dispatch.
func (c *Core) iqReady(u *uop, now int64) bool {
	for _, tag := range u.srcTags {
		if tag >= 0 && !c.tagReady[tag] {
			return false
		}
	}
	if u.inst.Op.IsMem() && u.depStoreSeq >= 0 {
		t := c.threads[u.tid]
		for _, v := range t.inflight {
			if v.gseq == u.depStoreSeq {
				if !v.completed() {
					return false
				}
				break
			}
			if v.seq >= u.seq {
				break
			}
		}
	}
	return true
}

// shelfEligible implements the shelf head issue conditions: the run
// condition against the issue-tracking head (§III-A), source readiness and
// the WAW scoreboard stall (§III-C), and, for memory ops, resolved elder
// store addresses (§III-D). §III-B's speculation delay needs no check
// here: every speculation source resolves one cycle after issue and no op
// writes back sooner, so a shelf op never completes before its elders'
// speculation resolves (DESIGN.md §4b.3; the squash walk checks it).
func (c *Core) shelfEligible(t *thread, u *uop, now int64) bool {
	itRef := t.itHeadSnapshot
	if c.cfg.OptimisticShelf {
		itRef = t.itHead
	}
	if itRef <= u.lastIQROBPos && !c.cfg.AblateNoRunCond {
		return false
	}
	for _, tag := range u.srcTags {
		if tag >= 0 && !c.tagReady[tag] {
			return false
		}
	}
	// WAW: the previous writer of the destination register must have
	// written back before we may overwrite its physical register.
	if u.hasDest() && u.prevTag >= 0 && !c.tagReady[u.prevTag] && !c.cfg.AblateNoWAW {
		return false
	}
	// Shelf memory ops require all elder stores' addresses resolved.
	if u.inst.Op.IsMem() && !c.cfg.AblateNoElderStore {
		for _, v := range t.inflight {
			if v.seq >= u.seq {
				break
			}
			if v.inst.Op == isa.OpStore && !v.completed() {
				return false
			}
		}
	}
	return true
}

// minExecDelay is the minimum issue-to-writeback delay of an op: its
// execution latency, or address generation plus the L1 hit latency for
// loads.
func minExecDelay(u *uop) int64 {
	if u.inst.Op == isa.OpLoad {
		return 3 // 1 cycle AGU + 2 cycle L1D minimum
	}
	return int64(u.inst.Op.Latency())
}

// fuFree reports whether a functional unit for u's class is available.
func (c *Core) fuFree(u *uop, now int64, fs *fuState) bool {
	switch u.inst.Op {
	case isa.OpLoad, isa.OpStore:
		return fs.mem < c.cfg.MemPorts
	case isa.OpIntMult, isa.OpIntDiv:
		return freeUnit(c.fuBusyUntil.intMD, now) >= 0
	case isa.OpFPAdd, isa.OpFPMult, isa.OpFPDiv:
		return freeUnit(c.fuBusyUntil.fp, now) >= 0
	default:
		return fs.alu < c.cfg.IntALUs
	}
}

// fuReserve claims the unit fuFree found.
func (c *Core) fuReserve(u *uop, now int64, fs *fuState) {
	lat := int64(u.inst.Op.Latency())
	switch u.inst.Op {
	case isa.OpLoad, isa.OpStore:
		fs.mem++
	case isa.OpIntMult, isa.OpIntDiv:
		i := freeUnit(c.fuBusyUntil.intMD, now)
		if u.inst.Op.Pipelined() {
			c.fuBusyUntil.intMD[i] = now + 1
		} else {
			c.fuBusyUntil.intMD[i] = now + lat
		}
	case isa.OpFPAdd, isa.OpFPMult, isa.OpFPDiv:
		i := freeUnit(c.fuBusyUntil.fp, now)
		if u.inst.Op.Pipelined() {
			c.fuBusyUntil.fp[i] = now + 1
		} else {
			c.fuBusyUntil.fp[i] = now + lat
		}
	default:
		fs.alu++
	}
	c.stats.FUOps[u.inst.Op]++
}

// freeUnit returns the index of a unit free at cycle now, or -1.
func freeUnit(busyUntil []int64, now int64) int {
	for i, b := range busyUntil {
		if b <= now {
			return i
		}
	}
	return -1
}

// issueOne removes u from its scheduling structure, classifies it
// (in-sequence vs reordered, §II), computes its execution timing and
// schedules its completion.
func (c *Core) issueOne(u *uop, now int64) {
	t := c.threads[u.tid]
	c.classifyAtIssue(t, u, now)

	u.state = stateIssued
	u.issueCycle = now
	c.stats.Issues++
	for _, tag := range u.srcTags {
		if tag >= 0 {
			c.stats.PRFReads++
		}
	}

	if u.toShelf {
		if t.shelfOldest() != u {
			c.fail(t.id, "shelf-head", "issuing shelf op %v that is not the FIFO head", u)
		}
		t.shelfHead++ // the entry is reusable immediately (§III-B)
		c.stats.ShelfReads++
		c.stats.ShelfIssues++
	} else {
		c.removeFromIQ(u)
		c.removeFromReady(u)
		t.itIssued[t.robSlot(u.robPos)] = true
		t.advanceITHead()
		c.stats.IQReads++
	}

	lat := int64(u.inst.Op.Latency())
	switch u.inst.Op {
	case isa.OpLoad:
		c.issueLoad(t, u, now)
	case isa.OpStore:
		u.addrReadyCycle = now + 1
		u.completeCycle = now + 1
		u.resolveCycle = now + 1
		if u.toShelf {
			c.coalesceShelfStore(t, u, now)
		}
		c.stats.LSQSearches++ // address CAM check on younger loads
	case isa.OpBranch:
		u.completeCycle = now + lat
		u.resolveCycle = now + lat
	default:
		u.completeCycle = now + lat
	}

	if c.sink != nil {
		c.emit(c.sink, obs.EvIssue, u, now)
	}
	if u.completeCycle <= now {
		c.fail(u.tid, "event-order", "op %v scheduled to complete at cycle %d, not after %d", u, u.completeCycle, now)
	}
	c.events.push(u, now)
}

// issueLoad resolves a load's timing: store-to-load forwarding from the
// youngest matching elder store, a shelf load's forward from a younger
// already-issued matching load (§III-D), or a cache access.
func (c *Core) issueLoad(t *thread, u *uop, now int64) {
	u.addrReadyCycle = now + 1
	line := u.inst.Addr >> 3

	// Youngest elder store with a visible (resolved) matching address.
	var provider *uop
	for _, v := range t.inflight {
		if v.seq >= u.seq {
			break
		}
		if v.inst.Op != isa.OpStore || v.squashPending {
			continue
		}
		if v.addrReadyCycle > 0 && v.addrReadyCycle <= now+1 && v.inst.Addr>>3 == line {
			provider = v
		}
	}
	c.stats.LSQSearches++
	if provider != nil {
		u.forwarded = true
		u.forwardedFromSeq = provider.seq
		u.completeCycle = now + 2
		t.loadForwards++
		c.stats.LoadForwards++
		return
	}

	// Shelf loads scan younger IQ loads that issued early: a matching one
	// supplies the value as soon as it arrives (§III-D).
	if u.toShelf {
		for _, v := range t.lq {
			if v.seq <= u.seq || !v.issued() || v.squashPending {
				continue
			}
			if v.inst.Addr>>3 != line {
				continue
			}
			u.forwarded = true
			u.forwardedFromSeq = v.seq
			u.completeCycle = maxInt64(now+2, v.completeCycle)
			t.loadForwards++
			c.stats.LoadForwards++
			return
		}
	}

	ready, lvl := c.hier.Load(u.inst.Addr, now+1)
	u.completeCycle = maxInt64(ready, now+3)
	c.stats.LoadsByLevel[lvl]++
}

// coalesceShelfStore marks a shelf store that merges into the next older
// matching store's queue entry — or a committed-but-undrained store buffer
// entry — instead of releasing to the cache (§III-D).
func (c *Core) coalesceShelfStore(t *thread, u *uop, now int64) {
	line := u.inst.Addr >> 3
	for _, v := range t.inflight {
		if v.seq >= u.seq {
			break
		}
		if v.inst.Op == isa.OpStore && !v.squashPending && v.inst.Addr>>3 == line {
			u.coalesced = true
			return
		}
	}
	if t.storeBufHas(line, now) {
		u.coalesced = true
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
