package core

import "shelfsim/internal/isa"

// Steerer decides, per instruction at decode, whether to dispatch to the
// shelf or the issue queue (§IV), and receives the hooks needed to track
// and repair its schedule predictions.
type Steerer interface {
	// Steer returns true to send u to the shelf. It is called once per
	// dispatched instruction, in program order per thread.
	Steer(c *Core, t *thread, u *uop, now int64) bool
	// Tick advances per-cycle prediction state (RCT countdowns).
	Tick(c *Core)
	// OnComplete observes an instruction's actual completion.
	OnComplete(c *Core, t *thread, u *uop)
	// OnSquash observes a flush of t's instructions with seq >= fromSeq.
	OnSquash(c *Core, t *thread, fromSeq int64)
}

// allIQSteerer sends everything to the IQ: the pure OOO baseline.
type allIQSteerer struct{}

func (allIQSteerer) Steer(*Core, *thread, *uop, int64) bool { return false }
func (allIQSteerer) Tick(*Core)                             {}
func (allIQSteerer) OnComplete(*Core, *thread, *uop)        {}
func (allIQSteerer) OnSquash(*Core, *thread, int64)         {}

// allShelfSteerer sends everything to the shelf, degenerating to an
// in-order core (used for bounds and ablation).
type allShelfSteerer struct{}

func (allShelfSteerer) Steer(*Core, *thread, *uop, int64) bool { return true }
func (allShelfSteerer) Tick(*Core)                             {}
func (allShelfSteerer) OnComplete(*Core, *thread, *uop)        {}
func (allShelfSteerer) OnSquash(*Core, *thread, int64)         {}

// predLatency is the steering-time latency prediction: the op's execution
// latency, with all loads assumed to hit in the L1 (§IV-B — avoiding any
// prediction table; schedule errors are handled by the recovery mechanism).
func predLatency(u *uop) uint32 {
	if u.inst.Op == isa.OpLoad {
		return 3
	}
	return uint32(u.inst.Op.Latency())
}

// practicalSteerer implements §IV-B: Ready Cycle Table prediction with
// Parent Loads Table recovery and an earliest-issue shelf tracker. The
// paper's earliest-writeback tracker is omitted: speculation resolves one
// cycle after issue and every predicted latency is at least one cycle, so
// it could never exceed the predicted shelf completion (DESIGN.md §4b.2).
// All per-thread state lives on the thread.
type practicalSteerer struct{}

func (practicalSteerer) Steer(c *Core, t *thread, u *uop, now int64) bool {
	rct := t.rct
	c.stats.RCTReads++

	var srcMax uint32
	var srcRow uint32
	for _, src := range u.inst.Srcs {
		if src == isa.RegInvalid || src == isa.RegZero {
			continue
		}
		if r := rct.Ready(int(src), now); r > srcMax {
			srcMax = r
		}
		srcRow |= t.plt.Row(int(src))
	}
	lat := predLatency(u)

	// IQ prediction: issue when operands ready, ignore structural hazards.
	issueIQ := srcMax
	completeIQ := issueIQ + lat

	// Shelf prediction: in-order issue after all previous instructions.
	relEI := clampRel(t.earliestIssue-now, rct.Max())
	issueShelf := srcMax
	if relEI > issueShelf {
		issueShelf = relEI
	}
	completeShelf := issueShelf + lat

	// Ties favor the shelf (§IV-A) — except for the op classes where a
	// mis-shelved instruction has asymmetric cost, which require a strict
	// win: loads (a shelved load serializes behind the FIFO head and
	// forfeits memory-level parallelism), branches (in-order issue delays
	// misprediction discovery), and stores (late store data blocks the
	// FIFO head). A mis-IQ'd instruction merely occupies an IQ entry.
	// (A few extra gates in the comparator; see DESIGN.md's deviations.)
	toShelf := completeShelf <= completeIQ
	switch u.inst.Op {
	case isa.OpLoad, isa.OpBranch, isa.OpStore:
		toShelf = completeShelf < completeIQ
	}
	issueChosen, completeChosen := issueIQ, completeIQ
	if toShelf {
		issueChosen, completeChosen = issueShelf, completeShelf
	}

	// Update predictions.
	if u.hasDest() {
		rct.SetReady(int(u.archDest), now, completeChosen)
		c.stats.RCTWrites++
	}
	if abs := now + int64(issueChosen); abs > t.earliestIssue {
		t.earliestIssue = abs
	}

	// Parent Loads Table maintenance.
	if toShelf {
		// Steering this tree to the shelf means a late parent load will
		// block the FIFO; remember which columns that covers.
		t.plt.MarkShelved(srcRow)
	}
	if u.inst.Op == isa.OpLoad {
		col := t.plt.AssignLoad(u.seq, int(u.archDest))
		u.pltCol = col
		u.predCompleteCycle = now + int64(completeChosen)
		if col >= 0 {
			t.pltLoads[col] = u
			if toShelf {
				t.plt.MarkShelved(1 << uint(col))
			}
		}
	} else if u.hasDest() {
		srcs := make([]int, 0, isa.MaxSrcs)
		for _, src := range u.inst.Srcs {
			if src != isa.RegInvalid && src != isa.RegZero {
				srcs = append(srcs, int(src))
			}
		}
		t.plt.Propagate(int(u.archDest), srcs...)
	}
	return toShelf
}

func (practicalSteerer) Tick(c *Core) {
	for _, t := range c.threads {
		for col, u := range t.pltLoads {
			if u == nil {
				continue
			}
			if !u.completed() && c.cycle >= u.predCompleteCycle {
				t.plt.MarkLate(col)
			}
		}
		// With absolute ready cycles the RCT only needs a tick while the
		// PLT has late columns — on every other cycle Frozen is uniformly
		// false and the unfrozen countdowns advance for free. TickPLT
		// short-circuits that case itself.
		t.rct.TickPLT(c.cycle, t.plt)
		// Freeze the shelf-side tracker while any tracked load is late
		// (§IV-B schedule recovery): the shelf is a FIFO, so once a late
		// load's dependence tree is shelved, everything dispatched to the
		// shelf afterwards issues behind it — the earliest-allowable
		// tracker is pushed back one cycle per cycle, like every frozen
		// RCT countdown, with a one-cycle floor so new independent work
		// sees the IQ as strictly earlier.
		if t.plt.LateShelved() {
			if t.earliestIssue <= c.cycle {
				t.earliestIssue = c.cycle + 1
			} else {
				t.earliestIssue++
			}
		}
	}
}

func (practicalSteerer) OnComplete(c *Core, t *thread, u *uop) {
	if u.pltCol >= 0 {
		t.plt.LoadCompleted(u.pltCol)
		t.pltLoads[u.pltCol] = nil
		u.pltCol = -1
	}
}

func (practicalSteerer) OnSquash(c *Core, t *thread, fromSeq int64) {
	t.plt.SquashYoungerThan(fromSeq)
	for col, u := range t.pltLoads {
		if u != nil && u.seq >= fromSeq {
			t.pltLoads[col] = nil
		}
	}
	t.rct.Reset()
	if t.earliestIssue > c.cycle {
		t.earliestIssue = c.cycle
	}
}

// clampRel converts an absolute-cycle delta into the RCT's saturating
// counter range.
func clampRel(delta int64, max uint32) uint32 {
	if delta <= 0 {
		return 0
	}
	if delta > int64(max) {
		return max
	}
	return uint32(delta)
}

// oracleSteerer implements the greedy oracle of §IV-A: each instruction is
// steered to whichever side issues it earlier (ties favor the shelf),
// using actual operand-arrival knowledge — including a functional cache
// query for load latencies — corrected by the observed schedule.
type oracleSteerer struct{}

func (oracleSteerer) Steer(c *Core, t *thread, u *uop, now int64) bool {
	srcReady := now
	for _, src := range u.inst.Srcs {
		if src == isa.RegInvalid || src == isa.RegZero {
			continue
		}
		if r := t.oracleReady[src]; r > srcReady {
			srcReady = r
		}
	}
	lat := c.oracleLatency(u, srcReady)

	issueIQ := srcReady
	issueShelf := srcReady
	if t.oracleLastIssue > issueShelf {
		issueShelf = t.oracleLastIssue
	}
	// Same strict-win tie-break as the practical mechanism for the op
	// classes with asymmetric mis-steer cost.
	toShelf := issueShelf <= issueIQ
	switch u.inst.Op {
	case isa.OpLoad, isa.OpBranch, isa.OpStore:
		toShelf = issueShelf < issueIQ
	}
	issueChosen := issueIQ
	if toShelf {
		issueChosen = issueShelf
	}
	complete := issueChosen + lat
	if u.hasDest() {
		t.oracleReady[u.archDest] = complete
	}
	if issueChosen > t.oracleLastIssue {
		t.oracleLastIssue = issueChosen
	}
	return toShelf
}

// oracleLatency estimates u's actual execution latency, querying the cache
// hierarchy functionally (without side effects) for loads, exactly as the
// paper's oracle queries the simulator's cache.
func (c *Core) oracleLatency(u *uop, at int64) int64 {
	if u.inst.Op != isa.OpLoad {
		return int64(u.inst.Op.Latency())
	}
	h := c.hier
	cfg := c.cfg.Mem
	switch {
	case h.L1D().Contains(u.inst.Addr, at):
		return 1 + int64(cfg.L1D.LatencyCycles)
	case h.L2().Contains(u.inst.Addr, at):
		return 1 + int64(cfg.L1D.LatencyCycles) + int64(cfg.L2.LatencyCycles)
	default:
		return 1 + int64(cfg.L1D.LatencyCycles) + int64(cfg.L2.LatencyCycles) + int64(cfg.MemLatencyCycles)
	}
}

func (oracleSteerer) Tick(*Core) {}

func (oracleSteerer) OnComplete(c *Core, t *thread, u *uop) {
	// Correct the oracle's schedule with the observed completion (§IV-A).
	if u.hasDest() {
		t.oracleReady[u.archDest] = u.completeCycle
	}
}

func (oracleSteerer) OnSquash(c *Core, t *thread, fromSeq int64) {
	if t.oracleLastIssue > c.cycle {
		t.oracleLastIssue = c.cycle
	}
}

// coarseSteerer is the MorphCore-style comparison point (§VI of the
// paper): each thread runs wholesale in OOO (all-IQ) or in-order
// (all-shelf) mode, re-deciding once per CoarseInterval retired
// instructions from the interval's measured in-sequence fraction. Unlike
// the shelf's per-instruction steering, it cannot mix in-sequence and
// reordered instructions within one window — which is exactly the
// shortcoming the paper's fine-grain design addresses.
type coarseSteerer struct{}

func (coarseSteerer) Steer(c *Core, t *thread, u *uop, now int64) bool {
	if t.retired-t.coarseLastRetired >= c.cfg.CoarseInterval {
		window := t.retired - t.coarseLastRetired
		inSeq := t.retiredInSeq - t.coarseLastInSeq
		// Switch to in-order mode when the majority of the previous
		// interval issued in sequence anyway.
		t.coarseShelfMode = inSeq*2 >= window
		t.coarseLastRetired = t.retired
		t.coarseLastInSeq = t.retiredInSeq
	}
	return t.coarseShelfMode
}

func (coarseSteerer) Tick(*Core)                      {}
func (coarseSteerer) OnComplete(*Core, *thread, *uop) {}
func (coarseSteerer) OnSquash(*Core, *thread, int64)  {}
