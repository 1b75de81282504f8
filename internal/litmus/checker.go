package litmus

import (
	"fmt"

	"shelfsim/internal/core"
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
)

// Violation is one axiom breach the checker observed. Axiom names are
// stable identifiers (tests and the campaign report key on them).
type Violation struct {
	// Axiom names the broken rule (e.g. "fwd-youngest", "squashed-visible").
	Axiom string `json:"axiom"`
	// Tid is the hardware thread whose program order was violated.
	Tid int `json:"tid"`
	// Seq is the offending micro-op's per-thread sequence number.
	Seq int64 `json:"seq"`
	// Cycle is the simulation cycle of the observation.
	Cycle int64 `json:"cycle"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail"`
}

// Error renders the violation as a diagnostic line.
func (v Violation) Error() string {
	return fmt.Sprintf("litmus: axiom %s: tid=%d seq=%d cycle=%d: %s",
		v.Axiom, v.Tid, v.Seq, v.Cycle, v.Detail)
}

// memRec is the checker's model of one memory micro-op incarnation. Uops
// are pooled and recycled by the core, so the checker copies everything it
// needs out of each event; a squashed-and-refetched sequence number gets a
// fresh record and the dead one stays behind for squashed-visibility
// checks.
type memRec struct {
	seq        int64
	line       uint64
	store      bool
	toShelf    bool
	coalesced  bool
	issueCycle int64

	// Load provenance (stores leave these zero).
	source obs.LoadSource
	// providerSeq is the forwarding store for LoadFromStore records.
	providerSeq int64
	// chainStoreSeq resolves a LoadFromLoad chain to its originating
	// store's seq, or -1 when the chain bottoms out in the cache.
	chainStoreSeq int64
	// accessCycle is when the load's value left the memory hierarchy: the
	// load's own issue cycle for cache loads, the provider's issue cycle
	// (snapshotted at forward time) for load-to-load forwards.
	accessCycle int64

	committed   bool
	commitCycle int64
	pruned      bool // left the in-flight window in program order
	dead        bool // squashed
}

// threadModel tracks one hardware thread's memory history. The simulator's
// memory model is per-thread program order over a shared hierarchy, so
// every axiom is local to a thread — cross-thread orderings are exactly
// what the relaxed model does not promise, and the litmus patterns exist
// to hammer that boundary without tripping false alarms.
type threadModel struct {
	// recs maps seq -> the live incarnation.
	recs map[int64]*memRec
	// all lists every incarnation in arrival order (squash sweeps).
	all []*memRec
	// stores lists store incarnations per line, kept sorted by seq (IQ
	// stores issue out of order, so arrival order is not program order).
	stores map[uint64][]*memRec
	// lastCommit is the most recent commit cycle per line, for the
	// store-buffer coalescing window.
	lastCommit map[uint64]int64
	// lastRetired is the highest program-order-pruned mem seq.
	lastRetired int64
}

// CheckerStats counts observed events by class, so harnesses can confirm
// a run actually exercised the interesting paths (a torture campaign whose
// loads never forward proves nothing).
type CheckerStats struct {
	Loads        int64 `json:"loads"`
	LoadFwdStore int64 `json:"load_fwd_store"`
	LoadFwdLoad  int64 `json:"load_fwd_load"`
	Stores       int64 `json:"stores"`
	Coalesced    int64 `json:"coalesced"`
	Commits      int64 `json:"commits"`
	Retires      int64 `json:"retires"`
	Squashes     int64 `json:"squashes"`
}

// Checker verifies the axiomatic memory model over a core's event stream.
// Install with core.SetObserver(ch.Observe); events arrive in
// simulation order from a single goroutine, so Checker needs no locking.
type Checker struct {
	threads []*threadModel
	viols   []Violation
	limit   int
	stats   CheckerStats
}

// maxViolations bounds the recorded breaches; a genuinely broken model
// would otherwise flood memory on a long run.
const maxViolations = 16

// NewChecker builds a checker for a core with the given thread count.
func NewChecker(threads int) *Checker {
	c := &Checker{threads: make([]*threadModel, threads), limit: maxViolations}
	for i := range c.threads {
		c.threads[i] = &threadModel{
			recs:        make(map[int64]*memRec),
			stores:      make(map[uint64][]*memRec),
			lastCommit:  make(map[uint64]int64),
			lastRetired: -1,
		}
	}
	return c
}

// Violations returns the recorded axiom breaches in observation order.
func (c *Checker) Violations() []Violation { return c.viols }

// Stats returns the event counts observed so far.
func (c *Checker) Stats() CheckerStats { return c.stats }

func (c *Checker) violate(ev obs.Event, axiom, format string, args ...any) {
	if len(c.viols) >= c.limit {
		return
	}
	c.viols = append(c.viols, Violation{
		Axiom: axiom, Tid: ev.Tid, Seq: ev.Seq, Cycle: ev.Cycle,
		Detail: fmt.Sprintf(format, args...),
	})
}

// youngestElder finds the youngest same-line store with seq < before that
// is still visible to forwarding. Visibility means not squashed and — when
// inflightOnly — not yet pruned from the window (the core's forwarding
// scan walks the in-flight list, whose membership boundary is exactly the
// program-order prune point). The scan walks youngest-first and can stop
// at the first pruned record when inflightOnly: pruning is program-order,
// so everything elder is pruned too.
func (tm *threadModel) youngestElder(line uint64, before int64, inflightOnly bool) *memRec {
	list := tm.stores[line]
	for i := len(list) - 1; i >= 0; i-- {
		s := list[i]
		if s.dead {
			continue
		}
		if inflightOnly && s.pruned {
			return nil
		}
		if s.seq < before {
			return s
		}
	}
	return nil
}

// Observe consumes one core event; only memory ops and squashes carry
// model state. It must see the complete stream from cycle zero (install
// the observer before the first Step).
func (c *Checker) Observe(ev obs.Event) {
	if ev.Kind == obs.EvSteer || ev.Kind == obs.EvCycle {
		return // steering and per-cycle samples carry no model state
	}
	if ev.Tid < 0 || ev.Tid >= len(c.threads) {
		c.violate(ev, "bad-tid", "event names thread %d of %d", ev.Tid, len(c.threads))
		return
	}
	tm := c.threads[ev.Tid]
	switch {
	case ev.Kind == obs.EvSquash:
		c.stats.Squashes++
		for _, r := range tm.all {
			if !r.dead && !r.pruned && r.seq >= ev.Seq {
				r.dead = true
			}
		}
	case !ev.Op.IsMem():
		// Non-memory issue and retire events carry no model state.
	case ev.Kind == obs.EvIssue && ev.Op == isa.OpLoad:
		c.stats.Loads++
		switch ev.Source {
		case obs.LoadFromStore:
			c.stats.LoadFwdStore++
		case obs.LoadFromLoad:
			c.stats.LoadFwdLoad++
		}
		c.loadIssue(tm, ev)
	case ev.Kind == obs.EvIssue:
		c.stats.Stores++
		if ev.Coalesced {
			c.stats.Coalesced++
		}
		c.storeIssue(tm, ev)
	case ev.Kind == obs.EvStoreCommit:
		c.stats.Commits++
		c.storeCommit(tm, ev)
	case ev.Kind == obs.EvRetire:
		c.stats.Retires++
		c.retire(tm, ev)
	}
}

// newRec installs a fresh incarnation for ev's sequence number.
func (tm *threadModel) newRec(ev obs.Event, store bool) *memRec {
	r := &memRec{
		seq: ev.Seq, line: ev.Addr >> 3, store: store, toShelf: ev.ToShelf,
		coalesced: ev.Coalesced, issueCycle: ev.Cycle,
		providerSeq: -1, chainStoreSeq: -1, accessCycle: ev.Cycle,
	}
	tm.recs[ev.Seq] = r
	tm.all = append(tm.all, r)
	if store {
		// Insertion sort from the tail: stores issue near program order,
		// so the displacement is tiny (bounded by the window size).
		list := append(tm.stores[r.line], r)
		for i := len(list) - 1; i > 0 && list[i-1].seq > r.seq; i-- {
			list[i-1], list[i] = list[i], list[i-1]
		}
		tm.stores[r.line] = list
	}
	return r
}

// loadIssue checks the forwarding axioms at the moment a load obtains its
// value:
//
//   - fwd-provider: a store-forwarded load's provider exists, is an elder
//     same-line store, and is not squashed.
//   - fwd-youngest: the provider is the youngest matching elder store
//     still in the window — forwarding from anything older returns a stale
//     value.
//   - stale-load: a cache-sourced load must have no matching elder store
//     still in the window (it should have forwarded).
//   - fwd-load: load-to-load forwarding is the shelf's elder-load
//     optimization; the provider must be a younger, already-issued IQ load
//     of the same line, and the chain's originating store (if any) must
//     not be younger than this load.
func (c *Checker) loadIssue(tm *threadModel, ev obs.Event) {
	r := tm.newRec(ev, false)
	r.source = ev.Source
	switch ev.Source {
	case obs.LoadFromStore:
		r.providerSeq = ev.ProviderSeq
		r.chainStoreSeq = ev.ProviderSeq
		p := tm.recs[ev.ProviderSeq]
		switch {
		case p == nil || !p.store:
			c.violate(ev, "fwd-provider", "provider seq=%d is not a known store", ev.ProviderSeq)
			return
		case p.dead:
			c.violate(ev, "squashed-visible", "load forwarded from squashed store seq=%d", p.seq)
			return
		case p.seq >= ev.Seq:
			c.violate(ev, "fwd-provider", "provider seq=%d is not elder", p.seq)
			return
		case p.line != r.line:
			c.violate(ev, "fwd-provider", "provider seq=%d line %#x != load line %#x", p.seq, p.line, r.line)
			return
		}
		if y := tm.youngestElder(r.line, ev.Seq, true); y == nil || y.seq != p.seq {
			ys := int64(-1)
			if y != nil {
				ys = y.seq
			}
			c.violate(ev, "fwd-youngest", "forwarded from seq=%d but youngest matching elder store is seq=%d", p.seq, ys)
		}
	case obs.LoadFromLoad:
		if !ev.ToShelf {
			c.violate(ev, "fwd-load", "load-to-load forwarding outside the shelf")
			return
		}
		m := tm.recs[ev.ProviderSeq]
		switch {
		case m == nil || m.store:
			c.violate(ev, "fwd-load", "provider seq=%d is not a known load", ev.ProviderSeq)
			return
		case m.dead:
			c.violate(ev, "squashed-visible", "load forwarded from squashed load seq=%d", m.seq)
			return
		case m.seq <= ev.Seq:
			c.violate(ev, "fwd-load", "load-provider seq=%d is not younger", m.seq)
			return
		case m.line != r.line:
			c.violate(ev, "fwd-load", "load-provider seq=%d line %#x != load line %#x", m.seq, m.line, r.line)
			return
		}
		if y := tm.youngestElder(r.line, ev.Seq, true); y != nil {
			c.violate(ev, "stale-load", "forwarded from load seq=%d despite matching elder store seq=%d", m.seq, y.seq)
			return
		}
		// Resolve the provider's own provenance: an IQ load sourced its
		// value from the cache or from an elder store — it cannot itself
		// be load-forwarded (that path is shelf-only).
		switch m.source {
		case obs.LoadFromStore:
			if m.providerSeq > ev.Seq {
				c.violate(ev, "fwd-load-order", "observed store seq=%d younger than this load via load seq=%d", m.providerSeq, m.seq)
				return
			}
			r.chainStoreSeq = m.providerSeq
		case obs.LoadFromCache:
			r.accessCycle = m.accessCycle
		default:
			c.violate(ev, "fwd-load", "load-provider seq=%d is itself load-forwarded", m.seq)
		}
	default: // LoadFromCache
		if y := tm.youngestElder(r.line, ev.Seq, true); y != nil {
			c.violate(ev, "stale-load", "cache-sourced load ignored matching elder store seq=%d", y.seq)
		}
	}
}

// storeIssue records a store's address resolution and checks the
// coalescing axiom: a coalesced shelf store must have had a matching
// victim — an elder same-line store still in the window, or a same-line
// commit still inside the store buffer's drain window.
func (c *Checker) storeIssue(tm *threadModel, ev obs.Event) {
	r := tm.newRec(ev, true)
	if !ev.Coalesced {
		return
	}
	if !ev.ToShelf {
		c.violate(ev, "coalesce-source", "coalesced store outside the shelf")
		return
	}
	// r itself is the youngest list entry; look for a distinct elder.
	if y := tm.youngestElder(r.line, ev.Seq, true); y != nil {
		return
	}
	if last, ok := tm.lastCommit[r.line]; ok && last+core.StoreBufDrainCycles > ev.Cycle {
		return
	}
	c.violate(ev, "coalesce-source", "coalesced store line %#x has no elder store in window or store buffer", r.line)
}

// storeCommit checks cache-visibility axioms when a store writes the
// hierarchy: squashed stores must never commit, and same-line commits
// respect program order (an elder uncommitted non-coalesced store still in
// the window means this commit overtook it).
func (c *Checker) storeCommit(tm *threadModel, ev obs.Event) {
	r := tm.recs[ev.Seq]
	if r == nil || !r.store {
		c.violate(ev, "commit-unknown", "commit for unknown store seq=%d", ev.Seq)
		return
	}
	if r.dead {
		c.violate(ev, "squashed-visible", "squashed store seq=%d wrote the cache", ev.Seq)
		return
	}
	list := tm.stores[r.line]
	for i := len(list) - 1; i >= 0; i-- {
		s := list[i]
		if s.seq >= r.seq || s.dead {
			continue
		}
		if s.pruned {
			break // program-order pruning: everything elder also pruned
		}
		if !s.committed && !s.coalesced {
			c.violate(ev, "commit-order", "store seq=%d committed before elder same-line store seq=%d", r.seq, s.seq)
			break
		}
	}
	r.committed = true
	r.commitCycle = ev.Cycle
	if last, ok := tm.lastCommit[r.line]; !ok || ev.Cycle > last {
		tm.lastCommit[r.line] = ev.Cycle
	}
}

// retire checks the final-value axioms when a memory op leaves the window
// in program order:
//
//   - retire-order: program-order pruning is monotone in seq.
//   - squashed-visible / retire-unknown: the pruned op must be a live,
//     observed incarnation.
//   - fwd-final: a forwarded load's provider must be its youngest matching
//     elder store over the WHOLE program order (late-resolving elder
//     stores trigger squash-and-replay, so by prune time the provider is
//     final).
//   - stale-final: a cache-sourced value is only coherent if every
//     matching elder store had committed by the time the value left the
//     hierarchy.
//   - commit-missing: a store cannot leave the window without either
//     committing or coalescing into a store that will.
func (c *Checker) retire(tm *threadModel, ev obs.Event) {
	r := tm.recs[ev.Seq]
	if r == nil {
		c.violate(ev, "retire-unknown", "retire for unobserved seq=%d", ev.Seq)
		return
	}
	if r.dead {
		c.violate(ev, "squashed-visible", "squashed op seq=%d retired", ev.Seq)
		return
	}
	if ev.Seq <= tm.lastRetired {
		c.violate(ev, "retire-order", "retire seq=%d after seq=%d", ev.Seq, tm.lastRetired)
	} else {
		tm.lastRetired = ev.Seq
	}
	defer func() { r.pruned = true }()

	if r.store {
		if !r.committed && !r.coalesced {
			c.violate(ev, "commit-missing", "store seq=%d retired without committing or coalescing", r.seq)
		}
		return
	}
	// Final-value check against the youngest matching elder store over
	// the whole history (pruned stores included: their value reaches the
	// load via the cache).
	if r.chainStoreSeq >= 0 {
		if y := tm.youngestElder(r.line, r.seq, false); y == nil || y.seq != r.chainStoreSeq {
			ys := int64(-1)
			if y != nil {
				ys = y.seq
			}
			c.violate(ev, "fwd-final", "load retired with value of store seq=%d but final youngest elder store is seq=%d", r.chainStoreSeq, ys)
		}
		return
	}
	// Cache-sourced value: the youngest matching elder NON-coalesced store
	// must have reached the hierarchy before the load read it. Coalesced
	// stores are transparent here — their value travels with their group's
	// head, which the coalesce-source axiom already tied to an in-window
	// elder or a recent commit.
	list := tm.stores[r.line]
	for i := len(list) - 1; i >= 0; i-- {
		s := list[i]
		if s.seq >= r.seq || s.dead || s.coalesced {
			continue
		}
		if !s.committed || s.commitCycle > r.accessCycle {
			c.violate(ev, "stale-final", "load read the hierarchy at cycle %d but elder store seq=%d committed at cycle %d (committed=%t)",
				r.accessCycle, s.seq, s.commitCycle, s.committed)
		}
		break
	}
}
