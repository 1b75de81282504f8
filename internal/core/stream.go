package core

import "shelfsim/internal/isa"

// EventKind enumerates the points at which the core reports to its
// observer (SetObserver).
type EventKind uint8

const (
	// EvIssue fires once per issued op, after its timing is resolved: a
	// load's Source and ProviderSeq say where its value came from, a shelf
	// store's Coalesced records the coalescing decision.
	EvIssue EventKind = iota
	// EvStoreCommit fires when a store's value is released to the cache
	// (IQ stores at retirement, uncoalesced shelf stores at writeback).
	EvStoreCommit
	// EvRetire fires when an op fully retires, in program order per
	// thread.
	EvRetire
	// EvSquash fires when a thread flushes; Seq is the first squashed
	// sequence number (every op with seq >= Seq is dead).
	EvSquash
)

// LoadSource identifies where a load obtained its value. In a timing
// simulator without data values, provenance is the value's identity: the
// axiomatic checker (internal/litmus) reconstructs which store the load
// architecturally observed from the (source, provider) pair.
type LoadSource uint8

const (
	// LoadFromCache means the load accessed the memory hierarchy.
	LoadFromCache LoadSource = iota
	// LoadFromStore means the load forwarded from the youngest matching
	// elder store (store-to-load forwarding).
	LoadFromStore
	// LoadFromLoad means a shelf load forwarded from a younger matching
	// IQ load that issued early (§III-D).
	LoadFromLoad
)

// Event is one observation of the core's pipeline. Events for one core
// are delivered in simulation order from a single goroutine.
type Event struct {
	Kind  EventKind
	Tid   int
	Seq   int64
	Cycle int64
	// Op is the op's class (unset for EvSquash).
	Op isa.OpClass
	// Addr is the op's effective address (unset for EvSquash).
	Addr uint64
	// ToShelf marks shelf-steered ops.
	ToShelf bool
	// Coalesced marks a shelf store that merged into an elder store's
	// queue entry or an undrained store-buffer slot instead of committing
	// to the cache itself.
	Coalesced bool
	// Source and ProviderSeq carry a load's provenance: the providing
	// op's sequence number, or -1 for cache loads and non-loads.
	Source      LoadSource
	ProviderSeq int64
}

// SetObserver installs fn to receive the core's event stream: every issue
// (with a load's observed provenance), store commit, retirement and
// squash. The axiomatic litmus checker and the retire-order differential
// are its consumers. Events are delivered synchronously from the
// simulation loop; fn must not call back into the core.
func (c *Core) SetObserver(fn func(Event)) { c.observer = fn }

// emit reports kind for u at cycle now to the observer, if any.
func (c *Core) emit(kind EventKind, u *uop, now int64) {
	if c.observer == nil {
		return
	}
	ev := Event{Kind: kind, Tid: u.tid, Seq: u.seq, Cycle: now, Op: u.inst.Op,
		Addr: u.inst.Addr, ToShelf: u.toShelf, Coalesced: u.coalesced, ProviderSeq: -1}
	if u.forwarded {
		// Store forwarding reads an elder store, load forwarding a
		// younger load (§III-D).
		ev.Source, ev.ProviderSeq = LoadFromStore, u.forwardedFromSeq
		if ev.ProviderSeq > u.seq {
			ev.Source = LoadFromLoad
		}
	}
	c.observer(ev)
}
