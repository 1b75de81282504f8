package obs

import "shelfsim/internal/isa"

// EventKind enumerates the points at which a core reports to its event
// stream (core.SetObserver and the telemetry Collector).
type EventKind uint8

const (
	// EvIssue fires once per issued op, after its timing is resolved: a
	// load's Source and ProviderSeq say where its value came from, a shelf
	// store's Coalesced records the coalescing decision, and
	// DispatchCycle and CompleteCycle bracket the issue Cycle.
	EvIssue EventKind = iota
	// EvStoreCommit fires when a store's value is released to the cache
	// (IQ stores at retirement, uncoalesced shelf stores at writeback).
	EvStoreCommit
	// EvRetire fires when an op fully retires, in program order per
	// thread.
	EvRetire
	// EvSquash fires when a thread flushes; Seq is the first squashed
	// sequence number (every op with seq >= Seq is dead) and Cause says
	// why.
	EvSquash
	// EvSteer fires once per op at its steering decision; ToShelf is the
	// side chosen.
	EvSteer
	// EvCycle fires once per core cycle, after fetch, with Sample holding
	// that cycle's slot usage and occupancies. Tid and Seq are unset.
	EvCycle
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

// Event is one observation of a core's pipeline. Events for one core are
// delivered in simulation order from a single goroutine.
type Event struct {
	Kind EventKind
	// Op is the op's class (unset for EvSquash and EvCycle).
	Op isa.OpClass
	// ToShelf marks shelf-steered ops.
	ToShelf bool
	// Coalesced marks a shelf store that merged into an elder store's
	// queue entry or an undrained store-buffer slot instead of committing
	// to the cache itself.
	Coalesced bool
	// Source and ProviderSeq carry a load's provenance: the providing
	// op's sequence number, or -1 for cache loads and non-loads.
	Source LoadSource
	// Cause classifies an EvSquash.
	Cause SquashCause
	Tid   int
	Seq   int64
	Cycle int64
	// Addr is the op's effective address (unset for EvSquash and EvCycle).
	Addr        uint64
	ProviderSeq int64
	// DispatchCycle and CompleteCycle are the op's dispatch and scheduled
	// completion cycles, set from EvIssue on (zero before).
	DispatchCycle, CompleteCycle int64
	// Sample is an EvCycle's per-cycle view of the core.
	Sample CycleSample
}

// CycleSample is one cycle's slot usage and structure occupancy.
type CycleSample struct {
	// DispatchSlots and IssueSlots count the ops dispatched and issued.
	DispatchSlots, IssueSlots int
	// The occupancies of the issue queue, the ROB, the shelf, the load and
	// store queues and the rename pool, summed over threads.
	IQ, ROB, Shelf, LQ, SQ, PRF int64
	// Ready is the wakeup–select engine's ready-set size, Wakeups the
	// consumer wakeups delivered this cycle (tag broadcasts plus
	// store-sets edge resolutions).
	Ready, Wakeups int64
}
