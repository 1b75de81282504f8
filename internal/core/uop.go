// Package core implements the hybrid out-of-order/in-order SMT instruction
// window of the paper: a conventional dynamically scheduled backend (ROB,
// unordered IQ, LSQ, physical register file) augmented with a per-thread
// FIFO shelf, the issue-tracking bitvector, speculation shift registers,
// extended tag space renaming, and the dispatch steering policies.
package core

import (
	"fmt"

	"shelfsim/internal/isa"
)

// uopState tracks a micro-op's progress through the window.
type uopState uint8

const (
	stateFetched uopState = iota
	stateDispatched
	stateIssued
	stateCompleted
	stateRetired
	stateSquashed
)

func (s uopState) String() string {
	switch s {
	case stateFetched:
		return "fetched"
	case stateDispatched:
		return "dispatched"
	case stateIssued:
		return "issued"
	case stateCompleted:
		return "completed"
	case stateRetired:
		return "retired"
	case stateSquashed:
		return "squashed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// invalidTag marks an absent register operand after rename.
const invalidTag = int32(-1)

// uop is one in-flight micro-op: the architectural instruction plus all
// renaming, window and timing state the pipeline attaches to it.
type uop struct {
	inst isa.Inst
	tid  int
	// seq is the per-thread program-order sequence number (assigned at
	// fetch, stable across squash/refetch of *younger* instructions).
	seq int64
	// gseq is a global dispatch-order stamp used for oldest-first select.
	gseq int64

	// toShelf records the steering decision (made at decode);
	// steerDecided guards against re-running the decision (and its
	// prediction-state updates) while the op retries a stalled dispatch.
	toShelf      bool
	steerDecided bool

	// Rename results. Tags index the unified tag space (physical tags
	// followed by the extension space); PRIs index the physical register
	// file. destPRI == destTag for IQ instructions; shelf instructions
	// reuse prevPRI and draw destTag from the extension space.
	srcTags  [isa.MaxSrcs]int32
	destPRI  int32
	destTag  int32
	prevPRI  int32 // previous mapping of the destination architectural register
	prevTag  int32
	archDest int32 // destination architectural register (-1 if none)

	// robPos is the monotone per-thread ROB allocation position for IQ
	// instructions (-1 for shelf instructions). The issue-tracking
	// bitvector is indexed by these positions.
	robPos int64
	// shelfIdx is the monotone shelf index (doubled-space position) for
	// shelf instructions, -1 otherwise.
	shelfIdx int64
	// shelfSquashIdx, recorded by every IQ instruction at dispatch, is
	// the shelf index the *next* shelf instruction will receive (the
	// shelf tail pointer): the first index to squash if this instruction
	// misspeculates, and the ROB-retirement reservation pointer (§III-B).
	shelfSquashIdx int64
	// lastIQROBPos, recorded by every shelf instruction at dispatch, is
	// the ROB position of the last preceding IQ instruction of the same
	// thread; the shelf head may issue only once the issue-tracking head
	// pointer has advanced past it (§III-A).
	lastIQROBPos int64

	state uopState
	// squashPending marks an issued, in-flight op that was squashed and
	// must be filtered at writeback (shelf squash-index filtering).
	squashPending bool

	dispatchCycle int64
	issueCycle    int64
	// completeCycle is when the result is available to consumers.
	completeCycle int64
	// resolveCycle is when the op can no longer cause a squash (branch
	// resolution, store address resolution); 0 for non-speculative ops.
	resolveCycle int64
	speculative  bool
	// mispredict marks a branch the front end predicted wrongly; it will
	// squash younger instructions when it resolves.
	mispredict bool
	// predToken is the branch predictor's history snapshot at prediction
	// time, handed back at resolution for correct training.
	predToken uint64

	// addrReadyCycle is when a memory op's effective address is known.
	addrReadyCycle int64
	// forwarded marks a load satisfied by store-to-load or (shelf)
	// load-to-load forwarding.
	forwarded bool
	// forwardedFromSeq is the seq of the providing store or load (or -1).
	forwardedFromSeq int64
	// depStoreSeq is the store-sets-predicted producer store this load
	// must wait for (-1 if none).
	depStoreSeq int64
	// pltCol is the Parent Loads Table column tracking this load (-1 if
	// untracked).
	pltCol int
	// predCompleteCycle is the steering mechanism's predicted completion
	// (for PLT lateness detection).
	predCompleteCycle int64
	// coalesced marks a shelf store that merged into an older SQ entry.
	coalesced bool

	// inSeq is the §II classification captured at issue: true if the op
	// issued in sequence (see core.classifyAtIssue).
	inSeq bool

	// Incremental scheduler state (see sched.go). iqIdx is the op's current
	// slot in the shared IQ slice (-1 when not in the IQ); readyIdx is its
	// slot in the ready set (-1 when not ready). waitCount is the number of
	// unresolved wakeup edges (unready source tags plus an unresolved
	// dep-store edge); the op enters the ready set when it reaches zero.
	iqIdx     int32
	readyIdx  int32
	waitCount int32
	// auditEdges is scratch for the invariant checker's wakeup audit; it
	// carries no scheduling state.
	auditEdges int32
	// depStore is the store-set dependence target resolved once at dispatch
	// (replacing the per-cycle inflight walk over depStoreSeq); nil when
	// there is none or it has already completed. depWaiters is the inverse
	// edge list: loads registered on this store's completion.
	depStore   *uop
	depWaiters []*uop
	// frontReadyCycle is the cycle this op becomes visible to dispatch
	// (fetch cycle + front-end depth); it rides on the uop so the fetch
	// queue needs no parallel ready-cycle slice.
	frontReadyCycle int64
	// evNext links the op into the completion calendar's chain for its
	// completeCycle (events.go) between issue and writeback.
	evNext *uop
}

// resetUop returns a uop to its just-allocated state, preserving the
// depWaiters backing array for reuse. Every sentinel here must match the
// composite literal fetch used before the freelist existed.
func resetUop(u *uop) {
	dw := u.depWaiters
	for i := range dw {
		dw[i] = nil
	}
	*u = uop{
		depWaiters:       dw[:0],
		robPos:           -1,
		shelfIdx:         -1,
		archDest:         -1,
		destPRI:          invalidTag,
		destTag:          invalidTag,
		prevPRI:          invalidTag,
		prevTag:          invalidTag,
		forwardedFromSeq: -1,
		depStoreSeq:      -1,
		pltCol:           -1,
		iqIdx:            -1,
		readyIdx:         -1,
	}
	for i := range u.srcTags {
		u.srcTags[i] = invalidTag
	}
}

// issued reports whether the op has left the scheduling window.
func (u *uop) issued() bool {
	return u.state == stateIssued || u.state == stateCompleted || u.state == stateRetired
}

// completed reports whether the op's result has been produced.
func (u *uop) completed() bool {
	return u.state == stateCompleted || u.state == stateRetired
}

// hasDest reports whether the op renames a destination register.
func (u *uop) hasDest() bool { return u.archDest >= 0 }

// String renders a debugging summary.
func (u *uop) String() string {
	side := "iq"
	if u.toShelf {
		side = "shelf"
	}
	return fmt.Sprintf("t%d#%d %s [%s] %s", u.tid, u.seq, u.inst.Op, side, u.state)
}
