// Package config defines the simulator configuration and the paper's
// Table I presets: the 4-thread baseline (64-entry ROB), the
// shelf-augmented designs (conservative and optimistic), and the doubled
// 128-entry upper-bound core.
package config

import (
	"fmt"

	"shelfsim/internal/branch"
	"shelfsim/internal/fptext"
	"shelfsim/internal/mem"
	"shelfsim/internal/storesets"
)

// SteerKind selects the dispatch steering policy (§IV).
type SteerKind uint8

const (
	// SteerAllIQ sends every instruction to the issue queue: the pure OOO
	// baseline (the shelf, if present, stays empty).
	SteerAllIQ SteerKind = iota
	// SteerAllShelf sends every instruction to the shelf, degenerating to
	// an in-order core.
	SteerAllShelf
	// SteerOracle steers each instruction to whichever side issues it
	// earlier, using perfect knowledge of the future schedule (greedy
	// oracle, §IV-A).
	SteerOracle
	// SteerPractical is the hardware mechanism of §IV-B: Ready Cycle
	// Table + Parent Loads Table + earliest-issue/writeback trackers.
	SteerPractical
	// SteerCoarse is the MorphCore-style comparison point the paper
	// argues against (§VI): each thread switches wholesale between
	// OOO (all-IQ) and in-order (all-shelf) modes at a fixed instruction
	// interval, based on the previous interval's measured in-sequence
	// fraction. It cannot interleave in-sequence and reordered
	// instructions within one window.
	SteerCoarse
)

// String names the steering policy.
func (s SteerKind) String() string {
	switch s {
	case SteerAllIQ:
		return "all-iq"
	case SteerAllShelf:
		return "all-shelf"
	case SteerOracle:
		return "oracle"
	case SteerPractical:
		return "practical"
	case SteerCoarse:
		return "coarse"
	default:
		return fmt.Sprintf("steer(%d)", uint8(s))
	}
}

// FaultKind enumerates the deliberate corruptions behind
// Config.InjectFaultCycle. Each kind targets a different structure so the
// torture harness can prove every class of silent state damage is caught
// by a detector (an invariant check or a pipeline assertion) rather than
// surfacing as a wrong-value run.
type FaultKind uint8

const (
	// FaultWindow corrupts thread 0's ROB head pointer (the historical
	// single-kind behaviour; detected by the rob-order invariant).
	FaultWindow FaultKind = iota
	// FaultStoreDrop silently removes a store queue head entry, modelling
	// a dropped store-buffer slot (detected by the lsq-membership
	// invariant, or by the sq-head retire assertion without checking).
	FaultStoreDrop
	// FaultWakeupTag marks a tag with registered wakeup waiters as ready
	// without waking them, modelling scheduler tag corruption (detected by
	// the sched-wakeup invariant).
	FaultWakeupTag
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultWindow:
		return "window"
	case FaultStoreDrop:
		return "store-drop"
	case FaultWakeupTag:
		return "wakeup-tag"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// FaultKindByName maps a wire/CLI name back to a FaultKind (the inverse
// of FaultKind.String).
func FaultKindByName(name string) (FaultKind, error) {
	for k := FaultWindow; k <= FaultWakeupTag; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, Fielderrf("InjectFaultKind", "unknown fault kind %q", name)
}

// AllocPolicy selects the chip-level thread-to-core allocation policy:
// how software threads are (re)assigned to cores at allocation epochs.
// The family follows the SMT thread-to-core allocation literature: a
// static baseline plus two dynamic policies keyed on per-thread pressure
// metrics sampled over the previous epoch.
type AllocPolicy uint8

const (
	// AllocRoundRobin deals threads across cores round-robin at start and
	// never migrates: the static baseline (and the fast path — no
	// epoch-boundary rebalancing work at all).
	AllocRoundRobin AllocPolicy = iota
	// AllocICount rebalances at every allocation epoch on the ICOUNT
	// metric (in-flight + fetch-queue occupancy per thread): threads
	// hogging window resources are spread across cores, snake-dealt so
	// each core keeps an even mix of heavy and light threads.
	AllocICount
	// AllocShelfPressure rebalances on the fraction of each thread's
	// dispatches steered to the shelf over the previous epoch: threads
	// with long in-sequence runs (high shelf pressure) are interleaved
	// with reordering-heavy threads so no core's shelf partitions all
	// saturate together. Requires a shelf.
	AllocShelfPressure
)

// String names the allocation policy.
func (p AllocPolicy) String() string {
	switch p {
	case AllocRoundRobin:
		return "round-robin"
	case AllocICount:
		return "icount"
	case AllocShelfPressure:
		return "shelf-pressure"
	default:
		return fmt.Sprintf("alloc(%d)", uint8(p))
	}
}

// AllocPolicyByName maps a wire/CLI name back to an AllocPolicy (the
// inverse of AllocPolicy.String).
func AllocPolicyByName(name string) (AllocPolicy, error) {
	for p := AllocRoundRobin; p <= AllocShelfPressure; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, Fielderrf("AllocPolicy", "unknown allocation policy %q", name)
}

// Config is the complete core + memory system configuration. All window
// structure sizes are totals that are partitioned evenly across threads
// where the paper partitions them (ROB, LQ, SQ, shelf, fetch buffers); the
// IQ and PRF are shared.
type Config struct {
	// Threads is the SMT thread count (1..8).
	Threads int

	// FetchWidth is instructions fetched per cycle (paper: 8).
	FetchWidth int
	// Width is the dispatch/issue/writeback/retire width (paper: 4-wide).
	Width int
	// FetchToDispatch is the front-end depth in cycles (paper: 6).
	FetchToDispatch int

	// ROB is the total reorder buffer capacity (partitioned per thread).
	ROB int
	// IQ is the shared unordered issue queue capacity.
	IQ int
	// LQ and SQ are the total load/store queue capacities (partitioned).
	LQ int
	SQ int
	// PRF is the number of physical registers per register file (one
	// integer and one FP file of this size each), beyond the per-thread
	// architectural state. It is an energy-only knob: Validate requires
	// PRF >= ROB, so a free register always exists for every ROB entry and
	// rename never stalls on it. It prices the register files in the
	// energy model (Figs. 13 and 14) and moves no timing.
	PRF int

	// Shelf is the total shelf capacity (partitioned per thread);
	// 0 disables the shelf entirely.
	Shelf int
	// OptimisticShelf selects the §III-A same-cycle-issue assumption: the
	// shelf head may issue in the same cycle as the last elder IQ
	// instruction of its run. When false (conservative), the
	// issue-tracking bitvector update is not bypassed and the shelf head
	// issues at earliest the following cycle.
	OptimisticShelf bool
	// ShelfReleaseAtWriteback is the §III-B ablation: shelf entries are
	// recycled only at writeback instead of at issue, increasing shelf
	// occupancy.
	ShelfReleaseAtWriteback bool

	// Steer selects the dispatch steering policy.
	Steer SteerKind
	// RCTBits is the Ready Cycle Table counter width (paper: 5 bits).
	RCTBits uint
	// PLTLoads is the number of tracked parent loads per thread (paper: 4).
	PLTLoads int
	// CoarseInterval is the per-thread switching interval, in retired
	// instructions, for the SteerCoarse policy (prior coarse-grain hybrid
	// designs switch at thousand-instruction granularity).
	CoarseInterval int64

	// IntALUs, IntMultDiv, FPUnits, MemPorts bound per-cycle issue by
	// functional unit class.
	IntALUs    int
	IntMultDiv int
	FPUnits    int
	MemPorts   int

	// Mem, Branch, StoreSets configure the substrates.
	Mem       mem.HierarchyConfig
	Branch    branch.Config
	StoreSets storesets.Config

	// Ablation toggles: each skips one shelf correctness/timing mechanism
	// so experiments can measure its contribution. They are ordinary
	// configuration fields (part of the fingerprint), so ablated runs are
	// reproducible per-run instead of depending on process-global state.
	//
	// AblateNoWAW skips the shelf WAW scoreboard stall (§III-C);
	// AblateNoElderStore skips the elder-stores-resolved check for shelf
	// memory ops (§III-D); AblateNoRunCond skips the issue-tracking run
	// condition (§III-A); AblateNoRetireCoord skips the ROB-vs-shelf
	// retirement coordination (§III-B). All default off (full mechanism).
	// The model has no speculation shift registers (§III-B), so it has no
	// single-SSR or no-SSR ablation either: speculation resolves one cycle
	// after issue and no op writes back sooner, so the registers could
	// never delay a writeback (DESIGN.md §4b.3).
	AblateNoWAW         bool
	AblateNoElderStore  bool
	AblateNoRunCond     bool
	AblateNoRetireCoord bool

	// Telemetry attaches a per-core observability collector (internal/obs)
	// to the run as a consumer of the core's event stream: steer decisions
	// per op class, scheduling delays, slot usage, squash causes and stage
	// occupancies, exported via Result.Obs. With it off and no observer
	// set, the core emits no events. It does not alter simulated timing,
	// but it participates in the fingerprint like every other field, so
	// telemetry-on and telemetry-off runs cache separately.
	Telemetry bool

	// CheckInvariants enables the core's per-cycle invariant checker
	// (free-list conservation, ROB/shelf program order, issue-tracking
	// bitvector consistency, doubled shelf-index disjointness,
	// LQ/SQ age ordering). A violation aborts the run with a typed
	// core.InvariantError that supervised runners convert into a
	// structured failure. Costs roughly 2-3x simulation time.
	CheckInvariants bool
	// InjectFaultCycle, when positive, arms deliberate corruption from
	// that cycle on (robustness test hook): supervised sweeps use it to
	// prove fault recovery without crashing the process. The corruption
	// fires at the first cycle >= InjectFaultCycle at which its target
	// structure is populated, then disarms. 0 disables injection.
	InjectFaultCycle int64
	// InjectFaultKind selects what InjectFaultCycle corrupts: the window
	// (ROB head), a store queue entry, or a wakeup tag. Meaningless — and
	// rejected by Validate — without InjectFaultCycle.
	InjectFaultKind FaultKind

	// NumCores is the number of independent cores on the simulated chip.
	// 0 and 1 both mean the classic single-core path (internal/core driven
	// directly); >= 2 selects the chip layer (internal/chip): NumCores
	// private core instances, each running Threads SMT threads, stepped in
	// parallel with cross-core interaction only at allocation epochs. The
	// workload must then supply Threads*NumCores kernels.
	NumCores int
	// AllocPolicy selects the thread-to-core allocation policy used at
	// chip allocation epochs. Meaningful only with NumCores >= 2.
	AllocPolicy AllocPolicy
	// ChipLockstep forces the chip to step its cores sequentially in core
	// order instead of one goroutine per core. Timing is identical by
	// construction — cores share no mutable state within an epoch — and
	// the runner's chip differential asserts bit-identical per-core result
	// fingerprints between the two modes.
	ChipLockstep bool
	// ChipEpoch is the allocation epoch length in cycles: cores run ahead
	// independently for this many cycles, then the chip applies allocator
	// decisions and the shared-L2 contention model at the epoch boundary.
	// Required (positive) when NumCores >= 2.
	ChipEpoch int64
	// MigrationCost is the modeled cost, in stalled fetch cycles, charged
	// to a thread migrated to a different core (on top of the implicit
	// cost of restarting with cold microarchitectural state). 0 models
	// free migration.
	MigrationCost int64
	// L2SharePenalty models shared-L2 contention: each core's L2 access
	// latency for the next epoch is inflated by this many cycles per unit
	// of the other cores' previous-epoch L2 pressure (their L2 accesses per
	// cycle, saturated at 8x the penalty). 0 disables the model (private L2
	// per core).
	L2SharePenalty int64

	// RescanScheduler selects the legacy O(window) select loop that rescans
	// the whole IQ and re-derives source readiness every cycle, instead of
	// the incremental wakeup–select engine. Timing is identical by
	// construction (the runner's scheduler differential asserts it); the
	// rescan path exists for that differential and for debugging.
	RescanScheduler bool

	// AsmScheduleBound caps the unrolled execution schedule an assembled
	// program (Request.Programs) may request via its .loop directive. 0
	// selects the assembler's hard ceiling. It participates in the
	// fingerprint because it can change which programs a configuration
	// accepts, and therefore which cached results exist under a key.
	AsmScheduleBound int64

	// Name labels the configuration in reports.
	Name string
}

// FieldError is a typed validation failure: Field names the offending
// configuration (or request) field — a Config field name like "ROB", or a
// dotted path like "Mem.L1D" for substrate configs — and Msg states the
// violated constraint. Typed field attribution lets a network front end
// map a bad request to a 400 response carrying the field name instead of
// panicking deep inside the core, and lets CLIs point at the exact flag.
type FieldError struct {
	// Field is the offending field's name (dotted path for nested configs).
	Field string `json:"field"`
	// Msg describes the violated constraint.
	Msg string `json:"message"`

	err error
}

// Error implements the error interface.
func (e *FieldError) Error() string {
	return fmt.Sprintf("config: %s: %s", e.Field, e.Msg)
}

// Unwrap exposes the underlying substrate validation error, if any.
func (e *FieldError) Unwrap() error { return e.err }

// Fielderrf builds a *FieldError with a formatted message. Exported so the
// request layer can attribute its own validation failures ("kernels",
// "insts", ...) with the same type the servers already map to 400s.
func Fielderrf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// wrapField converts a substrate validation error into a *FieldError
// rooted at the named Config field, preserving the cause for errors.As.
func wrapField(field string, err error) *FieldError {
	return &FieldError{Field: field, Msg: err.Error(), err: err}
}

// WrapFielderr attributes an underlying error to a request or config
// field, preserving the cause for errors.As. Exported so the request
// layer can wrap assembler diagnostics (which carry line/column
// positions) in the same type the servers map to 400s — front ends
// unwrap the cause to recover the position.
func WrapFielderr(field string, err error) *FieldError {
	return wrapField(field, err)
}

// Validate reports the first configuration error found as a *FieldError
// naming the offending field, so callers can attribute failures without
// parsing messages.
func (c *Config) Validate() error {
	switch {
	case c.Threads < 1 || c.Threads > 8:
		return Fielderrf("Threads", "thread count %d out of range [1,8]", c.Threads)
	case c.FetchWidth <= 0:
		return Fielderrf("FetchWidth", "non-positive fetch width %d", c.FetchWidth)
	case c.Width <= 0:
		return Fielderrf("Width", "non-positive width %d", c.Width)
	case c.FetchToDispatch < 1:
		return Fielderrf("FetchToDispatch", "front-end depth %d must be >= 1", c.FetchToDispatch)
	case c.ROB < c.Threads:
		return Fielderrf("ROB", "ROB %d smaller than thread count %d", c.ROB, c.Threads)
	case c.ROB%c.Threads != 0:
		return Fielderrf("ROB", "ROB %d not divisible by %d threads", c.ROB, c.Threads)
	case c.IQ <= 0:
		return Fielderrf("IQ", "non-positive IQ %d", c.IQ)
	case c.LQ <= 0:
		return Fielderrf("LQ", "non-positive LQ %d", c.LQ)
	case c.SQ <= 0:
		return Fielderrf("SQ", "non-positive SQ %d", c.SQ)
	case c.LQ%c.Threads != 0:
		return Fielderrf("LQ", "LQ %d not divisible by %d threads", c.LQ, c.Threads)
	case c.SQ%c.Threads != 0:
		return Fielderrf("SQ", "SQ %d not divisible by %d threads", c.SQ, c.Threads)
	case c.PRF < c.ROB:
		return Fielderrf("PRF", "PRF %d smaller than ROB %d (renaming would deadlock)", c.PRF, c.ROB)
	case c.Shelf < 0:
		return Fielderrf("Shelf", "negative shelf %d", c.Shelf)
	case c.Shelf > 0 && c.Shelf%c.Threads != 0:
		return Fielderrf("Shelf", "shelf %d not divisible by %d threads", c.Shelf, c.Threads)
	case c.Shelf > 0 && (c.Shelf/c.Threads)&(c.Shelf/c.Threads-1) != 0:
		return Fielderrf("Shelf", "per-thread shelf %d must be a power of two (doubled index space)", c.Shelf/c.Threads)
	case c.RCTBits == 0 || c.RCTBits > 16:
		return Fielderrf("RCTBits", "RCT width %d out of range", c.RCTBits)
	case c.PLTLoads < 0:
		return Fielderrf("PLTLoads", "negative PLT size %d", c.PLTLoads)
	case c.Steer > SteerCoarse:
		return Fielderrf("Steer", "unknown steering policy %d", c.Steer)
	case c.Steer == SteerCoarse && c.CoarseInterval <= 0:
		return Fielderrf("CoarseInterval", "coarse steering needs a positive interval, got %d", c.CoarseInterval)
	case c.Shelf == 0 && c.Steer != SteerAllIQ:
		return Fielderrf("Steer", "steering policy %v requires a shelf", c.Steer)
	case c.IntALUs <= 0:
		return Fielderrf("IntALUs", "non-positive integer ALU count %d", c.IntALUs)
	case c.IntMultDiv <= 0:
		return Fielderrf("IntMultDiv", "non-positive mult/div unit count %d", c.IntMultDiv)
	case c.FPUnits <= 0:
		return Fielderrf("FPUnits", "non-positive FP unit count %d", c.FPUnits)
	case c.MemPorts <= 0:
		return Fielderrf("MemPorts", "non-positive memory port count %d", c.MemPorts)
	case c.InjectFaultCycle < 0:
		return Fielderrf("InjectFaultCycle", "negative fault-injection cycle %d", c.InjectFaultCycle)
	case c.InjectFaultKind > FaultWakeupTag:
		return Fielderrf("InjectFaultKind", "unknown fault kind %d", c.InjectFaultKind)
	case c.InjectFaultKind != FaultWindow && c.InjectFaultCycle == 0:
		return Fielderrf("InjectFaultKind", "fault kind %v set without an injection cycle", c.InjectFaultKind)
	case c.NumCores < 0 || c.NumCores > 64:
		return Fielderrf("NumCores", "core count %d out of range [0,64]", c.NumCores)
	case c.AllocPolicy > AllocShelfPressure:
		return Fielderrf("AllocPolicy", "unknown allocation policy %d", c.AllocPolicy)
	case c.NumCores >= 2 && c.ChipEpoch <= 0:
		return Fielderrf("ChipEpoch", "chip mode needs a positive epoch length, got %d", c.ChipEpoch)
	case c.NumCores >= 2 && c.AllocPolicy == AllocShelfPressure && c.Shelf == 0:
		return Fielderrf("AllocPolicy", "shelf-pressure allocation requires a shelf")
	case c.AsmScheduleBound < 0:
		return Fielderrf("AsmScheduleBound", "negative assembler schedule bound %d", c.AsmScheduleBound)
	case c.MigrationCost < 0:
		return Fielderrf("MigrationCost", "negative migration cost %d", c.MigrationCost)
	case c.L2SharePenalty < 0:
		return Fielderrf("L2SharePenalty", "negative L2 share penalty %d", c.L2SharePenalty)
	case c.NumCores < 2 && (c.AllocPolicy != AllocRoundRobin || c.ChipLockstep || c.ChipEpoch != 0 || c.MigrationCost != 0 || c.L2SharePenalty != 0):
		return Fielderrf("NumCores", "chip knobs set without NumCores >= 2")
	}
	if err := c.Branch.Validate(); err != nil {
		return wrapField("Branch", err)
	}
	if err := c.StoreSets.Validate(); err != nil {
		return wrapField("StoreSets", err)
	}
	for _, sub := range []struct {
		field string
		cc    mem.CacheConfig
	}{{"Mem.L1I", c.Mem.L1I}, {"Mem.L1D", c.Mem.L1D}, {"Mem.L2", c.Mem.L2}} {
		if err := sub.cc.Validate(); err != nil {
			return wrapField(sub.field, err)
		}
	}
	if c.Mem.MemLatencyCycles <= 0 {
		return Fielderrf("Mem.MemLatencyCycles", "non-positive DRAM latency %d", c.Mem.MemLatencyCycles)
	}
	// The hierarchy moves whole lines between levels, so every level
	// shares one line size. The error names the level that disagrees with
	// the other two, or L1D when all three differ.
	l1i, l1d, l2 := c.Mem.L1I.LineBytes, c.Mem.L1D.LineBytes, c.Mem.L2.LineBytes
	switch {
	case l1i == l1d && l1d != l2:
		return Fielderrf("Mem.L2.LineBytes", "line size %d differs from the L1s' %d; all levels share one line size", l2, l1d)
	case l1d != l2 && l1d != l1i:
		return Fielderrf("Mem.L1D.LineBytes", "line size %d differs from L2's %d; all levels share one line size", l1d, l2)
	case l1i != l2:
		return Fielderrf("Mem.L1I.LineBytes", "line size %d differs from L2's %d; all levels share one line size", l1i, l2)
	}
	return nil
}

// Fingerprint returns a stable hash of every configuration field,
// enumerated explicitly rather than reflectively so coverage is auditable.
// A reflection test in internal/harness mutates every field and requires
// the hash to change, so a field added without a fingerprint update fails
// the suite. Run caches must key on it rather than on Name: two
// configurations sharing a name but differing in any field would
// otherwise silently alias results.
func (c *Config) Fingerprint() string {
	// The text is the one referenceFingerprint (fingerprint_test.go)
	// writes with fmt; 1 KiB holds it for any realistic Name.
	var buf [1024]byte
	t := fptext.Text(buf[:0]).
		Int("thr=", int64(c.Threads)).
		Int(" fw=", int64(c.FetchWidth)).
		Int(" w=", int64(c.Width)).
		Int(" f2d=", int64(c.FetchToDispatch)).
		Int(" rob=", int64(c.ROB)).
		Int(" iq=", int64(c.IQ)).
		Int(" lq=", int64(c.LQ)).
		Int(" sq=", int64(c.SQ)).
		Int(" prf=", int64(c.PRF))
	// The sssr slot and the first ab slot held the single-SSR and no-SSR
	// ablations, since removed; they stay as literal false so fingerprints,
	// cache keys and stored results taken before the removal stay valid.
	t = t.Int(" shelf=", int64(c.Shelf)).
		Bool(" opt=", c.OptimisticShelf).
		Key(" sssr=false").
		Bool(" relwb=", c.ShelfReleaseAtWriteback).
		Uint(" steer=", uint64(c.Steer)).
		Uint(" rct=", uint64(c.RCTBits)).
		Int(" plt=", int64(c.PLTLoads)).
		Int(" coarse=", c.CoarseInterval).
		Int(" alu=", int64(c.IntALUs)).
		Int(" muldiv=", int64(c.IntMultDiv)).
		Int(" fp=", int64(c.FPUnits)).
		Int(" memp=", int64(c.MemPorts))
	// mem and ss are the %+v renderings of the substrate configs. The
	// branch struct is written out: RASEntries, since removed, stays as its
	// only value, 16, so fingerprints, cache keys and stored results taken
	// before the removal stay valid.
	t = appendCacheConfig(t, " mem={{L1I:", &c.Mem.L1I)
	t = appendCacheConfig(t, " L1D:", &c.Mem.L1D)
	t = appendCacheConfig(t, " L2:", &c.Mem.L2)
	t = t.Int(" MemLatencyCycles:", int64(c.Mem.MemLatencyCycles)).
		Int(" PrefetchNextLines:", int64(c.Mem.PrefetchNextLines)).
		Uint("}} branch={{GshareBits:", uint64(c.Branch.GshareBits)).
		Int(" BTBEntries:", int64(c.Branch.BTBEntries)).
		Int(" RASEntries:16}} ss={{SSITEntries:", int64(c.StoreSets.SSITEntries)).
		Int(" MaxSets:", int64(c.StoreSets.MaxSets)).
		Key("}} ab=false").
		Bool("", c.AblateNoWAW).
		Bool("", c.AblateNoElderStore).
		Bool("", c.AblateNoRunCond).
		Bool("", c.AblateNoRetireCoord)
	t = t.Bool(" tel=", c.Telemetry).
		Bool(" chk=", c.CheckInvariants).
		Int(" fault=", c.InjectFaultCycle).
		Uint(" fkind=", uint64(c.InjectFaultKind)).
		Bool(" rescan=", c.RescanScheduler).
		Int(" asmb=", c.AsmScheduleBound).
		Quote(" name=", c.Name).
		Int(" cores=", int64(c.NumCores)).
		Uint(" alloc=", uint64(c.AllocPolicy)).
		Bool(" lockstep=", c.ChipLockstep).
		Int(" epoch=", c.ChipEpoch).
		Int(" migc=", c.MigrationCost).
		Int(" l2share=", c.L2SharePenalty)
	return t.Sum()
}

// appendCacheConfig appends key and cc as %+v.
func appendCacheConfig(t fptext.Text, key string, cc *mem.CacheConfig) fptext.Text {
	return t.Key(key).Str("{Name:", cc.Name).
		Int(" SizeBytes:", int64(cc.SizeBytes)).
		Int(" Ways:", int64(cc.Ways)).
		Int(" LineBytes:", int64(cc.LineBytes)).
		Int(" LatencyCycles:", int64(cc.LatencyCycles)).
		Int(" MSHRs:", int64(cc.MSHRs)).
		Key("}")
}

// ROBPerThread returns the per-thread ROB partition size.
func (c *Config) ROBPerThread() int { return c.ROB / c.Threads }

// LQPerThread returns the per-thread load queue partition size.
func (c *Config) LQPerThread() int { return c.LQ / c.Threads }

// SQPerThread returns the per-thread store queue partition size.
func (c *Config) SQPerThread() int { return c.SQ / c.Threads }

// ShelfPerThread returns the per-thread shelf partition size (0 if the
// shelf is disabled).
func (c *Config) ShelfPerThread() int {
	if c.Shelf == 0 {
		return 0
	}
	return c.Shelf / c.Threads
}

// base returns the shared Table I parameters for a given thread count.
func base(threads int) Config {
	return Config{
		Threads:         threads,
		FetchWidth:      8,
		Width:           4,
		FetchToDispatch: 6,
		RCTBits:         5,
		PLTLoads:        4,
		IntALUs:         4,
		IntMultDiv:      1,
		FPUnits:         2,
		MemPorts:        2,
		Mem:             mem.DefaultHierarchyConfig(),
		Branch:          branch.DefaultConfig(),
		StoreSets:       storesets.DefaultConfig(),
	}
}

// Base64 is the paper's baseline: 64-entry ROB, 32-entry IQ/LQ/SQ, no
// shelf, all instructions to the IQ.
func Base64(threads int) Config {
	c := base(threads)
	c.Name = "base64"
	c.ROB, c.IQ, c.LQ, c.SQ = 64, 32, 32, 32
	c.PRF = 128
	c.Steer = SteerAllIQ
	return c
}

// Base128 is the doubled design: the paper's theoretical upper bound for
// the shelf's improvement.
func Base128(threads int) Config {
	c := base(threads)
	c.Name = "base128"
	c.ROB, c.IQ, c.LQ, c.SQ = 128, 64, 64, 64
	c.PRF = 224
	c.Steer = SteerAllIQ
	return c
}

// Coarse64 is Base64 plus the same 64-entry shelf driven by the
// MorphCore-style coarse-grain switching policy (§VI comparison): whole
// threads flip between OOO and in-order modes every `interval` retired
// instructions.
func Coarse64(threads int, interval int64) Config {
	c := Shelf64(threads, true)
	c.Steer = SteerCoarse
	c.CoarseInterval = interval
	c.Name = fmt.Sprintf("coarse64-%d", interval)
	return c
}

// Shelf64 is Base64 plus a 64-entry shelf with practical steering.
// optimistic selects the §III-A microarchitecture assumption.
func Shelf64(threads int, optimistic bool) Config {
	c := Base64(threads)
	c.Shelf = 64
	c.OptimisticShelf = optimistic
	c.Steer = SteerPractical
	if optimistic {
		c.Name = "shelf64-opt"
	} else {
		c.Name = "shelf64-cons"
	}
	return c
}
