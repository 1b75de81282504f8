// Package litmus is the memory-model torture harness: a seeded generator
// of classic multi-thread litmus patterns (MP, SB, LB, IRIW, CoRR, CoWW)
// as looping Stream workloads, an axiomatic checker that verifies every
// load's observed provenance against the simulator's documented relaxed
// model (per-thread program order with store-to-load forwarding and a
// coalescing store buffer), and a campaign runner that fuzzes thousands of
// instances under the per-cycle invariant checker, shrinks failures to
// minimal replayable seeds, and crosses instances with the fault-injection
// matrix (config.FaultKind).
//
// Following QED (arxiv 2404.03113), the checker never enumerates
// interleavings: it checks axioms over the observed value provenance the
// core reports through its event stream (core.SetObserver). In a timing
// simulator without data values, provenance — which store (or cache state) supplied a load — is
// the value's identity, so "reads the youngest matching elder store"
// becomes a directly checkable proposition.
package litmus

import (
	"fmt"

	"shelfsim/internal/isa"
	"shelfsim/internal/workload"
)

// Pattern names a litmus shape. Every pattern is emitted as an endless
// loop of its event sequence, so one instance exercises each shape
// thousands of times with varying padding and microarchitectural phase.
type Pattern uint8

const (
	// PatternMP is message passing: T0 stores data then flag; T1 loads
	// flag then (dependently) data.
	PatternMP Pattern = iota
	// PatternSB is store buffering: each thread stores one location and
	// loads the other.
	PatternSB
	// PatternLB is load buffering: each thread loads one location and
	// (dependently) stores the other.
	PatternLB
	// PatternIRIW is independent reads of independent writes: two writer
	// threads, two reader threads observing in opposite orders.
	PatternIRIW
	// PatternCoRR is coherent read-read: one writer hammering a location,
	// one reader loading it twice.
	PatternCoRR
	// PatternCoWW is coherent write-write: a single thread storing the
	// same location twice then loading it back.
	PatternCoWW

	// NumPatterns counts the shapes.
	NumPatterns
)

var patternNames = [NumPatterns]string{"mp", "sb", "lb", "iriw", "corr", "coww"}

// String names the pattern.
func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// Threads returns the pattern's hardware thread count.
func (p Pattern) Threads() int {
	switch p {
	case PatternIRIW:
		return 4
	case PatternCoWW:
		return 1
	default:
		return 2
	}
}

// Params fully determines one litmus instance: two instances built from
// equal Params generate byte-identical instruction streams. Params is the
// replay unit — a failing instance serializes its Params into the failure
// manifest and cmd/shelflitmus -replay re-runs it.
type Params struct {
	// Pattern selects the litmus shape.
	Pattern Pattern `json:"pattern"`
	// Seed drives every random choice (padding, layout jitter, branch
	// outcomes).
	Seed uint64 `json:"seed"`
	// Insts is the measured window in retired instructions per thread.
	Insts int64 `json:"insts"`
	// MaxPad bounds the random ALU filler inserted between litmus events.
	MaxPad int `json:"max_pad"`
	// SameLine packs the contended locations into one cache line (false
	// sharing); otherwise each location gets its own line.
	SameLine bool `json:"same_line"`
	// PrivateMem appends per-thread private store/load traffic, stressing
	// forwarding and coalescing alongside the contended accesses.
	PrivateMem bool `json:"private_mem"`
	// Branchy appends a data-dependent branch whose outcome varies per
	// iteration, so squashes constantly replay the litmus events.
	Branchy bool `json:"branchy"`
}

// String renders a compact instance identity for reports.
func (p Params) String() string {
	return fmt.Sprintf("%s seed=%#x insts=%d pad=%d sameline=%t priv=%t branchy=%t",
		p.Pattern, p.Seed, p.Insts, p.MaxPad, p.SameLine, p.PrivateMem, p.Branchy)
}

// Instance is a generated litmus workload: one looping stream per thread.
type Instance struct {
	Params  Params
	Streams []isa.Stream
}

// rng is a splitmix64 generator: tiny, deterministic, and independent of
// math/rand so the generated instances never shift under toolchain churn.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *rng) n(n int) int { return int(r.next() % uint64(n)) }

// evKind is a litmus event: a store to or a load from a contended
// location.
type evKind uint8

const (
	evStore evKind = iota
	evLoad
)

// ev is one litmus event in a thread's program. dep names an earlier
// event (by index) whose loaded value feeds this event's address
// register, building the classic dependency chains (MP's flag->data read,
// LB's load->store).
type ev struct {
	kind evKind
	loc  int
	dep  int
}

// events returns the per-thread event sequences of a pattern. Every
// location has a single writer thread — the classic shapes all do — so
// cross-thread traffic contends in the shared hierarchy while per-thread
// provenance stays axiomatically checkable.
func (p Pattern) events() [][]ev {
	switch p {
	case PatternMP:
		return [][]ev{
			{{evStore, 0, -1}, {evStore, 1, -1}},
			{{evLoad, 1, -1}, {evLoad, 0, 0}},
		}
	case PatternSB:
		return [][]ev{
			{{evStore, 0, -1}, {evLoad, 1, -1}},
			{{evStore, 1, -1}, {evLoad, 0, -1}},
		}
	case PatternLB:
		return [][]ev{
			{{evLoad, 0, -1}, {evStore, 1, 0}},
			{{evLoad, 1, -1}, {evStore, 0, 0}},
		}
	case PatternIRIW:
		return [][]ev{
			{{evStore, 0, -1}},
			{{evStore, 1, -1}},
			{{evLoad, 0, -1}, {evLoad, 1, -1}},
			{{evLoad, 1, -1}, {evLoad, 0, -1}},
		}
	case PatternCoRR:
		return [][]ev{
			{{evStore, 0, -1}, {evStore, 0, -1}},
			{{evLoad, 0, -1}, {evLoad, 0, -1}},
		}
	default: // PatternCoWW
		return [][]ev{
			{{evStore, 0, -1}, {evStore, 0, -1}, {evLoad, 0, -1}},
		}
	}
}

// srcs builds a source operand array.
func srcs(regs ...int16) [isa.MaxSrcs]int16 {
	out := [isa.MaxSrcs]int16{isa.RegInvalid, isa.RegInvalid, isa.RegInvalid}
	copy(out[:], regs)
	return out
}

// New generates the instance described by p. Generation is fully
// deterministic in Params (isa.Stream's contract), including the
// per-iteration branch outcomes, which derive from (Seed, thread,
// iteration) rather than stream position.
func New(p Params) *Instance {
	evs := p.Pattern.events()
	threads := len(evs)

	// Contended layout: one shared region for every thread, jittered by
	// seed so instances land in different cache sets. Locations are
	// distinct 8-byte words (forwarding granularity), on one cache line
	// when SameLine asks for false sharing, otherwise on separate lines.
	contBase := uint64(0x4000_0000) + uint64(p.Seed%64)*4096
	locAddr := [2]uint64{contBase, contBase + 192}
	if p.SameLine {
		locAddr[1] = contBase + 8
	}

	inst := &Instance{Params: p, Streams: make([]isa.Stream, threads)}
	for tid := 0; tid < threads; tid++ {
		r := &rng{s: p.Seed ^ uint64(tid+1)*0x6c62272e07bb0142}
		var body []isa.Inst

		// ALU filler maintains a dependence chain through rotating
		// registers r2..r7; r1 stands in for the (ready) address base.
		chain := int16(2)
		pad := func() {
			for n := 0; p.MaxPad > 0 && n < r.n(p.MaxPad+1); n++ {
				next := 2 + (chain-1)%6
				body = append(body, isa.Inst{
					Op: isa.OpIntAlu, Dest: next, Srcs: srcs(chain),
				})
				chain = next
			}
		}

		// destOf maps an event index to the register its load wrote.
		destOf := make([]int16, len(evs[tid]))
		for i, e := range evs[tid] {
			pad()
			addrReg := int16(1)
			if e.dep >= 0 {
				addrReg = destOf[e.dep] // address depends on an earlier load
			}
			switch e.kind {
			case evStore:
				body = append(body, isa.Inst{
					Op: isa.OpStore, Dest: isa.RegInvalid,
					Srcs: srcs(chain, addrReg),
					Addr: locAddr[e.loc], Size: 8,
				})
			case evLoad:
				dest := int16(10 + i)
				destOf[i] = dest
				body = append(body, isa.Inst{
					Op: isa.OpLoad, Dest: dest, Srcs: srcs(addrReg),
					Addr: locAddr[e.loc], Size: 8,
				})
			}
		}
		pad()

		if p.PrivateMem {
			// Private same-line store/load pair: per-thread single-writer
			// traffic that hammers forwarding and coalescing.
			priv := uint64(0x8000_0000) + uint64(tid+1)*0x10_0000 + uint64(p.Seed%32)*64
			body = append(body,
				isa.Inst{Op: isa.OpStore, Dest: isa.RegInvalid, Srcs: srcs(chain, 1), Addr: priv, Size: 8},
				isa.Inst{Op: isa.OpLoad, Dest: 20, Srcs: srcs(1), Addr: priv, Size: 8},
			)
		}

		branchPos := -1
		if p.Branchy {
			branchPos = len(body)
			body = append(body, isa.Inst{
				Op: isa.OpBranch, Dest: isa.RegInvalid, Srcs: srcs(chain),
			})
		}

		name := fmt.Sprintf("%s-s%x/t%d", p.Pattern, p.Seed, tid)
		pcBase := uint64(0x2_0000) + uint64(tid)<<12
		s := workload.NewLoopStream(name, pcBase, body, -1)
		if branchPos >= 0 {
			seed, bp := p.Seed^uint64(tid+1)*0x9e3779b97f4a7c15, branchPos
			s.Mutate = func(it int64, pos int, in *isa.Inst) {
				if pos != bp {
					return
				}
				// Data-dependent direction, deterministic in (seed,
				// iteration). The taken target is the fall-through PC, so
				// mispredictions squash and replay without altering the
				// architectural path.
				h := (seed + uint64(it)) * 0xbf58476d1ce4e5b9
				if in.Taken = h>>63 == 1; in.Taken {
					in.Target = in.PC + 4
				}
			}
		}
		inst.Streams[tid] = s
	}
	return inst
}
