// Package energy is the McPAT stand-in: an analytic per-structure dynamic
// energy + leakage + area model for the core. Like the paper's use of
// McPAT, only *relative* comparisons matter (energy-delay of base64 vs
// 64+64 vs base128, Fig. 13; area deltas, Table II), so the model keeps
// McPAT's scaling structure — CAM searches scale with entries×tag-width,
// RAM accesses with port width and a weak capacity term, leakage with
// total bits — under calibrated coefficients rather than extracted
// transistor capacitances.
//
// Units are arbitrary ("energy units" per access, "area units"); every
// reported number is a ratio.
package energy

import (
	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/isa"
)

// ramAccess is the energy of one read or write of a RAM structure with
// the given entry count and payload width in bytes.
func ramAccess(entries int, widthBytes float64) float64 {
	return (0.10 + 0.015*float64(entries)/16.0) * widthBytes / 8.0
}

// camSearch is the energy of one associative search over a CAM with the
// given entry count and key width in bits: every entry's comparators
// switch on each search, which is the cost the shelf avoids.
func camSearch(entries int, keyBits float64) float64 {
	return 0.10 * float64(entries) * keyBits / 64.0
}

// fuEnergy is the per-operation execution energy by op class.
var fuEnergy = map[isa.OpClass]float64{
	isa.OpNop:     0.05,
	isa.OpIntAlu:  0.50,
	isa.OpIntMult: 2.00,
	isa.OpIntDiv:  8.00,
	isa.OpFPAdd:   2.50,
	isa.OpFPMult:  3.00,
	isa.OpFPDiv:   10.0,
	isa.OpLoad:    0.80, // AGU; cache energy accounted separately
	isa.OpStore:   0.80,
	isa.OpBranch:  0.40,
	isa.OpBarrier: 0.05,
}

const (
	frontEndPerInst = 0.60 // fetch+decode+predictor per instruction
	renamePerInst   = 0.45 // RAT read/write + free list
	steerPerInst    = 0.08 // RCT read/compare + PLT row update
	tagBits         = 10.0
	addrBits        = 40.0

	l1AccessEnergy  = 1.2
	l2AccessEnergy  = 8.0
	memAccessEnergy = 60.0

	// Leakage: energy per cycle per SRAM bit, plus a fixed logic floor.
	leakPerBit     = 0.5e-5
	leakLogicFloor = 0.35

	// Payload widths (bytes) for window structures.
	iqEntryBytes    = 16.0
	robEntryBytes   = 20.0
	shelfEntryBytes = 16.0
	lsqEntryBytes   = 12.0
	prfEntryBytes   = 8.0
)

// structBits estimates total SRAM bits of the scheduling window and
// register structures for leakage and area.
func structBits(cfg *config.Config) float64 {
	bits := 0.0
	add := func(entries int, bytes float64, camFactor float64) {
		bits += float64(entries) * bytes * 8.0 * camFactor
	}
	add(cfg.IQ, iqEntryBytes, 1.6) // CAM cells are larger
	add(cfg.ROB, robEntryBytes, 1.0)
	add(cfg.LQ, lsqEntryBytes, 1.6)
	add(cfg.SQ, lsqEntryBytes, 1.6)
	add(cfg.PRF+cfg.Threads*isa.NumArchRegs, prfEntryBytes, 1.2) // multiported
	if cfg.Shelf > 0 {
		add(cfg.Shelf, shelfEntryBytes, 1.0)
		// Extension RAT/free list, issue-tracking bitvectors, RCT
		// (5-bit counters), PLT. The paper's speculation shift registers
		// are not modeled (DESIGN.md §4b), so they are not counted.
		add(cfg.Threads*isa.NumArchRegs, 2.0, 1.0)                     // ext RAT
		add(cfg.ROB, 0.25, 1.0)                                        // issue-tracking bits + retire bits
		add(cfg.Threads*isa.NumArchRegs, float64(cfg.RCTBits)/8, 1.0)  // RCT
		add(cfg.Threads*isa.NumArchRegs, float64(cfg.PLTLoads)/8, 1.0) // PLT
	}
	return bits
}

// Breakdown is the per-component energy split of a run.
type Breakdown struct {
	FrontEnd float64
	Rename   float64
	IQ       float64
	Shelf    float64
	ROB      float64
	LSQ      float64
	PRF      float64
	FU       float64
	Caches   float64
	Steering float64
	Leakage  float64
}

// Total sums the breakdown.
func (b *Breakdown) Total() float64 {
	return b.FrontEnd + b.Rename + b.IQ + b.Shelf + b.ROB + b.LSQ +
		b.PRF + b.FU + b.Caches + b.Steering + b.Leakage
}

// Energy computes the run's total core energy (including L1 caches, as the
// paper reports) from the simulation result.
func Energy(cfg *config.Config, res *core.Result) Breakdown {
	s := &res.Stats
	var b Breakdown

	b.FrontEnd = frontEndPerInst * float64(s.Fetched)
	b.Rename = renamePerInst * float64(s.Renames)

	b.IQ = ramAccess(cfg.IQ, iqEntryBytes)*float64(s.IQWrites+s.IQReads) +
		camSearch(cfg.IQ, tagBits)*float64(s.TagBroadcasts)
	if cfg.Shelf > 0 {
		b.Shelf = ramAccess(cfg.ShelfPerThread(), shelfEntryBytes) *
			float64(s.ShelfWrites+s.ShelfReads)
		b.Steering = steerPerInst * float64(s.RCTReads+s.RCTWrites)
	}
	b.ROB = ramAccess(cfg.ROBPerThread(), robEntryBytes) * float64(s.ROBWrites+s.ROBReads)
	b.LSQ = ramAccess(cfg.LQPerThread()+cfg.SQPerThread(), lsqEntryBytes)*float64(s.LSQWrites) +
		camSearch(cfg.LQPerThread()+cfg.SQPerThread(), addrBits)*float64(s.LSQSearches)
	b.PRF = ramAccess(cfg.PRF+cfg.Threads*isa.NumArchRegs, prfEntryBytes) *
		float64(s.PRFReads+s.PRFWrites)

	for op, e := range fuEnergy {
		b.FU += e * float64(s.FUOps[op])
	}

	l1 := float64(res.L1I.Hits+res.L1I.Misses+res.L1D.Hits+res.L1D.Misses) * l1AccessEnergy
	l2 := float64(res.L2.Hits+res.L2.Misses) * l2AccessEnergy
	dram := float64(res.L2.Misses) * memAccessEnergy
	b.Caches = l1 + l2 + dram

	b.Leakage = (leakLogicFloor + leakPerBit*structBits(cfg)) * float64(res.Cycles)
	return b
}

// EDP returns the energy-delay product of a run: total energy times cycle
// count (the clock is fixed at 2 GHz across configurations, §V).
func EDP(cfg *config.Config, res *core.Result) float64 {
	b := Energy(cfg, res)
	return b.Total() * float64(res.Cycles)
}
