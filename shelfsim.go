// Package shelfsim is the public API of the shelf reproduction: it wires
// workload kernels to the hybrid OOO/in-order SMT core and runs timing
// simulations, exposing the paper's configurations (Table I), steering
// policies (§IV) and measurement machinery (STP, EDP, in-sequence
// statistics).
//
// Quick start:
//
//	res, err := shelfsim.Run(ctx, shelfsim.Request{
//		Preset:  "shelf64-opt",
//		Kernels: []string{"stream", "ptrchase", "branchy", "matblock"},
//		Insts:   100_000,
//	})
//
// Request is both the library entry point and the shelfd wire format: the
// same JSON document runs in-process, over HTTP against cmd/shelfd, or
// through the shelfsim/client package, with bit-identical results. See
// examples/ for complete programs, cmd/experiments for the harness that
// regenerates every figure and table in the paper, and cmd/shelfd for the
// network service.
package shelfsim

import (
	"shelfsim/internal/asm"
	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/isa"
	"shelfsim/internal/workload"
)

// Inst is one dynamic micro-op of a workload stream.
type Inst = isa.Inst

// Config is the full simulator configuration; use the preset constructors
// and adjust fields as needed.
type Config = config.Config

// SteerKind selects a dispatch steering policy.
type SteerKind = config.SteerKind

// Steering policies (§IV).
const (
	SteerAllIQ     = config.SteerAllIQ
	SteerAllShelf  = config.SteerAllShelf
	SteerOracle    = config.SteerOracle
	SteerPractical = config.SteerPractical
	SteerCoarse    = config.SteerCoarse
)

// Result is a completed run's summary; Threads holds per-thread outcomes.
type Result = core.Result

// Stats is the core-wide counter set of a run.
type Stats = core.Stats

// ThreadResult summarizes one thread of a run.
type ThreadResult = core.ThreadResult

// Kernel is a synthetic benchmark program.
type Kernel = workload.Kernel

// Mix is a multiprogrammed workload (one kernel per thread).
type Mix = workload.Mix

// Program is an assembled workload program: validated source, its
// canonical rendering (String) and its execution-schedule fingerprint.
// Obtain one with Assemble or by resolving a Request with Programs set.
type Program = asm.Program

// AsmError is a positioned assembler diagnostic (1-based line and
// column). Program-backed Requests that fail to assemble return a
// *FieldError naming "programs[i]" whose cause unwraps (errors.As) to a
// *AsmError locating the offending token.
type AsmError = asm.Error

// AsmOptions tunes program assembly; the zero value applies the
// assembler's defaults.
type AsmOptions = asm.Options

// Assemble compiles one assembly program (see internal/asm for the
// dialect) without running it: CLIs use it to syntax-check .s files and
// print canonical forms, and tests use it to fingerprint workloads.
func Assemble(src string, opt AsmOptions) (*Program, error) {
	return asm.Assemble(src, opt)
}

// NewFieldError attributes err to a request field, preserving it as the
// unwrap cause. Clients reconstruct server-side diagnostics with it.
func NewFieldError(field string, err error) *FieldError {
	return config.WrapFielderr(field, err)
}

// Base64 returns the paper's baseline core: 64-entry ROB, 32-entry
// IQ/LQ/SQ, no shelf.
func Base64(threads int) Config { return config.Base64(threads) }

// Base128 returns the doubled core: the paper's upper bound.
func Base128(threads int) Config { return config.Base128(threads) }

// Shelf64 returns Base64 plus a 64-entry shelf with practical steering;
// optimistic selects the §III-A same-cycle-issue assumption.
func Shelf64(threads int, optimistic bool) Config {
	return config.Shelf64(threads, optimistic)
}

// Coarse64 returns the MorphCore-style coarse-grain switching comparison
// point: whole threads flip between OOO and in-order modes every interval
// retired instructions.
func Coarse64(threads int, interval int64) Config {
	return config.Coarse64(threads, interval)
}

// Kernels returns the benchmark suite in canonical order.
func Kernels() []*Kernel { return workload.Kernels() }

// KernelByName resolves a benchmark name.
func KernelByName(name string) (*Kernel, error) { return workload.ByName(name) }

// PaperMixes returns the 28 balanced-random mixes used by the evaluation.
func PaperMixes(threads int) []Mix { return workload.PaperMixes(threads) }

// DefaultMaxCyclesPerInst bounds runaway simulations: a run aborts after
// this many cycles per requested instruction.
const DefaultMaxCyclesPerInst = 64
