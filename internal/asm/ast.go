package asm

import (
	"fmt"

	"shelfsim/internal/isa"
)

// shape identifies an instruction's operand syntax.
type shape uint8

const (
	// shapeNone takes no operands (nop, fence).
	shapeNone shape = iota
	// shapeRRR is "rd, rs1, rs2" (add, mul, div, fadd.s, ...).
	shapeRRR
	// shapeRRI is "rd, rs1, imm" (addi, slli, ...).
	shapeRRI
	// shapeRI is "rd, imm" (li, lui).
	shapeRI
	// shapeRR is "rd, rs" (mv).
	shapeRR
	// shapeLoad is "rd, imm(rs1)" (lw, flw, ...).
	shapeLoad
	// shapeStore is "rs2, imm(rs1)" (sw, fsw, ...).
	shapeStore
	// shapeBranch is "rs1, rs2, label" (beq, bne, ...).
	shapeBranch
	// shapeJump is "label" (j).
	shapeJump
)

// opcode names one mnemonic's operation for the emulator, which
// switches on it rather than on the mnemonic's spelling.
type opcode uint8

const (
	opNop opcode = iota
	opFence
	opAdd
	opSub
	opAnd
	opOr
	opXor
	opSll
	opSrl
	opSra
	opSlt
	opSltu
	opMul
	opMulh
	opMulhu
	opMulhsu
	opDiv
	opDivu
	opRem
	opRemu
	opAddi
	opAndi
	opOri
	opXori
	opSlli
	opSrli
	opSrai
	opSlti
	opSltiu
	opLi
	opLui
	opMv
	opLw
	opLh
	opLhu
	opLb
	opLbu
	opSw
	opSh
	opSb
	opFlw
	opFsw
	opFadd
	opFsub
	opFmul
	opFdiv
	opBeq
	opBne
	opBlt
	opBge
	opBltu
	opBgeu
	opJ
)

// spec describes one mnemonic: its operand shape, its opcode, the
// micro-op class it lowers to, whether its register operands live in the
// FP file, and the access size for memory ops.
type spec struct {
	shape shape
	op    opcode
	class isa.OpClass
	fp    bool
	size  uint8
}

// specs is the mnemonic table. The parser rejects anything not listed
// here, so the lowering in assemble.go is total over parsed programs.
var specs = map[string]spec{
	"nop":   {shape: shapeNone, op: opNop, class: isa.OpNop},
	"fence": {shape: shapeNone, op: opFence, class: isa.OpBarrier},

	"add":  {shape: shapeRRR, op: opAdd, class: isa.OpIntAlu},
	"sub":  {shape: shapeRRR, op: opSub, class: isa.OpIntAlu},
	"and":  {shape: shapeRRR, op: opAnd, class: isa.OpIntAlu},
	"or":   {shape: shapeRRR, op: opOr, class: isa.OpIntAlu},
	"xor":  {shape: shapeRRR, op: opXor, class: isa.OpIntAlu},
	"sll":  {shape: shapeRRR, op: opSll, class: isa.OpIntAlu},
	"srl":  {shape: shapeRRR, op: opSrl, class: isa.OpIntAlu},
	"sra":  {shape: shapeRRR, op: opSra, class: isa.OpIntAlu},
	"slt":  {shape: shapeRRR, op: opSlt, class: isa.OpIntAlu},
	"sltu": {shape: shapeRRR, op: opSltu, class: isa.OpIntAlu},

	"mul":    {shape: shapeRRR, op: opMul, class: isa.OpIntMult},
	"mulh":   {shape: shapeRRR, op: opMulh, class: isa.OpIntMult},
	"mulhu":  {shape: shapeRRR, op: opMulhu, class: isa.OpIntMult},
	"mulhsu": {shape: shapeRRR, op: opMulhsu, class: isa.OpIntMult},
	"div":    {shape: shapeRRR, op: opDiv, class: isa.OpIntDiv},
	"divu":   {shape: shapeRRR, op: opDivu, class: isa.OpIntDiv},
	"rem":    {shape: shapeRRR, op: opRem, class: isa.OpIntDiv},
	"remu":   {shape: shapeRRR, op: opRemu, class: isa.OpIntDiv},

	"addi":  {shape: shapeRRI, op: opAddi, class: isa.OpIntAlu},
	"andi":  {shape: shapeRRI, op: opAndi, class: isa.OpIntAlu},
	"ori":   {shape: shapeRRI, op: opOri, class: isa.OpIntAlu},
	"xori":  {shape: shapeRRI, op: opXori, class: isa.OpIntAlu},
	"slli":  {shape: shapeRRI, op: opSlli, class: isa.OpIntAlu},
	"srli":  {shape: shapeRRI, op: opSrli, class: isa.OpIntAlu},
	"srai":  {shape: shapeRRI, op: opSrai, class: isa.OpIntAlu},
	"slti":  {shape: shapeRRI, op: opSlti, class: isa.OpIntAlu},
	"sltiu": {shape: shapeRRI, op: opSltiu, class: isa.OpIntAlu},

	"li":  {shape: shapeRI, op: opLi, class: isa.OpIntAlu},
	"lui": {shape: shapeRI, op: opLui, class: isa.OpIntAlu},
	"mv":  {shape: shapeRR, op: opMv, class: isa.OpIntAlu},

	"lw":  {shape: shapeLoad, op: opLw, class: isa.OpLoad, size: 4},
	"lh":  {shape: shapeLoad, op: opLh, class: isa.OpLoad, size: 2},
	"lhu": {shape: shapeLoad, op: opLhu, class: isa.OpLoad, size: 2},
	"lb":  {shape: shapeLoad, op: opLb, class: isa.OpLoad, size: 1},
	"lbu": {shape: shapeLoad, op: opLbu, class: isa.OpLoad, size: 1},
	"sw":  {shape: shapeStore, op: opSw, class: isa.OpStore, size: 4},
	"sh":  {shape: shapeStore, op: opSh, class: isa.OpStore, size: 2},
	"sb":  {shape: shapeStore, op: opSb, class: isa.OpStore, size: 1},

	"flw": {shape: shapeLoad, op: opFlw, class: isa.OpLoad, fp: true, size: 4},
	"fsw": {shape: shapeStore, op: opFsw, class: isa.OpStore, fp: true, size: 4},

	"fadd.s": {shape: shapeRRR, op: opFadd, class: isa.OpFPAdd, fp: true},
	"fsub.s": {shape: shapeRRR, op: opFsub, class: isa.OpFPAdd, fp: true},
	"fmul.s": {shape: shapeRRR, op: opFmul, class: isa.OpFPMult, fp: true},
	"fdiv.s": {shape: shapeRRR, op: opFdiv, class: isa.OpFPDiv, fp: true},

	"beq":  {shape: shapeBranch, op: opBeq, class: isa.OpBranch},
	"bne":  {shape: shapeBranch, op: opBne, class: isa.OpBranch},
	"blt":  {shape: shapeBranch, op: opBlt, class: isa.OpBranch},
	"bge":  {shape: shapeBranch, op: opBge, class: isa.OpBranch},
	"bltu": {shape: shapeBranch, op: opBltu, class: isa.OpBranch},
	"bgeu": {shape: shapeBranch, op: opBgeu, class: isa.OpBranch},
	"j":    {shape: shapeJump, op: opJ, class: isa.OpBranch},
}

// Instruction is one static instruction of a parsed program. Register
// operands use the lowered numbering (x0..x31 -> 0..31, f0..f31 ->
// 32..63); absent operands are -1. Branch targets are resolved to static
// instruction indices (len(File.Insts) is a legal target: a label on the
// final line branches to the wrap point).
type Instruction struct {
	// Pos anchors diagnostics for this instruction.
	Pos Pos
	// Mnemonic is the canonical lower-case spelling.
	Mnemonic string
	// Rd, Rs1, Rs2 are register operands (-1 when absent). For stores,
	// Rs1 is the address base and Rs2 the data register.
	Rd, Rs1, Rs2 int
	// Imm is the immediate operand (ALU immediates and memory offsets) as
	// a 32-bit two's-complement pattern.
	Imm int32
	// Target is the branch target's static instruction index (-1 for
	// non-control instructions).
	Target int
}

// File is a parsed program before assembly: the resolved static
// instruction list plus the program-level directives.
type File struct {
	// Name is the program's .name, or "asm" when the directive is absent.
	Name string
	// Loop is the .loop execution-schedule bound, or 0 when the directive
	// is absent (Assemble substitutes DefaultScheduleBound).
	Loop int64
	// LoopPos anchors diagnostics about the .loop bound (zero when the
	// directive is absent).
	LoopPos Pos
	// Insts is the static instruction list in source order.
	Insts []Instruction
}

// regName renders a lowered register number in source syntax.
func regName(r int) string {
	if r >= numIntRegs {
		return fmt.Sprintf("f%d", r-numIntRegs)
	}
	return fmt.Sprintf("x%d", r)
}
