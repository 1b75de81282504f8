package asm

import (
	"math"

	"shelfsim/internal/isa"
)

// fromBits and toBits move float32 values to and from their raw IEEE-754
// encodings (FP registers and memory hold bits, not values).
func fromBits(v uint32) float32 { return math.Float32frombits(v) }
func toBits(f float32) uint32   { return math.Float32bits(f) }

// decoded is one static instruction pre-decoded for the emulator: its
// opcode, register-file indices, immediate and branch target, and the
// micro-op every dynamic instance of it starts from. step copies tmpl
// and writes only Addr (loads and stores) and Taken (conditional
// branches); every other field of a dynamic micro-op is fixed here.
type decoded struct {
	op           opcode
	rd, rs1, rs2 uint8 // absent operands decode to x0
	imm          uint32
	target       int
	tmpl         isa.Inst
}

// decode resolves every instruction's mnemonic once, so the emulator
// switches on an opcode rather than a string per dynamic step. The
// result has one more entry than insts: the closing back edge, an
// always-taken branch from the wrap point to the first instruction.
func decode(insts []Instruction, pcBase uint64) []decoded {
	pcOf := func(i int) uint64 { return pcBase + uint64(i)*4 }
	reg := func(r int) uint8 { return uint8(max(r, 0)) }
	code := make([]decoded, len(insts)+1)
	for i := range insts {
		in := &insts[i]
		sp := specs[in.Mnemonic]
		d := &code[i]
		d.op = sp.op
		d.rd, d.rs1, d.rs2 = reg(in.Rd), reg(in.Rs1), reg(in.Rs2)
		d.imm = uint32(in.Imm)
		d.target = in.Target
		// Absent operands are -1 == isa.RegInvalid; a store's base and
		// data registers are its two sources, as a branch's are.
		d.tmpl = isa.Inst{
			PC:    pcOf(i),
			Op:    sp.class,
			Dest:  int16(in.Rd),
			Srcs:  [isa.MaxSrcs]int16{int16(in.Rs1), int16(in.Rs2), isa.RegInvalid},
			Size:  sp.size,
			Taken: sp.shape == shapeJump,
		}
		if in.Target >= 0 {
			d.tmpl.Target = pcOf(in.Target)
		}
	}
	code[len(insts)] = decoded{op: opJ, tmpl: isa.Inst{
		PC:     pcOf(len(insts)),
		Op:     isa.OpBranch,
		Dest:   isa.RegInvalid,
		Srcs:   [isa.MaxSrcs]int16{isa.RegInvalid, isa.RegInvalid, isa.RegInvalid},
		Taken:  true,
		Target: pcOf(0),
	}}
	return code
}

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	// maxPages bounds paged memory at 1 MiB per emulator run. A program
	// that stores to more pages (at most two per store, so up to 2^21
	// under MaxScheduleBound) keeps its later bytes in a per-byte map,
	// whose size follows the bytes stored rather than the pages touched.
	maxPages = 256
)

// page is 4 KiB of emulator memory, allocated on the first store into
// it and filled with memDefault's bytes.
type page [pageSize]byte

// machine is the assembler's architectural emulator. Integer and FP
// registers share one file indexed by lowered register number (x0..x31,
// then f0..f31 holding float32 bit patterns); x0 is cleared after every
// write. Memory is paged: a page nobody stored to reads as memDefault
// without being allocated. Once maxPages pages exist no more are made;
// a store outside them goes to spill, and a byte in neither reads as
// memDefault.
type machine struct {
	r     [2 * numIntRegs]uint32
	pages map[uint32]*page
	spill map[uint32]byte
	// lastN and last cache the most recent page lookup (nil when page
	// lastN was never stored to). The zero values agree with an empty
	// page map.
	lastN uint32
	last  *page
}

func newMachine() *machine { return &machine{pages: make(map[uint32]*page)} }

// memDefault is the deterministic content of uninitialized memory: a
// hash of the byte address, so array-reading programs (dot product, CRC)
// see reproducible pseudo-random data without an initialization dance.
func memDefault(a uint32) byte {
	h := a * 0x9e3779b1
	h ^= h >> 16
	h *= 0x85ebca77
	h ^= h >> 13
	return byte(h)
}

// page returns page n, or nil if it was never stored to.
func (m *machine) page(n uint32) *page {
	if n != m.lastN {
		m.lastN, m.last = n, m.pages[n]
	}
	return m.last
}

func (m *machine) loadByte(a uint32) byte {
	if pg := m.page(a >> pageBits); pg != nil {
		return pg[a&pageMask]
	}
	if m.spill != nil {
		if b, ok := m.spill[a]; ok {
			return b
		}
	}
	return memDefault(a)
}

func (m *machine) storeByte(a uint32, b byte) {
	n := a >> pageBits
	pg := m.page(n)
	if pg == nil {
		if len(m.pages) == maxPages {
			if m.spill == nil {
				m.spill = make(map[uint32]byte)
			}
			m.spill[a] = b
			return
		}
		pg = new(page)
		base := n << pageBits
		for i := range pg {
			pg[i] = memDefault(base + uint32(i))
		}
		m.pages[n] = pg
		m.last = pg
	}
	pg[a&pageMask] = b
}

// load reads size little-endian bytes at a. Byte addresses wrap at 2^32,
// and an access may straddle pages.
func (m *machine) load(a uint32, size uint8) uint32 {
	var v uint32
	for i := uint32(0); i < uint32(size); i++ {
		v |= uint32(m.loadByte(a+i)) << (8 * i)
	}
	return v
}

// store writes size little-endian bytes at a.
func (m *machine) store(a uint32, size uint8, v uint32) {
	for i := uint32(0); i < uint32(size); i++ {
		m.storeByte(a+i, byte(v>>(8*i)))
	}
}

// signExtend widens the low size bytes of v.
func signExtend(v uint32, size uint8) uint32 {
	shift := 32 - 8*uint32(size)
	return uint32(int32(v<<shift) >> shift)
}

// unroll emulates one pass of the program, handing each dynamic micro-op
// and its static index to emit in order, closes the pass with the
// back-edge branch, and returns the schedule length. emit must not keep
// the pointer.
func (p *Program) unroll(emit func(i int, u *isa.Inst)) (int, *Error) {
	m := newMachine()
	var u isa.Inst
	var n int64
	for pc := 0; pc < len(p.insts); n++ {
		if n >= p.bound {
			in := &p.insts[pc]
			return 0, errf(in.Pos,
				"execution schedule exceeded the .loop bound %d before falling through the end (one pass of the program is unrolled and replayed; close infinite loops by falling through instead)",
				p.bound)
		}
		i := pc
		pc = p.step(m, pc, &u)
		emit(i, &u)
	}
	emit(len(p.insts), &p.code[len(p.insts)].tmpl)
	return int(n) + 1, nil
}

// step emulates the instruction at static index pc, lowers it into the
// dynamic micro-op *u and returns the next static index.
func (p *Program) step(m *machine, pc int, u *isa.Inst) int {
	d := &p.code[pc]
	*u = d.tmpl
	a, b := m.r[d.rs1], m.r[d.rs2]
	ea := a + d.imm
	var v uint32
	switch d.op {
	case opNop, opFence:
		return pc + 1

	case opAdd:
		v = a + b
	case opSub:
		v = a - b
	case opAnd:
		v = a & b
	case opOr:
		v = a | b
	case opXor:
		v = a ^ b
	case opSll:
		v = a << (b & 31)
	case opSrl:
		v = a >> (b & 31)
	case opSra:
		v = uint32(int32(a) >> (b & 31))
	case opSlt:
		v = b2u(int32(a) < int32(b))
	case opSltu:
		v = b2u(a < b)
	case opMul:
		v = a * b
	case opMulh:
		v = uint32((int64(int32(a)) * int64(int32(b))) >> 32)
	case opMulhu:
		v = uint32((uint64(a) * uint64(b)) >> 32)
	case opMulhsu:
		v = uint32((int64(int32(a)) * int64(b)) >> 32)
	case opDiv:
		v = divRV(a, b, false)
	case opDivu:
		v = ^uint32(0)
		if b != 0 {
			v = a / b
		}
	case opRem:
		v = divRV(a, b, true)
	case opRemu:
		v = a
		if b != 0 {
			v = a % b
		}

	case opAddi:
		v = a + d.imm
	case opAndi:
		v = a & d.imm
	case opOri:
		v = a | d.imm
	case opXori:
		v = a ^ d.imm
	case opSlli:
		v = a << (d.imm & 31)
	case opSrli:
		v = a >> (d.imm & 31)
	case opSrai:
		v = uint32(int32(a) >> (d.imm & 31))
	case opSlti:
		v = b2u(int32(a) < int32(d.imm))
	case opSltiu:
		v = b2u(a < d.imm)
	case opLi:
		v = d.imm
	case opLui:
		v = d.imm << 12
	case opMv:
		v = a

	case opLw, opLhu, opLbu, opFlw:
		u.Addr = uint64(ea)
		v = m.load(ea, u.Size)
	case opLh, opLb:
		u.Addr = uint64(ea)
		v = signExtend(m.load(ea, u.Size), u.Size)
	case opSw, opSh, opSb, opFsw:
		u.Addr = uint64(ea)
		m.store(ea, u.Size, b)
		return pc + 1

	case opFadd:
		v = toBits(fromBits(a) + fromBits(b))
	case opFsub:
		v = toBits(fromBits(a) - fromBits(b))
	case opFmul:
		v = toBits(fromBits(a) * fromBits(b))
	case opFdiv:
		v = toBits(fromBits(a) / fromBits(b))

	case opBeq, opBne, opBlt, opBge, opBltu, opBgeu:
		if branchTaken(d.op, a, b) {
			u.Taken = true
			return d.target
		}
		return pc + 1
	case opJ:
		return d.target
	}
	m.r[d.rd] = v
	m.r[0] = 0
	return pc + 1
}

// b2u is 1 for true and 0 for false.
func b2u(c bool) uint32 {
	if c {
		return 1
	}
	return 0
}

// divRV implements RISC-V signed division semantics: division by zero
// yields -1 (quotient) or the dividend (remainder); the INT_MIN / -1
// overflow yields INT_MIN (quotient) or 0 (remainder).
func divRV(a, b uint32, rem bool) uint32 {
	sa, sb := int32(a), int32(b)
	switch {
	case sb == 0:
		if rem {
			return a
		}
		return ^uint32(0)
	case sa == -1<<31 && sb == -1:
		if rem {
			return 0
		}
		return a
	case rem:
		return uint32(sa % sb)
	default:
		return uint32(sa / sb)
	}
}

// branchTaken evaluates a conditional branch.
func branchTaken(op opcode, a, b uint32) bool {
	switch op {
	case opBeq:
		return a == b
	case opBne:
		return a != b
	case opBlt:
		return int32(a) < int32(b)
	case opBge:
		return int32(a) >= int32(b)
	case opBltu:
		return a < b
	default: // opBgeu
		return a >= b
	}
}
