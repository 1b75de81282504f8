package asm

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"sync"

	"shelfsim/internal/isa"
)

// fromBits and toBits move float32 values to and from their raw IEEE-754
// encodings (flw/fsw transfer bits, not values).
func fromBits(v uint32) float32 { return math.Float32frombits(v) }
func toBits(f float32) uint32   { return math.Float32bits(f) }

const (
	// DefaultScheduleBound is the execution-schedule bound used when a
	// program has no .loop directive: one pass of the program may execute
	// at most this many dynamic instructions before it must fall through
	// past the last instruction.
	DefaultScheduleBound = 65536
	// MaxScheduleBound is the hard ceiling on .loop bounds (and therefore
	// on unrolled schedule memory), regardless of configuration.
	MaxScheduleBound = 1 << 20
	// pcRegion is the base of the address region program PCs live in,
	// disjoint from the synthetic kernels' 0x10000.. region.
	pcRegion = 0x00400000
)

// Options tunes assembly. The zero value is ready to use.
type Options struct {
	// MaxSchedule caps the execution-schedule bound a program may request
	// via .loop (and the default bound). 0 means MaxScheduleBound; values
	// above MaxScheduleBound are clamped to it.
	MaxSchedule int64
}

// Program is an assembled program: the canonical static instruction list
// plus the unrolled execution schedule the simulator replays. Programs
// are immutable once assembled and safe to share between threads; each
// call to NewStream yields an independent replay cursor.
//
// Execution semantics: the program runs once from its first instruction,
// with 32-bit integer registers (x0 hardwired zero), float32 FP
// registers, and a sparse byte-addressed memory whose uninitialized
// bytes read as a deterministic hash of their address. When control
// falls through past the last instruction the pass ends; the assembler
// closes the schedule with an always-taken branch back to the top, and
// the stream replays the pass forever — the same endless-loop shape the
// synthetic kernels emit. A pass must end within the .loop bound
// (DefaultScheduleBound without the directive): a program that loops
// forever fails to assemble instead of hanging the simulator.
//
// Assemble emulates the pass once, fingerprinting each micro-op as it is
// emitted and counting the schedule length, but keeps no schedule. The
// []isa.Inst schedule is built on the first NewStream, at its exact
// length, by re-running the same deterministic emulator; a program that
// is only fingerprinted (a cache hit) never allocates one.
type Program struct {
	name  string
	bound int64
	insts []Instruction
	// specs holds each static instruction's resolved mnemonic spec, so
	// the emulator looks the table up once per instruction, not once per
	// dynamic step.
	specs []spec

	pcBase   uint64
	fp       string
	schedLen int

	schedOnce sync.Once
	sched     []isa.Inst
}

// Assemble lexes, parses, resolves and emulates one program, computing
// its schedule fingerprint. Every failure is a positioned *Error.
func Assemble(src string, opt Options) (*Program, error) {
	f, perr := parse(src)
	if perr != nil {
		return nil, perr
	}
	if len(f.Insts) == 0 {
		return nil, &Error{Line: 1, Col: 1, Msg: "program has no instructions"}
	}
	bound := f.Loop
	if bound == 0 {
		bound = DefaultScheduleBound
	}
	maxSched := opt.MaxSchedule
	if maxSched <= 0 || maxSched > MaxScheduleBound {
		maxSched = MaxScheduleBound
	}
	if bound > maxSched {
		pos := f.LoopPos
		if pos.Line == 0 {
			pos = Pos{Line: 1, Col: 1}
		}
		return nil, errf(pos, ".loop bound %d exceeds the limit %d", bound, maxSched)
	}

	p := &Program{name: f.Name, bound: bound, insts: f.Insts, specs: make([]spec, len(f.Insts))}
	for i := range f.Insts {
		p.specs[i] = specs[f.Insts[i].Mnemonic]
	}
	p.pcBase = pcRegion | (staticHash(f.Name, bound, f.Insts)&0xffff)<<6
	h := newScheduleHasher(p)
	n, err := p.unroll(h.add)
	if err != nil {
		return nil, err
	}
	p.schedLen = n
	p.fp = h.sum()
	return p, nil
}

// staticHash fingerprints the resolved static program (name, bound and
// every instruction), fixing the PC layout: identical programs — however
// they were spelled — land on identical PCs.
func staticHash(name string, bound int64, insts []Instruction) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", name, bound)
	for i := range insts {
		in := &insts[i]
		fmt.Fprintf(h, "|%s %d %d %d %d %d",
			in.Mnemonic, in.Rd, in.Rs1, in.Rs2, in.Imm, in.Target)
	}
	return h.Sum64()
}

// scheduleHasher fingerprints the unrolled execution schedule —
// everything the stream will emit, and therefore everything that can
// influence the simulation — one micro-op at a time. Each micro-op is
// rendered as the text "%x %d %d %d,%d,%d %x %d %t %x|" of its PC, Op,
// Dest, Srcs, Addr, Size, Taken and Target, built with strconv into one
// reused buffer, and fed to FNV-1a. PC, Op, Dest and Srcs are fixed by
// the static instruction, so their rendering is cached per static PC.
type scheduleHasher struct {
	h      hash.Hash64
	pcBase uint64
	prefix [][]byte // indexed by static instruction, the back edge last
	buf    []byte
}

func newScheduleHasher(p *Program) *scheduleHasher {
	return &scheduleHasher{
		h:      fnv.New64a(),
		pcBase: p.pcBase,
		prefix: make([][]byte, len(p.insts)+1),
		buf:    make([]byte, 0, 128),
	}
}

func (s *scheduleHasher) add(u isa.Inst) {
	i := (u.PC - s.pcBase) / 4
	b := s.prefix[i]
	if b == nil {
		b = strconv.AppendUint(s.buf[:0], u.PC, 16)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(u.Op), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(u.Dest), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(u.Srcs[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(u.Srcs[1]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(u.Srcs[2]), 10)
		b = append(b, ' ')
		s.prefix[i] = append([]byte(nil), b...)
	}
	b = append(s.buf[:0], b...)
	b = strconv.AppendUint(b, u.Addr, 16)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(u.Size), 10)
	b = append(b, ' ')
	b = strconv.AppendBool(b, u.Taken)
	b = append(b, ' ')
	b = strconv.AppendUint(b, u.Target, 16)
	b = append(b, '|')
	s.h.Write(b)
	s.buf = b
}

func (s *scheduleHasher) sum() string { return fmt.Sprintf("%016x", s.h.Sum64()) }

// Name returns the program's .name (or "asm").
func (p *Program) Name() string { return p.name }

// Bound returns the resolved execution-schedule bound.
func (p *Program) Bound() int64 { return p.bound }

// StaticLen returns the static instruction count.
func (p *Program) StaticLen() int { return len(p.insts) }

// ScheduleLen returns the unrolled schedule length, including the
// closing back-edge branch. It is known from assembly; it does not build
// the schedule.
func (p *Program) ScheduleLen() int { return p.schedLen }

// PCBase returns the program's first instruction address.
func (p *Program) PCBase() uint64 { return p.pcBase }

// Fingerprint returns a stable hash of the unrolled execution schedule:
// two programs with equal fingerprints drive the simulator identically.
func (p *Program) Fingerprint() string { return p.fp }

// schedule returns the unrolled execution schedule, building it on the
// first call by re-running the emulator Assemble fingerprinted. The
// emulator is deterministic and that run succeeded, so a failure or a
// length change here is a bug.
func (p *Program) schedule() []isa.Inst {
	p.schedOnce.Do(func() {
		sched := make([]isa.Inst, 0, p.schedLen)
		n, err := p.unroll(func(u isa.Inst) { sched = append(sched, u) })
		if err != nil || n != p.schedLen {
			panic(fmt.Sprintf("asm: re-unrolling %s gave %d instructions (err %v), assembly counted %d",
				p.name, n, err, p.schedLen))
		}
		p.sched = sched
	})
	return p.sched
}

// pcOf returns the static PC of instruction index i (i == len(insts) is
// the wrap point, where the closing back edge lives).
func (p *Program) pcOf(i int) uint64 { return p.pcBase + uint64(i)*4 }

// machine is the assembler's architectural emulator.
type machine struct {
	x   [32]uint32
	f   [32]float32
	mem map[uint32]byte
}

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

func (m *machine) loadByte(a uint32) byte {
	if b, ok := m.mem[a]; ok {
		return b
	}
	return memDefault(a)
}

// load reads size little-endian bytes at a.
func (m *machine) load(a uint32, size uint8) uint32 {
	var v uint32
	for i := uint8(0); i < size; i++ {
		v |= uint32(m.loadByte(a+uint32(i))) << (8 * i)
	}
	return v
}

// store writes size little-endian bytes at a.
func (m *machine) store(a uint32, size uint8, v uint32) {
	for i := uint8(0); i < size; i++ {
		m.mem[a+uint32(i)] = byte(v >> (8 * i))
	}
}

// setX writes an integer register; x0 stays zero.
func (m *machine) setX(r int, v uint32) {
	if r != 0 {
		m.x[r] = v
	}
}

// signExtend widens the low size bytes of v.
func signExtend(v uint32, size uint8) uint32 {
	shift := 32 - 8*uint32(size)
	return uint32(int32(v<<shift) >> shift)
}

// unroll emulates one pass of the program, handing each dynamic micro-op
// to emit in order, closes the pass with the back-edge branch, and
// returns the schedule length.
func (p *Program) unroll(emit func(isa.Inst)) (int, *Error) {
	m := &machine{mem: make(map[uint32]byte)}
	var n int64
	for pc := 0; pc < len(p.insts); n++ {
		if n >= p.bound {
			in := &p.insts[pc]
			return 0, errf(in.Pos,
				"execution schedule exceeded the .loop bound %d before falling through the end (one pass of the program is unrolled and replayed; close infinite loops by falling through instead)",
				p.bound)
		}
		var u isa.Inst
		pc = p.step(m, pc, &u)
		emit(u)
	}
	emit(isa.Inst{
		PC:     p.pcOf(len(p.insts)),
		Op:     isa.OpBranch,
		Dest:   isa.RegInvalid,
		Srcs:   [isa.MaxSrcs]int16{isa.RegInvalid, isa.RegInvalid, isa.RegInvalid},
		Taken:  true,
		Target: p.pcOf(0),
	})
	return int(n) + 1, nil
}

// step emulates the instruction at static index pc, lowers it into the
// dynamic micro-op *u and returns the next static index.
func (p *Program) step(m *machine, pc int, u *isa.Inst) int {
	in := &p.insts[pc]
	sp := &p.specs[pc]
	*u = isa.Inst{
		PC:   p.pcOf(pc),
		Op:   sp.class,
		Dest: isa.RegInvalid,
		Srcs: [isa.MaxSrcs]int16{isa.RegInvalid, isa.RegInvalid, isa.RegInvalid},
	}
	next := pc + 1

	switch sp.shape {
	case shapeNone:
		// nop, fence: no operands, no state change.
	case shapeRRR:
		u.Dest = int16(in.Rd)
		u.Srcs[0] = int16(in.Rs1)
		u.Srcs[1] = int16(in.Rs2)
		if sp.fp {
			p.fpOp(m, in)
		} else {
			m.setX(in.Rd, aluOp(in.Mnemonic, m.x[in.Rs1], m.x[in.Rs2]))
		}
	case shapeRRI:
		u.Dest = int16(in.Rd)
		u.Srcs[0] = int16(in.Rs1)
		imm := uint32(in.Imm)
		var v uint32
		switch in.Mnemonic {
		case "addi":
			v = m.x[in.Rs1] + imm
		case "andi":
			v = m.x[in.Rs1] & imm
		case "ori":
			v = m.x[in.Rs1] | imm
		case "xori":
			v = m.x[in.Rs1] ^ imm
		case "slli":
			v = m.x[in.Rs1] << (imm & 31)
		case "srli":
			v = m.x[in.Rs1] >> (imm & 31)
		case "srai":
			v = uint32(int32(m.x[in.Rs1]) >> (imm & 31))
		case "slti":
			if int32(m.x[in.Rs1]) < in.Imm {
				v = 1
			}
		case "sltiu":
			if m.x[in.Rs1] < imm {
				v = 1
			}
		}
		m.setX(in.Rd, v)
	case shapeRI:
		u.Dest = int16(in.Rd)
		if in.Mnemonic == "lui" {
			m.setX(in.Rd, uint32(in.Imm)<<12)
		} else { // li
			m.setX(in.Rd, uint32(in.Imm))
		}
	case shapeRR: // mv
		u.Dest = int16(in.Rd)
		u.Srcs[0] = int16(in.Rs1)
		m.setX(in.Rd, m.x[in.Rs1])
	case shapeLoad:
		u.Dest = int16(in.Rd)
		u.Srcs[0] = int16(in.Rs1)
		addr := m.x[in.Rs1] + uint32(in.Imm)
		u.Addr = uint64(addr)
		u.Size = sp.size
		v := m.load(addr, sp.size)
		switch in.Mnemonic {
		case "lw":
			m.setX(in.Rd, v)
		case "lh", "lb":
			m.setX(in.Rd, signExtend(v, sp.size))
		case "lhu", "lbu":
			m.setX(in.Rd, v)
		case "flw":
			m.f[in.Rd-numIntRegs] = fromBits(v)
		}
	case shapeStore:
		u.Srcs[0] = int16(in.Rs1)
		u.Srcs[1] = int16(in.Rs2)
		addr := m.x[in.Rs1] + uint32(in.Imm)
		u.Addr = uint64(addr)
		u.Size = sp.size
		if sp.fp {
			m.store(addr, sp.size, toBits(m.f[in.Rs2-numIntRegs]))
		} else {
			m.store(addr, sp.size, m.x[in.Rs2])
		}
	case shapeBranch:
		u.Srcs[0] = int16(in.Rs1)
		u.Srcs[1] = int16(in.Rs2)
		u.Target = p.pcOf(in.Target)
		if branchTaken(in.Mnemonic, m.x[in.Rs1], m.x[in.Rs2]) {
			u.Taken = true
			next = in.Target
		}
	case shapeJump:
		u.Taken = true
		u.Target = p.pcOf(in.Target)
		next = in.Target
	}

	return next
}

// aluOp evaluates an integer register-register operation.
func aluOp(mnemonic string, a, b uint32) uint32 {
	switch mnemonic {
	case "add":
		return a + b
	case "sub":
		return a - b
	case "and":
		return a & b
	case "or":
		return a | b
	case "xor":
		return a ^ b
	case "sll":
		return a << (b & 31)
	case "srl":
		return a >> (b & 31)
	case "sra":
		return uint32(int32(a) >> (b & 31))
	case "slt":
		if int32(a) < int32(b) {
			return 1
		}
		return 0
	case "sltu":
		if a < b {
			return 1
		}
		return 0
	case "mul":
		return a * b
	case "mulh":
		return uint32((int64(int32(a)) * int64(int32(b))) >> 32)
	case "mulhu":
		return uint32((uint64(a) * uint64(b)) >> 32)
	case "mulhsu":
		return uint32((int64(int32(a)) * int64(b)) >> 32)
	case "div":
		return divRV(a, b, false)
	case "divu":
		if b == 0 {
			return ^uint32(0)
		}
		return a / b
	case "rem":
		return divRV(a, b, true)
	case "remu":
		if b == 0 {
			return a
		}
		return a % b
	default:
		return 0
	}
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

// fpOp evaluates a single-precision FP operation in IEEE-754 float32
// arithmetic (bit-reproducible across platforms).
func (p *Program) fpOp(m *machine, in *Instruction) {
	a := m.f[in.Rs1-numIntRegs]
	b := m.f[in.Rs2-numIntRegs]
	var v float32
	switch in.Mnemonic {
	case "fadd.s":
		v = a + b
	case "fsub.s":
		v = a - b
	case "fmul.s":
		v = a * b
	case "fdiv.s":
		v = a / b
	}
	m.f[in.Rd-numIntRegs] = v
}

// branchTaken evaluates a conditional branch.
func branchTaken(mnemonic string, a, b uint32) bool {
	switch mnemonic {
	case "beq":
		return a == b
	case "bne":
		return a != b
	case "blt":
		return int32(a) < int32(b)
	case "bge":
		return int32(a) >= int32(b)
	case "bltu":
		return a < b
	case "bgeu":
		return a >= b
	default:
		return false
	}
}

// String renders the canonical source form: .name and .loop first, then
// every static instruction with generated "L<index>" labels at branch
// targets. The rendering is a fixpoint — assembling it again yields a
// byte-identical canonical form and an identical execution schedule —
// which is what makes "source text" a stable workload identity.
func (p *Program) String() string {
	targets := make(map[int]bool)
	for i := range p.insts {
		if t := p.insts[i].Target; t >= 0 {
			targets[t] = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".name %s\n.loop %d\n", p.name, p.bound)
	for i := range p.insts {
		if targets[i] {
			fmt.Fprintf(&b, "L%d:\n", i)
		}
		b.WriteByte('\t')
		p.renderInst(&b, &p.insts[i])
		b.WriteByte('\n')
	}
	if targets[len(p.insts)] {
		fmt.Fprintf(&b, "L%d:\n", len(p.insts))
	}
	return b.String()
}

// renderInst writes one instruction in canonical syntax.
func (p *Program) renderInst(b *strings.Builder, in *Instruction) {
	sp := specs[in.Mnemonic]
	b.WriteString(in.Mnemonic)
	switch sp.shape {
	case shapeNone:
	case shapeRRR:
		fmt.Fprintf(b, " %s, %s, %s", regName(in.Rd), regName(in.Rs1), regName(in.Rs2))
	case shapeRRI:
		fmt.Fprintf(b, " %s, %s, %d", regName(in.Rd), regName(in.Rs1), in.Imm)
	case shapeRI:
		fmt.Fprintf(b, " %s, %d", regName(in.Rd), in.Imm)
	case shapeRR:
		fmt.Fprintf(b, " %s, %s", regName(in.Rd), regName(in.Rs1))
	case shapeLoad:
		fmt.Fprintf(b, " %s, %d(%s)", regName(in.Rd), in.Imm, regName(in.Rs1))
	case shapeStore:
		fmt.Fprintf(b, " %s, %d(%s)", regName(in.Rs2), in.Imm, regName(in.Rs1))
	case shapeBranch:
		fmt.Fprintf(b, " %s, %s, L%d", regName(in.Rs1), regName(in.Rs2), in.Target)
	case shapeJump:
		fmt.Fprintf(b, " L%d", in.Target)
	}
}
