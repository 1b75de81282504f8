package asm

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"shelfsim/internal/isa"
)

// This file holds the executable specification the assembler is checked
// against: the fmt formula that defines the schedule fingerprint, and a
// straightforward emulator (per-byte map memory, string switches on the
// mnemonic, separate integer and float32 register files) that defines
// the execution schedule. Assemble's pre-decoded emulator and streaming
// hasher must agree with both on every program.

// referenceScheduleHash is the fmt-based definition of the schedule
// fingerprint: FNV-1a over "%x %d %d %d,%d,%d %x %d %t %x|" of every
// micro-op. Assemble's streaming hasher must produce the same string
// without fmt; this is the formula it is checked against.
func referenceScheduleHash(sched []isa.Inst) string {
	h := fnv.New64a()
	for i := range sched {
		u := &sched[i]
		fmt.Fprintf(h, "%x %d %d %d,%d,%d %x %d %t %x|",
			u.PC, u.Op, u.Dest, u.Srcs[0], u.Srcs[1], u.Srcs[2],
			u.Addr, u.Size, u.Taken, u.Target)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// referenceStaticHash is the fmt-based definition of staticHash, which
// places a program's PCs.
func referenceStaticHash(name string, bound int64, insts []Instruction) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", name, bound)
	for i := range insts {
		in := &insts[i]
		fmt.Fprintf(h, "|%s %d %d %d %d %d",
			in.Mnemonic, in.Rd, in.Rs1, in.Rs2, in.Imm, in.Target)
	}
	return h.Sum64()
}

// referenceMachine is the reference emulator's architectural state.
type referenceMachine struct {
	x   [32]uint32
	f   [32]float32
	mem map[uint32]byte
}

func (m *referenceMachine) load(a uint32, size uint8) uint32 {
	var v uint32
	for i := uint8(0); i < size; i++ {
		b, ok := m.mem[a+uint32(i)]
		if !ok {
			b = memDefault(a + uint32(i))
		}
		v |= uint32(b) << (8 * i)
	}
	return v
}

func (m *referenceMachine) store(a uint32, size uint8, v uint32) {
	for i := uint8(0); i < size; i++ {
		m.mem[a+uint32(i)] = byte(v >> (8 * i))
	}
}

func (m *referenceMachine) setX(r int, v uint32) {
	if r != 0 {
		m.x[r] = v
	}
}

// referenceUnroll emulates one pass of p's static program and returns
// its execution schedule, closed by the back-edge branch.
func referenceUnroll(p *Program) ([]isa.Inst, error) {
	m := &referenceMachine{mem: make(map[uint32]byte)}
	pcOf := func(i int) uint64 { return p.pcBase + uint64(i)*4 }
	var sched []isa.Inst
	for pc := 0; pc < len(p.insts); {
		if int64(len(sched)) >= p.bound {
			return nil, fmt.Errorf("schedule exceeded the bound %d", p.bound)
		}
		var u isa.Inst
		pc = referenceStep(m, p.insts, pc, pcOf, &u)
		sched = append(sched, u)
	}
	sched = append(sched, isa.Inst{
		PC:     pcOf(len(p.insts)),
		Op:     isa.OpBranch,
		Dest:   isa.RegInvalid,
		Srcs:   [isa.MaxSrcs]int16{isa.RegInvalid, isa.RegInvalid, isa.RegInvalid},
		Taken:  true,
		Target: pcOf(0),
	})
	return sched, nil
}

// referenceStep emulates insts[pc], lowers it into *u and returns the
// next static index.
func referenceStep(m *referenceMachine, insts []Instruction, pc int, pcOf func(int) uint64, u *isa.Inst) int {
	in := &insts[pc]
	sp := specs[in.Mnemonic]
	*u = isa.Inst{
		PC:   pcOf(pc),
		Op:   sp.class,
		Dest: isa.RegInvalid,
		Srcs: [isa.MaxSrcs]int16{isa.RegInvalid, isa.RegInvalid, isa.RegInvalid},
	}
	next := pc + 1

	switch sp.shape {
	case shapeNone:
	case shapeRRR:
		u.Dest = int16(in.Rd)
		u.Srcs[0] = int16(in.Rs1)
		u.Srcs[1] = int16(in.Rs2)
		if sp.fp {
			a, b := m.f[in.Rs1-numIntRegs], m.f[in.Rs2-numIntRegs]
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
		} else {
			m.setX(in.Rd, referenceALU(in.Mnemonic, m.x[in.Rs1], m.x[in.Rs2]))
		}
	case shapeRRI:
		u.Dest = int16(in.Rd)
		u.Srcs[0] = int16(in.Rs1)
		a, imm := m.x[in.Rs1], uint32(in.Imm)
		var v uint32
		switch in.Mnemonic {
		case "addi":
			v = a + imm
		case "andi":
			v = a & imm
		case "ori":
			v = a | imm
		case "xori":
			v = a ^ imm
		case "slli":
			v = a << (imm & 31)
		case "srli":
			v = a >> (imm & 31)
		case "srai":
			v = uint32(int32(a) >> (imm & 31))
		case "slti":
			if int32(a) < in.Imm {
				v = 1
			}
		case "sltiu":
			if a < imm {
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
		case "lw", "lhu", "lbu":
			m.setX(in.Rd, v)
		case "lh":
			m.setX(in.Rd, uint32(int32(int16(v))))
		case "lb":
			m.setX(in.Rd, uint32(int32(int8(v))))
		case "flw":
			m.f[in.Rd-numIntRegs] = math.Float32frombits(v)
		}
	case shapeStore:
		u.Srcs[0] = int16(in.Rs1)
		u.Srcs[1] = int16(in.Rs2)
		addr := m.x[in.Rs1] + uint32(in.Imm)
		u.Addr = uint64(addr)
		u.Size = sp.size
		if sp.fp {
			m.store(addr, sp.size, math.Float32bits(m.f[in.Rs2-numIntRegs]))
		} else {
			m.store(addr, sp.size, m.x[in.Rs2])
		}
	case shapeBranch:
		u.Srcs[0] = int16(in.Rs1)
		u.Srcs[1] = int16(in.Rs2)
		u.Target = pcOf(in.Target)
		a, b := m.x[in.Rs1], m.x[in.Rs2]
		var taken bool
		switch in.Mnemonic {
		case "beq":
			taken = a == b
		case "bne":
			taken = a != b
		case "blt":
			taken = int32(a) < int32(b)
		case "bge":
			taken = int32(a) >= int32(b)
		case "bltu":
			taken = a < b
		case "bgeu":
			taken = a >= b
		}
		if taken {
			u.Taken = true
			next = in.Target
		}
	case shapeJump:
		u.Taken = true
		u.Target = pcOf(in.Target)
		next = in.Target
	}
	return next
}

// referenceALU evaluates an integer register-register operation with
// RISC-V semantics.
func referenceALU(mnemonic string, a, b uint32) uint32 {
	sa, sb := int32(a), int32(b)
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
		return uint32(sa >> (b & 31))
	case "slt":
		if sa < sb {
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
		return uint32((int64(sa) * int64(sb)) >> 32)
	case "mulhu":
		return uint32((uint64(a) * uint64(b)) >> 32)
	case "mulhsu":
		return uint32((int64(sa) * int64(b)) >> 32)
	case "div":
		switch {
		case sb == 0:
			return ^uint32(0)
		case sa == math.MinInt32 && sb == -1:
			return a
		}
		return uint32(sa / sb)
	case "divu":
		if b == 0 {
			return ^uint32(0)
		}
		return a / b
	case "rem":
		switch {
		case sb == 0:
			return a
		case sa == math.MinInt32 && sb == -1:
			return 0
		}
		return uint32(sa % sb)
	case "remu":
		if b == 0 {
			return a
		}
		return a % b
	}
	return 0
}

// checkAgainstReference requires p's static hash to equal the reference
// formula's, p's schedule to equal the reference emulator's instruction
// for instruction, and p's fingerprint to equal the reference formula
// over the reference schedule.
func checkAgainstReference(t *testing.T, p *Program) {
	t.Helper()
	if got, want := staticHash(p.name, p.bound, p.insts), referenceStaticHash(p.name, p.bound, p.insts); got != want {
		t.Fatalf("staticHash %#x, reference formula gives %#x", got, want)
	}
	want, err := referenceUnroll(p)
	if err != nil {
		t.Fatalf("reference emulator rejects a program Assemble accepted: %v", err)
	}
	got := p.schedule()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("schedule differs from the reference at %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("schedule has %d instructions, the reference %d", len(got), len(want))
	}
	if fp := referenceScheduleHash(want); p.Fingerprint() != fp {
		t.Fatalf("fingerprint %s, reference formula over the reference schedule gives %s", p.Fingerprint(), fp)
	}
}

// TestFingerprintMatchesReference checks every testdata/asm program's
// schedule and fingerprint against the reference emulator and formula.
func TestFingerprintMatchesReference(t *testing.T) {
	names, srcs := testdataPrograms(t)
	for i, src := range srcs {
		t.Run(names[i], func(t *testing.T) {
			checkAgainstReference(t, mustAssembleUncached(t, src))
		})
	}
}

// memoryEdgePrograms exercise the byte-level memory model where a paged
// implementation can go wrong. Every loaded value feeds a later
// address, so it is visible in the schedule. FuzzAssemble seeds two of
// them.
var memoryEdgePrograms = map[string]string{
	// Misaligned word, half and byte accesses across the 0x1000 page
	// boundary, read back before and after a straddling store.
	"straddle-page": `
	li x1, 0xFFE
	lw x2, 0(x1)
	lh x3, 1(x1)
	lhu x4, 1(x1)
	li x5, 0x12345678
	sw x5, 0(x1)
	lw x6, 0(x1)
	lh x7, 1(x1)
	lb x8, 2(x1)
	lw x9, -1(x1)
	lw x10, 1(x1)
	sw x0, 0(x2)
	sw x0, 0(x3)
	sw x0, 0(x4)
	sw x0, 0(x6)
	sw x0, 0(x7)
	sw x0, 0(x8)
	sw x0, 0(x9)
	sw x0, 0(x10)
`,
	// A sub-word store merged into a word load, next to bytes that were
	// never written.
	"subword-then-word": `
	li x1, 0x2000
	li x2, -1
	sb x2, 1(x1)
	sh x2, 6(x1)
	lw x3, 0(x1)
	lw x4, 4(x1)
	lw x5, 2(x1)
	lhu x6, 0(x1)
	lbu x7, 2(x1)
	sw x0, 0(x3)
	sw x0, 0(x4)
	sw x0, 0(x5)
	sw x0, 0(x6)
	sw x0, 0(x7)
`,
	// Never-written bytes beside written ones: a page that has been
	// stored to must still read its other bytes as uninitialized.
	"written-beside-unwritten": `
	li x1, 0x7000
	sb x0, 100(x1)
	lbu x2, 99(x1)
	lbu x3, 101(x1)
	lw x4, 97(x1)
	lw x5, 4000(x1)
	lw x6, -4(x1)
	sw x0, 0(x2)
	sw x0, 0(x3)
	sw x0, 0(x4)
	sw x0, 0(x5)
	sw x0, 0(x6)
`,
	// More pages stored to than the emulator pages: stores 4 KiB apart,
	// read back with their unwritten neighbours once the later ones
	// live outside the pages.
	"many-pages": `
	li x1, 0x100000
	li x2, 0
	li x3, 300
fill:
	sh x2, 2(x1)
	lw x4, 0(x1)
	sw x0, 0(x4)
	lui x5, 1
	add x1, x1, x5
	addi x2, x2, 1
	blt x2, x3, fill
	li x1, 0x100000
	lw x4, 0(x1)
	lw x5, 4094(x1)
	li x1, 0x22B000
	lw x6, 0(x1)
	lw x7, 2(x1)
	sw x0, 0(x4)
	sw x0, 0(x5)
	sw x0, 0(x6)
	sw x0, 0(x7)
`,
	// Accesses that wrap at 0xFFFFFFFF to address 0: a word load, a
	// straddling store and loads of both ends.
	"wrap": `
	li x1, -1
	lw x2, 0(x1)
	lh x3, 0(x1)
	li x4, 0x0A0B0C0D
	sw x4, -1(x1)
	sw x4, 0(x1)
	lw x5, 0(x1)
	lw x6, 1(x1)
	lbu x7, 0(x1)
	lw x8, 0(x0)
	sw x0, 0(x2)
	sw x0, 0(x3)
	sw x0, 0(x5)
	sw x0, 0(x6)
	sw x0, 0(x7)
	sw x0, 0(x8)
`,
}

// TestMemoryEdges drives the memory edge cases through the reference
// emulator, and pins a few loaded values outright so a bug shared with
// the reference cannot hide.
func TestMemoryEdges(t *testing.T) {
	for name, src := range memoryEdgePrograms {
		t.Run(name, func(t *testing.T) {
			checkAgainstReference(t, mustAssembleUncached(t, src))
		})
	}
	if m := run(t, memoryEdgePrograms["many-pages"]); len(m.pages) != maxPages || len(m.spill) == 0 {
		t.Errorf("many-pages left %d pages and %d spilled bytes, want %d pages and some spilled",
			len(m.pages), len(m.spill), maxPages)
	}

	le := func(bs ...byte) uint32 {
		var v uint32
		for i, b := range bs {
			v |= uint32(b) << (8 * i)
		}
		return v
	}
	for _, c := range []struct {
		name string
		src  string
		addr uint32
		want uint32
	}{
		{"straddle", "li x1, 0xFFE\nli x5, 0x12345678\nsw x5, 0(x1)\n", 0xFFD,
			le(memDefault(0xFFD), 0x78, 0x56, 0x34)},
		{"subword", "li x1, 0x2000\nli x2, -1\nsb x2, 1(x1)\n", 0x2000,
			le(memDefault(0x2000), 0xFF, memDefault(0x2002), memDefault(0x2003))},
		{"wrap", "li x1, -1\nli x4, 0x0A0B0C0D\nsw x4, 0(x1)\n", 0xFFFFFFFE,
			le(memDefault(0xFFFFFFFE), 0x0D, 0x0C, 0x0B)},
		{"wrap-low", "li x1, -1\nli x4, 0x0A0B0C0D\nsw x4, 0(x1)\n", 0,
			le(0x0C, 0x0B, 0x0A, memDefault(3))},
	} {
		if got := run(t, c.src).load(c.addr, 4); got != c.want {
			t.Errorf("%s: mem[%#x] = %#x, want %#x", c.name, c.addr, got, c.want)
		}
	}
}

// opcodeProgram runs every integer, FP and branch mnemonic over operand
// pairs at sign, shift-width and overflow boundaries. Each result is the
// address of the store after it, and each branch outcome is a Taken bit,
// so any wrong value shows in the schedule.
func opcodeProgram() string {
	vals := []int64{0, 1, -1, 5, -7, 31, 33, math.MaxInt32, math.MinInt32, 0x12345678}
	var b strings.Builder
	label := 0
	for _, x := range vals {
		for _, y := range vals {
			fmt.Fprintf(&b, "li x1, %d\nli x2, %d\n", x, y)
			for _, mn := range []string{"add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
				"mul", "mulh", "mulhu", "mulhsu", "div", "divu", "rem", "remu"} {
				fmt.Fprintf(&b, "%s x3, x1, x2\nsb x0, 0(x3)\n", mn)
			}
			for _, mn := range []string{"addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "sltiu"} {
				fmt.Fprintf(&b, "%s x3, x1, %d\nsb x0, 0(x3)\n", mn, y)
			}
			fmt.Fprintf(&b, "lui x3, %d\nsb x0, 0(x3)\nmv x3, x2\nsb x0, 0(x3)\n", y)
			for _, mn := range []string{"beq", "bne", "blt", "bge", "bltu", "bgeu"} {
				fmt.Fprintf(&b, "%s x1, x2, t%d\nnop\nt%d:\n", mn, label, label)
				label++
			}
			b.WriteString("li x9, 0x40\nsw x1, 0(x9)\nsw x2, 4(x9)\nflw f1, 0(x9)\nflw f2, 4(x9)\n")
			for _, mn := range []string{"fadd.s", "fsub.s", "fmul.s", "fdiv.s"} {
				fmt.Fprintf(&b, "%s f3, f1, f2\nfsw f3, 8(x9)\nlw x3, 8(x9)\nsb x0, 0(x3)\n", mn)
			}
		}
	}
	return b.String()
}

// TestEveryOpcodeMatchesReference checks the pre-decoded emulator
// against the reference over every mnemonic and boundary operands.
func TestEveryOpcodeMatchesReference(t *testing.T) {
	p := mustAssembleUncached(t, opcodeProgram())
	t.Logf("%d static, %d dynamic instructions", p.StaticLen(), p.ScheduleLen())
	checkAgainstReference(t, p)
}
