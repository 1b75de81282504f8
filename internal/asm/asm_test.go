package asm

import (
	"errors"
	"strings"
	"testing"

	"shelfsim/internal/isa"
)

// mustAssemble assembles src with default options or fails the test.
func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src, Options{})
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

// mustAssembleUncached assembles src with default options, bypassing the
// memo, or fails the test. Tests of what assembly computes use it, so
// their verdicts never depend on what an earlier test memoized.
func mustAssembleUncached(t *testing.T, src string) *Program {
	t.Helper()
	p, err := assemble(src, Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// run re-emulates the program and returns the final machine state, for
// semantic assertions (the assembler discards its machine after
// unrolling).
func run(t *testing.T, src string) *machine {
	t.Helper()
	p := mustAssemble(t, src)
	m := newMachine()
	pc := 0
	for pc < len(p.insts) {
		pc = replayStep(p, m, pc)
	}
	return m
}

// replayStep re-executes one instruction, discarding the micro-op it
// lowers to.
func replayStep(p *Program, m *machine, pc int) int {
	var discard isa.Inst
	return p.step(m, pc, &discard)
}

func TestArithmeticSemantics(t *testing.T) {
	// Each case computes a value into x10 and stores it at 0x100; the
	// test asserts the stored bytes.
	cases := []struct {
		name string
		body string
		want uint32
	}{
		{"add", "li x1, 7\nli x2, 5\nadd x10, x1, x2", 12},
		{"sub-negative", "li x1, 3\nli x2, 5\nsub x10, x1, x2", 0xFFFFFFFE},
		{"mul", "li x1, -3\nli x2, 7\nmul x10, x1, x2", 0xFFFFFFEB},
		{"mulh", "li x1, 0x40000000\nli x2, 4\nmulh x10, x1, x2", 1},
		{"mulhu", "li x1, -1\nli x2, -1\nmulhu x10, x1, x2", 0xFFFFFFFE},
		{"div", "li x1, -7\nli x2, 2\ndiv x10, x1, x2", 0xFFFFFFFD},
		{"div-by-zero", "li x1, 9\nli x2, 0\ndiv x10, x1, x2", 0xFFFFFFFF},
		{"divu-by-zero", "li x1, 9\nli x2, 0\ndivu x10, x1, x2", 0xFFFFFFFF},
		{"rem-by-zero", "li x1, 9\nli x2, 0\nrem x10, x1, x2", 9},
		{"div-overflow", "li x1, 0x80000000\nli x2, -1\ndiv x10, x1, x2", 0x80000000},
		{"rem-overflow", "li x1, 0x80000000\nli x2, -1\nrem x10, x1, x2", 0},
		{"sra", "li x1, -8\nli x2, 1\nsra x10, x1, x2", 0xFFFFFFFC},
		{"srl", "li x1, -8\nli x2, 1\nsrl x10, x1, x2", 0x7FFFFFFC},
		{"sll-masks-shift", "li x1, 1\nli x2, 33\nsll x10, x1, x2", 2},
		{"slt", "li x1, -1\nli x2, 0\nslt x10, x1, x2", 1},
		{"sltu", "li x1, -1\nli x2, 0\nsltu x10, x1, x2", 0},
		{"srai", "li x1, -8\nsrai x10, x1, 1", 0xFFFFFFFC},
		{"lui", "lui x10, 5", 5 << 12},
		{"hex-negative-equivalence", "li x10, 0xEDB88320", 0xEDB88320},
		{"x0-hardwired", "li x0, 7\nadd x10, x0, x0", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := run(t, tc.body+"\nli x20, 0x100\nsw x10, 0(x20)\n")
			if got := m.load(0x100, 4); got != tc.want {
				t.Fatalf("stored %#x, want %#x", got, tc.want)
			}
		})
	}
}

func TestFloatSemantics(t *testing.T) {
	// 1.5 * 2.0 + 0.25 stored via fsw: build the operands from integer
	// bit patterns through memory (flw transfers bits).
	src := `
	li x1, 0x3FC00000   # 1.5f
	li x2, 0x40000000   # 2.0f
	li x3, 0x3E800000   # 0.25f
	li x9, 0x200
	sw x1, 0(x9)
	sw x2, 4(x9)
	sw x3, 8(x9)
	flw f1, 0(x9)
	flw f2, 4(x9)
	flw f3, 8(x9)
	fmul.s f4, f1, f2
	fadd.s f5, f4, f3
	fsw f5, 12(x9)
`
	m := run(t, src)
	if got := fromBits(m.load(0x20C, 4)); got != 3.25 {
		t.Fatalf("fp result %v, want 3.25", got)
	}
}

func TestMemorySemantics(t *testing.T) {
	src := `
	li x9, 0x300
	li x1, 0xDEADBEEF
	sw x1, 0(x9)
	lb x2, 0(x9)        # 0xEF sign-extended
	lbu x3, 0(x9)
	lh x4, 0(x9)        # 0xBEEF sign-extended
	lhu x5, 0(x9)
	sw x2, 16(x9)
	sw x3, 20(x9)
	sw x4, 24(x9)
	sw x5, 28(x9)
`
	m := run(t, src)
	for _, c := range []struct {
		addr uint32
		want uint32
	}{{0x310, 0xFFFFFFEF}, {0x314, 0xEF}, {0x318, 0xFFFFBEEF}, {0x31C, 0xBEEF}} {
		if got := m.load(c.addr, 4); got != c.want {
			t.Errorf("mem[%#x] = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

// TestUninitializedMemoryIsDeterministic assembles one source twice
// through the uncached assembler: a memo hit would share the first
// assembly's fingerprint and pass by construction. The second load's
// address is the uninitialized word the first load reads, so that word
// reaches the fingerprint.
func TestUninitializedMemoryIsDeterministic(t *testing.T) {
	const src = "li x1, 0x1000\nlw x2, 0(x1)\nandi x3, x2, 0x7fc\nlw x4, 0(x3)\nsw x4, 4(x1)\n"
	p1 := mustAssembleUncached(t, src)
	p2 := mustAssembleUncached(t, src)
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatalf("same source, different fingerprints: %s vs %s", p1.Fingerprint(), p2.Fingerprint())
	}
}

func TestScheduleShape(t *testing.T) {
	src := `
.name tiny
.loop 64
	li x1, 0
	li x2, 3
top:
	addi x1, x1, 1
	blt x1, x2, top
`
	p := mustAssemble(t, src)
	// Dynamic: li, li, then 3 x (addi, blt) = 8, plus the closing back
	// edge = 9.
	if p.ScheduleLen() != 9 {
		t.Fatalf("schedule length %d, want 9", p.ScheduleLen())
	}
	sched := p.schedule()
	last := sched[len(sched)-1]
	if last.Op != isa.OpBranch || !last.Taken || last.Target != p.PCBase() {
		t.Fatalf("closing back edge %+v does not branch to pcBase %#x", last, p.PCBase())
	}
	if last.PC != p.PCBase()+uint64(p.StaticLen())*4 {
		t.Fatalf("back edge PC %#x not at wrap point", last.PC)
	}
	// The two taken blt iterations target the static PC of "top".
	topPC := p.PCBase() + 2*4
	var takenBlt, untakenBlt int
	for _, u := range sched[:len(sched)-1] {
		if u.Op != isa.OpBranch {
			continue
		}
		if u.Target != topPC {
			t.Fatalf("blt target %#x, want %#x", u.Target, topPC)
		}
		if u.Taken {
			takenBlt++
		} else {
			untakenBlt++
		}
	}
	if takenBlt != 2 || untakenBlt != 1 {
		t.Fatalf("blt outcomes taken=%d untaken=%d, want 2/1", takenBlt, untakenBlt)
	}
}

func TestLoweringOperands(t *testing.T) {
	p := mustAssemble(t, "li x1, 0x40\nlw x2, 4(x1)\nsw x2, 8(x1)\nfence\n")
	s := p.schedule()
	ld, st, fe := s[1], s[2], s[3]
	if ld.Op != isa.OpLoad || ld.Dest != 2 || ld.Srcs[0] != 1 || ld.Addr != 0x44 || ld.Size != 4 {
		t.Fatalf("load lowering wrong: %+v", ld)
	}
	if st.Op != isa.OpStore || st.Dest != isa.RegInvalid || st.Srcs[0] != 1 || st.Srcs[1] != 2 || st.Addr != 0x48 {
		t.Fatalf("store lowering wrong: %+v", st)
	}
	if fe.Op != isa.OpBarrier {
		t.Fatalf("fence lowering wrong: %+v", fe)
	}
	// FP registers land in the upper operand space.
	p = mustAssemble(t, "li x1, 0x40\nflw f3, 0(x1)\nfadd.s f4, f3, f3\n")
	fa := p.schedule()[2]
	if fa.Op != isa.OpFPAdd || fa.Dest != 32+4 || fa.Srcs[0] != 32+3 {
		t.Fatalf("fadd lowering wrong: %+v", fa)
	}
}

func TestErrorPositions(t *testing.T) {
	cases := []struct {
		name       string
		src        string
		line, col  int
		msgMention string
	}{
		{"unknown-mnemonic", "nop\nfrobnicate x1, x2\n", 2, 1, "unknown mnemonic"},
		{"bad-register", "add x1, x2, x32\n", 1, 13, "out of range"},
		{"leading-zero-register", "add x01, x2, x3\n", 1, 5, "bad register name"},
		{"fp-where-int", "add x1, f2, x3\n", 1, 9, "integer register"},
		{"int-where-fp", "fadd.s f1, x2, f3\n", 1, 12, "FP register"},
		{"bad-literal", "li x1, 0x12g4\n", 1, 8, "bad integer literal"},
		{"range-literal", "li x1, 0x1FFFFFFFF\n", 1, 8, "out of 32-bit range"},
		{"undefined-label", "beq x1, x2, nowhere\n", 1, 13, "undefined label"},
		{"duplicate-label", "top:\nnop\ntop:\nnop\n", 3, 1, "already defined on line 1"},
		{"missing-comma", "add x1 x2, x3\n", 1, 8, "expected ','"},
		{"unknown-directive", ".frequency 3\n", 1, 1, "unknown directive"},
		{"bad-loop-bound", ".loop -5\n nop\n", 1, 7, "non-positive"},
		{"empty-program", "# nothing\n", 1, 1, "no instructions"},
		{"stray-char", "nop\n@\n", 2, 1, "unexpected character"},
		{"store-missing-paren", "sw x1, 4 x2\n", 1, 10, "expected '('"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(tc.src, Options{})
			if err == nil {
				t.Fatal("assembled, want error")
			}
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("error %T is not *asm.Error", err)
			}
			if ae.Line != tc.line || ae.Col != tc.col {
				t.Fatalf("position %d:%d, want %d:%d (%s)", ae.Line, ae.Col, tc.line, tc.col, ae.Msg)
			}
			if !strings.Contains(ae.Msg, tc.msgMention) {
				t.Fatalf("message %q does not mention %q", ae.Msg, tc.msgMention)
			}
		})
	}
}

func TestInfiniteLoopRejected(t *testing.T) {
	_, err := Assemble(".loop 100\ntop:\nj top\n", Options{})
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("want *asm.Error, got %v", err)
	}
	if !strings.Contains(ae.Msg, "exceeded the .loop bound 100") {
		t.Fatalf("unexpected message %q", ae.Msg)
	}
	if ae.Line != 3 {
		t.Fatalf("diagnostic at line %d, want 3 (the looping instruction)", ae.Line)
	}
}

func TestLoopBoundCap(t *testing.T) {
	if _, err := Assemble(".loop 5000\nnop\n", Options{MaxSchedule: 100}); err == nil ||
		!strings.Contains(err.Error(), "exceeds the limit 100") {
		t.Fatalf("want bound-cap error, got %v", err)
	}
	// The hard ceiling applies even when the option asks for more.
	if _, err := Assemble(".loop 2000000\nnop\n", Options{MaxSchedule: 1 << 30}); err == nil ||
		!strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("want hard-ceiling error, got %v", err)
	}
}

// TestCanonicalRoundTrip re-assembles each program's canonical form
// through the uncached assembler, so a source already in canonical form
// is assembled twice rather than answered from the memo.
func TestCanonicalRoundTrip(t *testing.T) {
	names, srcs := testdataPrograms(t)
	for i, src := range srcs {
		t.Run(names[i], func(t *testing.T) {
			p := mustAssembleUncached(t, src)
			canon := p.String()
			p2, aerr := assemble(canon, Options{})
			if aerr != nil {
				t.Fatalf("canonical form does not re-assemble: %v\n%s", aerr, canon)
			}
			if p2.String() != canon {
				t.Fatalf("canonical rendering is not a fixpoint:\n--- first\n%s\n--- second\n%s", canon, p2.String())
			}
			if p2.Fingerprint() != p.Fingerprint() {
				t.Fatalf("round trip changed the schedule fingerprint: %s -> %s", p.Fingerprint(), p2.Fingerprint())
			}
			if p2.PCBase() != p.PCBase() {
				t.Fatalf("round trip moved pcBase: %#x -> %#x", p.PCBase(), p2.PCBase())
			}
		})
	}
}

func TestTestdataProgramsAssemble(t *testing.T) {
	names, srcs := testdataPrograms(t)
	for i, src := range srcs {
		p := mustAssemble(t, src)
		if p.ScheduleLen() < 100 {
			t.Errorf("%s: suspiciously short schedule (%d dynamic instructions)", names[i], p.ScheduleLen())
		}
		t.Logf("%s: %d static, %d dynamic, fp %s", names[i], p.StaticLen(), p.ScheduleLen(), p.Fingerprint())
	}
}

func TestStreamReplayWrapsAndBiasesAddresses(t *testing.T) {
	p := mustAssemble(t, "li x1, 0x40\nlw x2, 0(x1)\n")
	base := uint64(7) << 32
	s := p.NewStream(base)
	n := p.ScheduleLen()
	var first []isa.Inst
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			var in isa.Inst
			if !s.Next(&in) {
				t.Fatal("stream ended; programs replay forever")
			}
			if round == 0 {
				first = append(first, in)
				if in.Op == isa.OpLoad && in.Addr != base+0x40 {
					t.Fatalf("load address %#x not biased by base", in.Addr)
				}
			} else if in != first[i] {
				t.Fatalf("replay round differs at %d: %+v vs %+v", i, in, first[i])
			}
		}
	}
	// Two streams from one program are independent cursors.
	s1, s2 := p.NewStream(0), p.NewStream(0)
	var a, b isa.Inst
	s1.Next(&a)
	s1.Next(&a)
	s2.Next(&b)
	if b.PC != p.PCBase() {
		t.Fatal("second stream did not start at the top")
	}
}

func TestWorkloadIDStableAcrossSpelling(t *testing.T) {
	// Same program, different label names and comments: identical
	// workload ID (cache sharing across textual variants).
	a := mustAssembleUncached(t, ".name k\nstart:\nnop\nj done\ndone:\n# tail\nnop\n")
	b := mustAssembleUncached(t, ".name k\ns2:  nop\n  j finish\nfinish: nop ; trailing comment\n")
	ida, idb := WorkloadID([]*Program{a}), WorkloadID([]*Program{b})
	if ida != idb {
		t.Fatalf("semantically identical programs got different IDs: %s vs %s", ida, idb)
	}
	if !strings.HasPrefix(ida, "asm[k@") {
		t.Fatalf("workload ID %q not in asm[name@fp] form", ida)
	}
}
