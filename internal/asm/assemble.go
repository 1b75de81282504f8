package asm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"shelfsim/internal/isa"
)

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
	image

	schedOnce sync.Once
	sched     []isa.Inst
}

// image is everything assembly computes. It is immutable once assembled,
// so the assembly memo shares one image between every Program it hands
// out for the same source.
type image struct {
	name  string
	bound int64
	insts []Instruction
	// code is the static program pre-decoded for the emulator, one
	// entry per instruction plus the closing back edge.
	code []decoded

	pcBase   uint64
	fp       string
	schedLen int
}

// Assemble lexes, parses, resolves and emulates one program, computing
// its schedule fingerprint. Every failure is a positioned *Error. A
// source assembled before in this process is answered from the memo
// (memo.go) with a fresh Program equal to what assembling it again
// would give.
func Assemble(src string, opt Options) (*Program, error) {
	key := memoKey{src: src, maxSchedule: opt.MaxSchedule}
	if img, ok := assembled.get(key); ok {
		return &Program{image: img}, nil
	}
	p, err := assemble(src, opt)
	if err != nil {
		return nil, err
	}
	assembled.put(key, p.image)
	return p, nil
}

// assemble is Assemble without the memo.
func assemble(src string, opt Options) (*Program, error) {
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

	p := &Program{image: image{name: f.Name, bound: bound, insts: f.Insts}}
	p.pcBase = pcRegion | (staticHash(f.Name, bound, f.Insts)&0xffff)<<6
	p.code = decode(p.insts, p.pcBase)
	h := newScheduleHasher(p.code)
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
// they were spelled — land on identical PCs. It is FNV-1a over the text
// "%s/%d" of the name and bound, then "|%s %d %d %d %d %d" of each
// instruction's mnemonic, registers, immediate and target.
func staticHash(name string, bound int64, insts []Instruction) uint64 {
	b := make([]byte, 0, 64)
	b = append(b, name...)
	b = append(b, '/')
	b = strconv.AppendInt(b, bound, 10)
	h := fnvBytes(fnvOffset64, b)
	for i := range insts {
		in := &insts[i]
		b = append(b[:0], '|')
		b = append(b, in.Mnemonic...)
		for _, v := range [...]int64{int64(in.Rd), int64(in.Rs1), int64(in.Rs2), int64(in.Imm), int64(in.Target)} {
			b = append(b, ' ')
			b = strconv.AppendInt(b, v, 10)
		}
		h = fnvBytes(h, b)
	}
	return h
}

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
		n, err := p.unroll(func(_ int, u *isa.Inst) { sched = append(sched, *u) })
		if err != nil || n != p.schedLen {
			panic(fmt.Sprintf("asm: re-unrolling %s gave %d instructions (err %v), assembly counted %d",
				p.name, n, err, p.schedLen))
		}
		p.sched = sched
	})
	return p.sched
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
