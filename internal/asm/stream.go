package asm

import (
	"fmt"
	"strings"

	"shelfsim/internal/isa"
)

// programStream replays a program's unrolled execution schedule forever,
// biasing memory addresses by the thread's data base so per-thread
// copies of the same program touch disjoint memory.
type programStream struct {
	name  string
	sched []isa.Inst
	base  uint64
	pos   int
}

// NewStream returns an endless isa.Stream replaying the program's
// execution schedule with memory addresses offset by base. Each call
// yields an independent cursor over the shared immutable schedule; the
// first call builds it.
func (p *Program) NewStream(base uint64) isa.Stream {
	return &programStream{name: p.name, sched: p.schedule(), base: base}
}

func (s *programStream) Name() string { return s.name }

func (s *programStream) Next(out *isa.Inst) bool {
	*out = s.sched[s.pos]
	if out.Op == isa.OpLoad || out.Op == isa.OpStore {
		out.Addr += s.base
	}
	s.pos++
	if s.pos == len(s.sched) {
		s.pos = 0
	}
	return true
}

// Streams instantiates one stream per program using the same per-thread
// data-base convention as the synthetic kernels: thread i's memory lives
// at (i+1)<<32.
func Streams(progs []*Program) []isa.Stream {
	out := make([]isa.Stream, len(progs))
	for i, p := range progs {
		out[i] = p.NewStream(uint64(i+1) << 32)
	}
	return out
}

// WorkloadID names a program set for cache keys and run labels:
// "asm[name@fingerprint+...]". Two requests with equal WorkloadIDs drive
// the simulator identically, which is what lets cached results be shared
// across textually different but semantically identical submissions.
func WorkloadID(progs []*Program) string {
	parts := make([]string, len(progs))
	for i, p := range progs {
		parts[i] = fmt.Sprintf("%s@%s", p.name, p.fp)
	}
	return "asm[" + strings.Join(parts, "+") + "]"
}
