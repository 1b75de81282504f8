package asm

import (
	"fmt"
	"math/bits"
	"strconv"

	"shelfsim/internal/isa"
)

// FNV-1a, 64-bit: the hash/fnv New64a parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvBytes continues FNV-1a state h over b.
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// fnvHex continues FNV-1a state h over v's lower-case hexadecimal digits,
// the bytes strconv.FormatUint(v, 16) would give.
func fnvHex(h, v uint64) uint64 {
	for shift := (bits.Len64(v|1) - 1) &^ 3; shift >= 0; shift -= 4 {
		h ^= uint64("0123456789abcdef"[v>>uint(shift)&15])
		h *= fnvPrime64
	}
	return h
}

// scheduleHasher fingerprints the unrolled execution schedule —
// everything the stream will emit, and therefore everything that can
// influence the simulation — one micro-op at a time. The fingerprint is
// FNV-1a over each micro-op's text "%x %d %d %d,%d,%d %x %d %t %x|" of
// its PC, Op, Dest, Srcs, Addr, Size, Taken and Target.
//
// The hasher feeds FNV-1a those exact bytes without formatting a
// micro-op per dynamic instruction. Every field but Addr and Taken is
// fixed by the static instruction (see decoded), and Addr is non-zero
// only for loads and stores. So the whole text of any other micro-op is
// one of two strings per static instruction, by Taken (one string unless
// it is a branch), rendered up front from its template. A load's or
// store's text is a cached head
// (PC through Srcs), the address's hex digits hashed directly, and a
// cached " <size> false 0|" tail. A cached text that is hashed often is
// memoized (see memo), so hashing it costs one table lookup.
type scheduleHasher struct {
	h uint64
	// text holds, per entry of the decoded program, the not-taken and
	// taken renderings of a non-memory micro-op, or the head and tail of
	// a load or store.
	text [][2]cachedText
}

// cachedText is one rendering the hasher feeds FNV-1a whole.
type cachedText struct {
	b    []byte
	uses int32
	memo *memo // built on the memoAfter'th use
}

// memoAfter is the number of times a cached text is hashed byte by byte
// before it is memoized. Below it the 1 KiB table does not pay off.
const memoAfter = 32

// memo makes hashing a fixed text b independent of its length. Every
// rendered byte c is ASCII, below 0x80, so x ^ c changes only the low 7
// bits of the FNV-1a state x: x ^ c == x - lo + (lo ^ c) with lo = x &
// 0x7f. A multiple of 128 stays one when multiplied by the prime, so
// writing the state as h = H + lo, the H part is only multiplied by the
// prime once per byte and never mixes with the rest:
//
//	fnvBytes(h, b) == H*prime^len(b) + fnvBytes(lo, b)   (mod 2^64)
//
// The second term has 128 possible values, filled in as they occur.
type memo struct {
	pow  uint64    // prime^len(b)
	seen [2]uint64 // bit lo is set once out[lo] is filled
	out  [128]uint64
}

// feed continues FNV-1a state h over t's bytes.
func (t *cachedText) feed(h uint64) uint64 {
	m := t.memo
	if m == nil {
		if t.uses++; t.uses < memoAfter {
			return fnvBytes(h, t.b)
		}
		m = &memo{pow: 1}
		for range t.b {
			m.pow *= fnvPrime64
		}
		t.memo = m
	}
	lo := h & 0x7f
	if m.seen[lo>>6]&(1<<(lo&63)) == 0 {
		m.out[lo] = fnvBytes(lo, t.b)
		m.seen[lo>>6] |= 1 << (lo & 63)
	}
	return (h-lo)*m.pow + m.out[lo]
}

func newScheduleHasher(code []decoded) *scheduleHasher {
	s := &scheduleHasher{h: fnvOffset64, text: make([][2]cachedText, len(code))}
	arena := make([]byte, 0, 48*len(code))
	keep := func(start int) []byte { return arena[start:len(arena):len(arena)] }
	for i := range code {
		u := code[i].tmpl
		t := &s.text[i]
		if isMem(u.Op) {
			start := len(arena)
			arena = appendHead(arena, &u)
			t[0].b = keep(start)
			start = len(arena)
			arena = appendTail(arena, &u)
			t[1].b = keep(start)
			continue
		}
		for k, taken := range [2]bool{false, true} {
			if taken && u.Op != isa.OpBranch {
				break // only branches are ever taken
			}
			u.Taken = taken
			start := len(arena)
			arena = appendTail(strconv.AppendUint(appendHead(arena, &u), u.Addr, 16), &u)
			t[k].b = keep(start)
		}
	}
	return s
}

// isMem reports whether micro-ops of class op carry an address.
func isMem(op isa.OpClass) bool { return op == isa.OpLoad || op == isa.OpStore }

// appendHead renders "%x %d %d %d,%d,%d " of u's PC, Op, Dest and Srcs.
func appendHead(b []byte, u *isa.Inst) []byte {
	b = strconv.AppendUint(b, u.PC, 16)
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
	return append(b, ' ')
}

// appendTail renders " %d %t %x|" of u's Size, Taken and Target.
func appendTail(b []byte, u *isa.Inst) []byte {
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(u.Size), 10)
	b = append(b, ' ')
	b = strconv.AppendBool(b, u.Taken)
	b = append(b, ' ')
	b = strconv.AppendUint(b, u.Target, 16)
	return append(b, '|')
}

// add hashes micro-op u of decoded entry i.
func (s *scheduleHasher) add(i int, u *isa.Inst) {
	t := &s.text[i]
	switch {
	case isMem(u.Op):
		s.h = t[1].feed(fnvHex(t[0].feed(s.h), u.Addr))
	case u.Taken:
		s.h = t[1].feed(s.h)
	default:
		s.h = t[0].feed(s.h)
	}
}

func (s *scheduleHasher) sum() string { return fmt.Sprintf("%016x", s.h) }
