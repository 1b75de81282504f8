package asm

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"
)

// TestFNVMatchesHashFNV pins the inline FNV-1a to hash/fnv's New64a.
func TestFNVMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 64; n++ {
		b := make([]byte, n)
		rng.Read(b)
		h := fnv.New64a()
		h.Write(b)
		if got, want := fnvBytes(fnvOffset64, b), h.Sum64(); got != want {
			t.Fatalf("len %d: fnvBytes %#x, hash/fnv %#x", n, got, want)
		}
	}
}

// TestFNVHexMatchesStrconv pins fnvHex to hashing strconv's hex digits.
func TestFNVHexMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := []uint64{0, 1, 0xf, 0x10, 0xff, 0x100, 0xffffffff, 1 << 32, ^uint64(0)}
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, v := range vals {
		h := rng.Uint64()
		if got, want := fnvHex(h, v), fnvBytes(h, strconv.AppendUint(nil, v, 16)); got != want {
			t.Fatalf("fnvHex(%#x, %#x) = %#x, want %#x", h, v, got, want)
		}
	}
}

// TestMemoizedTextMatchesFNV feeds ASCII texts far past memoAfter from
// random states, so every memo entry is met both before and after it is
// filled, and requires the byte-by-byte FNV-1a result each time.
func TestMemoizedTextMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 7, 31, 64} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(0x80))
		}
		text := cachedText{b: b}
		for i := 0; i < 4096; i++ {
			h := rng.Uint64()
			if got, want := text.feed(h), fnvBytes(h, b); got != want {
				t.Fatalf("len %d, use %d, state %#x: feed %#x, FNV-1a %#x", n, i, h, got, want)
			}
		}
		if text.memo == nil {
			t.Fatalf("len %d: no memo after 4096 uses", n)
		}
	}
}
