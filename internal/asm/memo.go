package asm

import (
	"sync"
	"unsafe"
)

// memoMaxBytes bounds what the assembly memo retains: each entry's
// source text (its key, whose bytes the image's names and mnemonics
// share), its static program and the entry itself. The four
// testdata/asm programs take about 13 KiB. shelfd admits request bodies
// up to 1 MiB, so without a bound a stream of distinct sources would
// grow the process for as long as it runs.
const memoMaxBytes = 4 << 20

// memoKey identifies one assembly: the exact source and the schedule cap
// it was assembled under. Assemble is a pure function of the two, so an
// equal key always yields an equal Program.
type memoKey struct {
	src         string
	maxSchedule int64
}

// assemblyMemo maps sources assembled in this process to their images.
// An image holds no schedule: a default-bound schedule is megabytes, and
// each Program builds its own on its first NewStream, so the memo costs
// what the static programs cost and no more. Failed assemblies are not
// kept; they are cheap to repeat and their errors carry no shared state.
//
// The memo has no knob. Hits are identical to misses, so no setting
// could change a result, and the byte bound caps what it can cost.
type assemblyMemo struct {
	mu    sync.Mutex
	m     map[memoKey]image
	bytes int
}

// assembled is the process-wide assembly memo. shelfd handlers resolve
// requests concurrently, so every access holds mu.
var assembled assemblyMemo

// get returns the image memoized for k, if any.
func (c *assemblyMemo) get(k memoKey) (image, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img, ok := c.m[k]
	return img, ok
}

// put memoizes img under k. An entry that would take the memo past
// memoMaxBytes clears it first; an entry larger than the bound on its
// own is not kept.
func (c *assemblyMemo) put(k memoKey, img image) {
	n := entryBytes(k, &img)
	if n > memoMaxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return
	}
	if c.m == nil || c.bytes+n > memoMaxBytes {
		c.m = make(map[memoKey]image)
		c.bytes = 0
	}
	c.m[k] = img
	c.bytes += n
}

// entryBytes is what memoizing img under k retains.
func entryBytes(k memoKey, img *image) int {
	return len(k.src) + len(img.fp) +
		cap(img.insts)*int(unsafe.Sizeof(Instruction{})) +
		cap(img.code)*int(unsafe.Sizeof(decoded{})) +
		int(unsafe.Sizeof(k)+unsafe.Sizeof(*img))
}
