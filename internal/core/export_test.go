package core

import (
	"shelfsim/internal/config"
	"shelfsim/internal/isa"
)

// Test-only accessors. Keeping them in an _test file means the production
// binary carries none of this. (The invariant checker itself lives in
// invariants.go: it is production code, gated by Config.CheckInvariants.)

// FreeListSizes reports the current free-list populations (tests verify
// full restoration after a drained run).
func (c *Core) FreeListSizes() (pri, ext int) {
	return len(c.freePRI), len(c.freeExt)
}

// FreeListCapacities reports the initial free-list populations.
func (c *Core) FreeListCapacities() (pri, ext int) {
	return c.cfg.PRF, c.extSize
}

// WindowEmpty reports whether every thread's window and front end have
// fully drained.
func (c *Core) WindowEmpty() bool {
	if len(c.iq) != 0 {
		return false
	}
	for _, t := range c.threads {
		if len(t.inflight) != 0 || t.fetchQLen() != 0 {
			return false
		}
		if t.robHead != t.robAllocPos || t.shelfHead != t.shelfTail {
			return false
		}
	}
	return true
}

// SetOrderedIQRemoval switches removeFromIQ back to the legacy ordered
// copy-shift, so tests can prove swap-with-last removal changes no
// simulation outcome.
func (c *Core) SetOrderedIQRemoval(v bool) { c.orderedIQRemoval = v }

// SetClassifyCrossCheck makes every issue compare classifyAtIssue's O(1)
// early exit against the full in-flight walk, failing with a
// "classify-exit" InvariantError on disagreement.
func (c *Core) SetClassifyCrossCheck(v bool) { c.classifyCrossCheck = v }

// RetiredOf returns a thread's retirement count.
func (c *Core) RetiredOf(tid int) int64 { return c.threads[tid].retired }

// HeldByRAT counts rename-pool physical registers and extension tags
// currently referenced by architectural mappings. With a drained window,
// free + held must equal the capacity (conservation / leak check).
func (c *Core) HeldByRAT() (pri, ext int) {
	for _, t := range c.threads {
		for r := 0; r < isa.NumArchRegs; r++ {
			if int(t.ratPRI[r]) >= c.cfg.Threads*isa.NumArchRegs {
				pri++
			}
			if c.isExtTag(t.ratTag[r]) {
				ext++
			}
		}
	}
	return
}

// LoadToLoadWorkload is the configuration and one-thread stream of
// TestShelfLoadForwardsFromYoungerIQLoad, for the external test that runs
// the litmus checker over its event stream.
func LoadToLoadWorkload() (config.Config, []isa.Stream) {
	cfg, p := loadToLoadProgram()
	return cfg, []isa.Stream{p.stream("load-to-load")}
}

// RaceEnabled exports raceEnabled to the external test package: its
// allocation-count assertions skip under the race detector too.
const RaceEnabled = raceEnabled
