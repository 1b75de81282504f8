// Package flagged mixes atomic and plain access: the execGate bug
// class. Every plain mention of an atomically-accessed word must be
// reported.
package flagged

import "sync/atomic"

type counters struct {
	ops  int64
	gate uint32
}

var total int64

// bumpAtomically establishes ops, gate and total as atomic words.
func (c *counters) bumpAtomically() {
	atomic.AddInt64(&c.ops, 1)
	atomic.StoreUint32(&c.gate, 1)
	atomic.AddInt64(&total, 1)
}

// plainRead races bumpAtomically: the field identity is the same even
// though the receiver is named differently.
func plainRead(k *counters) int64 {
	return k.ops // want `k\.ops is accessed with sync/atomic`
}

// plainWrite is the write half of the race.
func (c *counters) plainWrite() {
	c.gate = 0 // want `c\.gate is accessed with sync/atomic`
}

// plainIncrement is a read-modify-write, doubly wrong.
func (c *counters) plainIncrement() {
	c.ops++ // want `c\.ops is accessed with sync/atomic`
}

// plainGlobal reads the package-level atomic word.
func plainGlobal() int64 {
	return total // want `total is accessed with sync/atomic`
}

func init() {
	c := &counters{}
	c.bumpAtomically()
	_ = plainRead(c)
	c.plainWrite()
	c.plainIncrement()
	_ = plainGlobal()
}
