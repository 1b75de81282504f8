package core

import (
	"fmt"

	"shelfsim/internal/isa"
)

// fetch models the SMT front end: each cycle one thread is selected by the
// ICOUNT policy (fewest instructions in the front end plus window, ties
// broken round-robin) and up to FetchWidth instructions are fetched from
// its stream, stopping at a predicted-taken branch. A fetch that misses in
// the L1I stalls the thread until the fill returns. On a predicted-wrong
// branch the thread's fetch blocks until the branch resolves (the
// trace-driven stand-in for wrong-path fetch).
func (c *Core) fetch(now int64) {
	t := c.pickFetchThread(now)
	if t == nil {
		return
	}
	if c.fetchRR = t.id + 1; c.fetchRR == len(c.threads) {
		c.fetchRR = 0
	}

	// Instruction cache access for this fetch group.
	first, ok := t.peekInst(t.fetchSeq)
	if !ok {
		return
	}
	ready, _ := c.hier.Fetch(first.PC, now)
	if ready > now+int64(c.cfg.Mem.L1I.LatencyCycles) {
		// I-cache miss: stall fetch until the fill returns.
		t.nextFetchCycle = ready
		return
	}

	for n := 0; n < c.cfg.FetchWidth; n++ {
		if t.fetchQLen() >= t.fetchQCap {
			return
		}
		inst, ok := t.peekInst(t.fetchSeq)
		if !ok {
			return
		}
		u := c.newUop()
		u.inst = inst
		u.tid = t.id
		u.seq = t.fetchSeq
		if inst.HasDest() {
			u.archDest = int32(inst.Dest)
		}
		t.fetchSeq++
		t.fetched++
		c.stats.Fetched++

		stop := false
		if inst.Op == isa.OpBranch {
			predTaken, mispredict, token := t.pred.Predict(inst.PC, inst.Taken, inst.Target)
			u.mispredict = mispredict
			u.predToken = token
			if mispredict {
				// Fetch down the wrong path: block until resolution.
				t.fetchBlockedOn = u
				stop = true
			} else if predTaken {
				// Fetch group ends at a predicted-taken branch.
				stop = true
			}
		}
		u.frontReadyCycle = now + int64(c.cfg.FetchToDispatch)
		t.pushFetchQ(u)
		if stop {
			return
		}
	}
}

// pickFetchThread applies ICOUNT over fetchable threads.
func (c *Core) pickFetchThread(now int64) *thread {
	var best *thread
	bestCount := 0
	n := len(c.threads)
	j := c.fetchRR
	for i := 0; i < n; i++ {
		t := c.threads[j]
		if j++; j == n {
			j = 0
		}
		if t.done || t.fetchBlockedOn != nil || t.nextFetchCycle > now {
			continue
		}
		if t.fetchQLen() >= t.fetchQCap {
			continue
		}
		if _, ok := t.peekInst(t.fetchSeq); !ok {
			continue
		}
		if best == nil || t.icount() < bestCount {
			best = t
			bestCount = t.icount()
		}
	}
	return best
}

// peekInst returns the architectural instruction at sequence number seq,
// pulling from the workload stream (and growing the replay ring) as
// needed. It returns false once the stream is exhausted.
func (t *thread) peekInst(seq int64) (isa.Inst, bool) {
	for t.pulled <= seq {
		if t.streamDone {
			return isa.Inst{}, false
		}
		// Pull straight into the next ring slot: Next fully overwrites the
		// Inst, and handing it heap-backed storage keeps the pull loop
		// allocation-free (a stack temporary would escape through the
		// interface call). The slot is committed only on success.
		if t.replayLen == len(t.replayBuf) {
			t.replayGrow()
		}
		e := &t.replayBuf[(t.replayHead+t.replayLen)&(len(t.replayBuf)-1)]
		if !t.stream.Next(&e.inst) {
			t.streamDone = true
			return isa.Inst{}, false
		}
		e.seq = t.pulled
		t.replayLen++
		t.pulled++
	}
	i := seq - t.replayBase
	if i < 0 || i >= int64(t.replayLen) {
		panic(&InvariantError{Check: "replay-range", Cycle: -1, Thread: t.id,
			Detail: fmt.Sprintf("replay buffer [%d,%d) does not cover sequence %d",
				t.replayBase, t.replayBase+int64(t.replayLen), seq)})
	}
	return t.replayBuf[(t.replayHead+int(i))&(len(t.replayBuf)-1)].inst, true
}

// replayGrow doubles the replay ring, unwrapping it to offset zero.
func (t *thread) replayGrow() {
	next := make([]replayEntry, 2*len(t.replayBuf)) //shelfvet:ignore hotalloc — ring doubling, O(log n) occurrences
	for i := 0; i < t.replayLen; i++ {
		next[i] = t.replayBuf[(t.replayHead+i)&(len(t.replayBuf)-1)]
	}
	t.replayBuf = next
	t.replayHead = 0
}

// releaseReplay frees replay entries older than seq (called as
// instructions fully retire). The ring just advances its head.
func (t *thread) releaseReplay(seq int64) {
	drop := seq - t.replayBase
	if drop <= 0 {
		return
	}
	if drop > int64(t.replayLen) {
		drop = int64(t.replayLen)
	}
	t.replayHead = (t.replayHead + int(drop)) & (len(t.replayBuf) - 1)
	t.replayLen -= int(drop)
	t.replayBase += drop
}
