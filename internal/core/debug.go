package core

import (
	"fmt"
	"strings"
)

// DebugDump renders the core's window state for debugging stuck
// simulations. It is not part of the stable API.
func (c *Core) DebugDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d iq=%d events=%d freePRI=%d freeExt=%d\n",
		c.cycle, len(c.iq), c.events.pending, len(c.freePRI), len(c.freeExt))
	for _, t := range c.threads {
		fmt.Fprintf(&b, "thread %d: done=%v fetchSeq=%d pulled=%d fetchQ=%d inflight=%d nextFetch=%d blocked=%v\n",
			t.id, t.done, t.fetchSeq, t.pulled, t.fetchQLen(), len(t.inflight),
			t.nextFetchCycle, t.fetchBlockedOn != nil)
		fmt.Fprintf(&b, "  rob[%d,%d) itHead=%d lastIQ=%d shelf[%d,%d) retire=%d\n",
			t.robHead, t.robAllocPos, t.itHead, t.lastIQPos,
			t.shelfHead, t.shelfTail, t.shelfRetire)
		n := len(t.inflight)
		if n > 12 {
			n = 12
		}
		for _, u := range t.inflight[:n] {
			ready := ""
			for _, tag := range u.srcTags {
				if tag >= 0 && !c.tagReady[tag] {
					ready += fmt.Sprintf(" !t%d", tag)
				}
			}
			fmt.Fprintf(&b, "    %v seq=%d gseq=%d robPos=%d shelfIdx=%d dest=%d/%d prev=%d/%d%s\n",
				u, u.seq, u.gseq, u.robPos, u.shelfIdx, u.destPRI, u.destTag, u.prevPRI, u.prevTag, ready)
		}
	}
	return b.String()
}
