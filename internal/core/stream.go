package core

import "shelfsim/internal/obs"

// SetObserver installs fn to receive the core's event stream (obs.Event):
// every steering decision, issue (with a load's observed provenance),
// store commit, retirement, squash and cycle. The axiomatic litmus checker
// and the retire-order differential are its consumers. With
// Config.Telemetry set, the core's own collector keeps receiving the
// kinds it counts ahead of fn. Events are delivered synchronously from the
// simulation loop; fn must not call back into the core.
func (c *Core) SetObserver(fn func(obs.Event)) {
	c.observer = fn
	c.sink = fn
	if t := c.tele; t != nil {
		c.sink = t.Observe
		if fn != nil {
			c.sink = func(ev obs.Event) {
				t.Observe(ev)
				fn(ev)
			}
		}
	}
}

// emit reports kind for u at cycle now to to: c.sink, or c.observer for
// the kinds the collector ignores. Callers check to for nil first, so an
// unobserved core pays one branch per site.
func (c *Core) emit(to func(obs.Event), kind obs.EventKind, u *uop, now int64) {
	ev := obs.Event{Kind: kind, Tid: u.tid, Seq: u.seq, Cycle: now, Op: u.inst.Op,
		Addr: u.inst.Addr, ToShelf: u.toShelf, Coalesced: u.coalesced, ProviderSeq: -1,
		DispatchCycle: u.dispatchCycle, CompleteCycle: u.completeCycle}
	if u.forwarded {
		// Store forwarding reads an elder store, load forwarding a
		// younger load (§III-D).
		ev.Source, ev.ProviderSeq = obs.LoadFromStore, u.forwardedFromSeq
		if ev.ProviderSeq > u.seq {
			ev.Source = obs.LoadFromLoad
		}
	}
	to(ev)
}
