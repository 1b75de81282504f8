package core

import (
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
)

// memmodel_test.go holds directed tests for the memory-model side of the
// event stream (SetObserver) and the store-to-load forwarding / shelf-store
// coalescing edge cases the litmus checker relies on: same-cycle
// store/load forwarding, forwarding across a coalesced pair, the
// store-buffer coalescing window, forwarding from a store that is later
// squashed, and a shelf load forwarding from a younger IQ load.
// internal/litmus cannot be imported here (it imports core), so the tests
// assert directly on the captured event stream.

// captureEvents attaches a recording observer and returns the event slice.
func captureEvents(c *Core) *[]obs.Event {
	events := &[]obs.Event{}
	c.SetObserver(func(ev obs.Event) { *events = append(*events, ev) })
	return events
}

// issues returns the issue events of op-class ops at addr.
func issues(events []obs.Event, op isa.OpClass, addr uint64) []obs.Event {
	var out []obs.Event
	for _, ev := range events {
		if ev.Kind == obs.EvIssue && ev.Op == op && ev.Addr == addr {
			out = append(out, ev)
		}
	}
	return out
}

func loadIssues(events []obs.Event, addr uint64) []obs.Event { return issues(events, isa.OpLoad, addr) }
func storeIssues(events []obs.Event, addr uint64) []obs.Event {
	return issues(events, isa.OpStore, addr)
}

func commitSeqs(events []obs.Event, addr uint64) map[int64]bool {
	out := map[int64]bool{}
	for _, ev := range events {
		if ev.Kind == obs.EvStoreCommit && ev.Addr == addr {
			out[ev.Seq] = true
		}
	}
	return out
}

func squashes(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, ev := range events {
		if ev.Kind == obs.EvSquash {
			out = append(out, ev)
		}
	}
	return out
}

// loadWithSrc builds a load whose issue is artificially delayed behind a
// register dependence (the plain program.load helper has no sources).
func (p *program) loadWithSrc(dest int16, addr uint64, src int16) *program {
	return p.add(isa.Inst{Op: isa.OpLoad, Dest: dest, Srcs: srcs(src), Addr: addr, Size: 8})
}

// TestSameCycleStoreLoadForward makes an elder store and a younger load to
// the same line become ready on the same cycle (both wait on one ALU
// result; MemPorts=2 lets both issue together). The oldest-first select
// issues the store ahead of the load, and the store's address must be
// visible to the load immediately: the load forwards in the very cycle the
// store issues.
func TestSameCycleStoreLoadForward(t *testing.T) {
	const addr = 0x4000
	p := newProgram().
		alu(1).
		store(1, addr).
		loadWithSrc(10, addr, 1)
	c, err := New(config.Base64(1), []isa.Stream{p.stream("same-cycle")})
	if err != nil {
		t.Fatal(err)
	}
	events := captureEvents(c)
	run(t, c, 10_000)

	sts := storeIssues(*events, addr)
	lds := loadIssues(*events, addr)
	if len(sts) != 1 || len(lds) != 1 {
		t.Fatalf("got %d store / %d load issues, want 1/1\nevents: %+v", len(sts), len(lds), *events)
	}
	st, ld := sts[0], lds[0]
	if st.Cycle != ld.Cycle {
		t.Fatalf("store issued cycle %d, load cycle %d; want same cycle", st.Cycle, ld.Cycle)
	}
	if ld.Source != obs.LoadFromStore || ld.ProviderSeq != st.Seq {
		t.Fatalf("load observed (source=%d provider=%d), want forward from store seq %d",
			ld.Source, ld.ProviderSeq, st.Seq)
	}
}

// TestForwardAcrossCoalescedPair steers everything to the shelf and issues
// two same-line stores followed by a load. The younger store coalesces
// into the elder's entry (elder still in the window), and the load must
// forward from the youngest matching elder store — the coalesced one —
// while only the pair's head ever commits to the cache.
func TestForwardAcrossCoalescedPair(t *testing.T) {
	const addr = 0x5000
	cfg := config.Shelf64(1, true)
	cfg.Steer = config.SteerAllShelf
	cfg.Name = "shelf64-allshelf"
	// The divide (unpipelined, long latency) blocks in-order shelf
	// retirement so both stores are still in the forwarding window when
	// the load issues; without it the shelf prunes them within a cycle
	// or two and the load would read the cache instead.
	p := newProgram().
		alu(1).
		div(5, 1).
		store(1, addr).
		store(1, addr).
		load(10, addr)
	c, err := New(cfg, []isa.Stream{p.stream("coalesce-pair")})
	if err != nil {
		t.Fatal(err)
	}
	events := captureEvents(c)
	run(t, c, 10_000)

	sts := storeIssues(*events, addr)
	if len(sts) != 2 {
		t.Fatalf("got %d store issues, want 2", len(sts))
	}
	elder, young := sts[0], sts[1]
	if elder.Coalesced {
		t.Fatalf("elder store seq %d marked coalesced", elder.Seq)
	}
	if !young.Coalesced {
		t.Fatalf("younger same-line shelf store seq %d did not coalesce", young.Seq)
	}
	lds := loadIssues(*events, addr)
	if len(lds) != 1 {
		t.Fatalf("got %d load issues, want 1", len(lds))
	}
	if ld := lds[0]; ld.Source != obs.LoadFromStore || ld.ProviderSeq != young.Seq {
		t.Fatalf("load observed (source=%d provider=%d), want forward from coalesced store seq %d",
			ld.Source, ld.ProviderSeq, young.Seq)
	}
	commits := commitSeqs(*events, addr)
	if commits[young.Seq] {
		t.Fatalf("coalesced store seq %d committed to the cache", young.Seq)
	}
	if !commits[elder.Seq] {
		t.Fatalf("pair head seq %d never committed", elder.Seq)
	}
}

// TestStoreBufferCoalesce exercises the second coalescing source: the
// elder same-line store has already retired and pruned from the window,
// but its store-buffer entry has not drained (StoreBufDrainCycles), so the
// younger shelf store merges into the buffered slot instead of paying a
// second cache write.
func TestStoreBufferCoalesce(t *testing.T) {
	const addr = 0x6000
	cfg := config.Shelf64(1, true)
	cfg.Steer = config.SteerAllShelf
	cfg.Name = "shelf64-allshelf"
	p := newProgram().
		alu(1).
		store(1, addr)
	for i := 0; i < 8; i++ {
		p.alu(2, 1)
	}
	p.store(1, addr)
	c, err := New(cfg, []isa.Stream{p.stream("storebuf-coalesce")})
	if err != nil {
		t.Fatal(err)
	}
	events := captureEvents(c)
	run(t, c, 10_000)

	sts := storeIssues(*events, addr)
	if len(sts) != 2 {
		t.Fatalf("got %d store issues, want 2", len(sts))
	}
	elder, young := sts[0], sts[1]
	if !young.Coalesced {
		t.Fatalf("younger store seq %d did not coalesce (issued cycle %d, elder issued %d)",
			young.Seq, young.Cycle, elder.Cycle)
	}
	// The interesting part: the elder must be fully retired (pruned from
	// the forwarding window) before the younger issues, proving the merge
	// came from the store buffer, not from an in-window elder entry.
	var elderRetire int64 = -1
	for _, ev := range *events {
		if ev.Kind == obs.EvRetire && ev.Seq == elder.Seq {
			elderRetire = ev.Cycle
		}
	}
	if elderRetire < 0 {
		t.Fatalf("elder store seq %d never retired", elder.Seq)
	}
	if elderRetire > young.Cycle {
		t.Fatalf("elder store retired cycle %d after younger issued cycle %d: "+
			"coalesce came from the window, not the store buffer; add filler ops",
			elderRetire, young.Cycle)
	}
	if gap := young.Cycle - elder.Cycle; gap >= StoreBufDrainCycles+4 {
		t.Fatalf("stores issued %d cycles apart; store buffer would have drained", gap)
	}
	if commits := commitSeqs(*events, addr); commits[young.Seq] {
		t.Fatalf("coalesced store seq %d committed to the cache", young.Seq)
	}
}

// TestForwardAfterViolationReplay provokes a memory-order violation: a
// load issues early from the cache while the same-line elder store is
// stalled behind an unpipelined divide chain. When the store's address
// resolves the core must squash and replay the load, and the replayed
// incarnation — the architecturally final one — must forward from the
// store, which is still in the window because a second divide blocks its
// retirement.
func TestForwardAfterViolationReplay(t *testing.T) {
	const addr = 0x7000
	p := newProgram().
		alu(1).
		div(2, 1).
		div(3, 2).
		store(2, addr).
		load(10, addr)
	c, err := New(config.Base64(1), []isa.Stream{p.stream("violation-replay")})
	if err != nil {
		t.Fatal(err)
	}
	events := captureEvents(c)
	run(t, c, 10_000)

	if len(squashes(*events)) == 0 {
		t.Fatalf("no squash observed: the early load was never caught by the late store")
	}
	sts := storeIssues(*events, addr)
	if len(sts) == 0 {
		t.Fatal("store never issued")
	}
	storeSeq := sts[0].Seq
	lds := loadIssues(*events, addr)
	if len(lds) < 2 {
		t.Fatalf("got %d load issues, want >= 2 (original + replay)", len(lds))
	}
	if first := lds[0]; first.Source != obs.LoadFromCache {
		t.Fatalf("first load incarnation source=%d, want cache (it issued before the store)", first.Source)
	}
	if final := lds[len(lds)-1]; final.Source != obs.LoadFromStore || final.ProviderSeq != storeSeq {
		t.Fatalf("final load incarnation observed (source=%d provider=%d), want forward from store seq %d",
			final.Source, final.ProviderSeq, storeSeq)
	}
	if got := c.RetiredOf(0); got != 5 {
		t.Fatalf("retired %d instructions, want 5", got)
	}
}

// TestForwardFromSquashedStore builds a forward whose provider is itself
// squashed afterwards: a younger store/load pair (B) issues early and the
// load forwards from the store; then an elder same-line store (A) resolves
// late, and its violation squash kills the already-forwarded pair. The
// observation "a load forwarded from a store that later died" must appear
// in the stream, paired with a squash that covers both, and the replayed
// incarnations must retire cleanly.
func TestForwardFromSquashedStore(t *testing.T) {
	const (
		addrA = 0x8000
		addrB = 0x9000
	)
	p := newProgram().
		alu(1).
		div(2, 1).
		div(3, 2).
		store(2, addrA). // stalls on div chain, resolves late
		load(10, addrA). // issues early -> violation, squashed
		store(1, addrB). // issues early, dies in the same squash
		load(11, addrB)  // forwards from the doomed store
	c, err := New(config.Base64(1), []isa.Stream{p.stream("squashed-provider")})
	if err != nil {
		t.Fatal(err)
	}
	events := captureEvents(c)
	run(t, c, 10_000)

	sq := squashes(*events)
	if len(sq) == 0 {
		t.Fatal("no squash observed")
	}
	stsB := storeIssues(*events, addrB)
	ldsB := loadIssues(*events, addrB)
	if len(stsB) < 2 || len(ldsB) < 2 {
		t.Fatalf("got %d store / %d load issues on B, want >= 2 each (original + replay)",
			len(stsB), len(ldsB))
	}
	first := ldsB[0]
	if first.Source != obs.LoadFromStore || first.ProviderSeq != stsB[0].Seq {
		t.Fatalf("first B load observed (source=%d provider=%d), want forward from store seq %d",
			first.Source, first.ProviderSeq, stsB[0].Seq)
	}
	// The squash must cover the provider: the forward's source died.
	covered := false
	for _, s := range sq {
		if s.Seq <= first.ProviderSeq && s.Cycle >= first.Cycle {
			covered = true
		}
	}
	if !covered {
		t.Fatalf("no squash killed provider seq %d after the forward at cycle %d: %+v",
			first.ProviderSeq, first.Cycle, sq)
	}
	if final := ldsB[len(ldsB)-1]; final.Source != obs.LoadFromStore ||
		final.ProviderSeq != stsB[len(stsB)-1].Seq {
		t.Fatalf("final B load observed (source=%d provider=%d), want forward from replayed store seq %d",
			final.Source, final.ProviderSeq, stsB[len(stsB)-1].Seq)
	}
	if got := c.RetiredOf(0); got != 7 {
		t.Fatalf("retired %d instructions, want 7", got)
	}
}

// loadToLoadProgram is the workload of TestShelfLoadForwardsFromYoungerIQLoad
// under coarse steering with a two-instruction interval: twenty
// cache-missing loads that all write r10, a load of line 0x40 into r10
// (seq 20), three ALU fillers, and a younger load of the same line into
// r12 (seq 24).
func loadToLoadProgram() (config.Config, *program) {
	p := newProgram()
	for i := 0; i < 20; i++ {
		p.load(10, uint64(i+1)<<20)
	}
	p.load(10, 0x40)
	for i := 0; i < 3; i++ {
		p.alu(2, 2)
	}
	p.load(12, 0x40)
	return config.Coarse64(1, 2), p
}

// TestShelfLoadForwardsFromYoungerIQLoad reaches load-to-load forwarding
// (§III-D) in a real run. Practical and oracle steering never shelve a
// load: a load goes to the shelf only on a strict win, and neither
// predicts a shelf issue earlier than the IQ's. All-shelf steering has no
// IQ loads. Coarse steering is the one policy that mixes the two, since
// it flips a thread between all-shelf and all-IQ mode every
// CoarseInterval retired instructions. Here the misses fill the load
// queue, and as they retire the thread flips to shelf mode for the elder
// load of 0x40 and back to IQ mode by the younger one. The shelf load
// waits on the WAW scoreboard (§III-C) for the last miss to write r10,
// while the younger IQ load issues at once; so when the shelf load issues
// it forwards from the younger load.
func TestShelfLoadForwardsFromYoungerIQLoad(t *testing.T) {
	cfg, p := loadToLoadProgram()
	c, err := New(cfg, []isa.Stream{p.stream("load-to-load")})
	if err != nil {
		t.Fatal(err)
	}
	events := captureEvents(c)
	run(t, c, 10_000)

	lds := loadIssues(*events, 0x40)
	if len(lds) != 2 {
		t.Fatalf("got %d issues of line 0x40, want 2\nevents: %+v", len(lds), lds)
	}
	young, elder := lds[0], lds[1]
	if young.Seq != 24 || young.ToShelf || elder.Seq != 20 || !elder.ToShelf {
		t.Fatalf("want IQ load seq 24 to issue before shelf load seq 20, got %+v then %+v", young, elder)
	}
	if young.Source != obs.LoadFromCache {
		t.Errorf("IQ load observed source=%d, want the cache", young.Source)
	}
	if elder.Source != obs.LoadFromLoad || elder.ProviderSeq != young.Seq {
		t.Errorf("shelf load observed (source=%d provider=%d), want forward from load seq %d",
			elder.Source, elder.ProviderSeq, young.Seq)
	}
	if got := c.RetiredOf(0); got != int64(len(p.insts)) {
		t.Errorf("retired %d instructions, want %d", got, len(p.insts))
	}
}
