package litmus

import (
	"context"
	"strings"
	"testing"

	"shelfsim/internal/core"
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
)

// drain pulls up to n instructions from a stream.
func drain(t *testing.T, s isa.Stream, n int) []isa.Inst {
	t.Helper()
	out := make([]isa.Inst, 0, n)
	var in isa.Inst
	for len(out) < n && s.Next(&in) {
		out = append(out, in)
	}
	return out
}

func TestPatternShapes(t *testing.T) {
	for p := Pattern(0); p < NumPatterns; p++ {
		inst := New(Params{Pattern: p, Seed: 42, Insts: 100, MaxPad: 3})
		if got := len(inst.Streams); got != p.Threads() {
			t.Errorf("%v: %d streams, want %d", p, got, p.Threads())
		}
		// Every thread's loop body must contain at least one memory op and
		// terminate each pass with the always-taken back edge.
		for tid, s := range inst.Streams {
			insts := drain(t, s, 400)
			if len(insts) != 400 {
				t.Fatalf("%v t%d: stream ended after %d insts", p, tid, len(insts))
			}
			mem, backEdges := 0, 0
			for _, in := range insts {
				if in.Op.IsMem() {
					mem++
				}
				if in.Op == isa.OpBranch && in.Taken && in.Target < in.PC {
					backEdges++
				}
			}
			if mem == 0 {
				t.Errorf("%v t%d: no memory ops in 400 instructions", p, tid)
			}
			if backEdges == 0 {
				t.Errorf("%v t%d: no back edges in 400 instructions", p, tid)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := Params{Pattern: PatternMP, Seed: 7, Insts: 100, MaxPad: 6,
		SameLine: true, PrivateMem: true, Branchy: true}
	a, b := New(p), New(p)
	for tid := range a.Streams {
		ia, ib := drain(t, a.Streams[tid], 1000), drain(t, b.Streams[tid], 1000)
		for i := range ia {
			if ia[i] != ib[i] {
				t.Fatalf("t%d inst %d differs between equal-Params instances: %+v vs %+v",
					tid, i, ia[i], ib[i])
			}
		}
	}
	// A different seed must generate a different program (padding, layout
	// or branch outcomes).
	c := New(Params{Pattern: PatternMP, Seed: 8, Insts: 100, MaxPad: 6,
		SameLine: true, PrivateMem: true, Branchy: true})
	ia, ic := drain(t, a.Streams[0], 1000), drain(t, c.Streams[0], 1000)
	same := true
	for i := range ia {
		if ia[i] != ic[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 generated identical thread-0 programs")
	}
}

// Synthetic-event helpers: the checker is driven directly, without a core.

func loadEv(seq, cycle int64, addr uint64, src obs.LoadSource, prov int64, shelf bool) obs.Event {
	return obs.Event{Kind: obs.EvIssue, Tid: 0, Seq: seq, Cycle: cycle, Op: isa.OpLoad,
		Addr: addr, ToShelf: shelf, Source: src, ProviderSeq: prov}
}

func storeEv(seq, cycle int64, addr uint64, shelf, coalesced bool) obs.Event {
	return obs.Event{Kind: obs.EvIssue, Tid: 0, Seq: seq, Cycle: cycle, Op: isa.OpStore,
		Addr: addr, ToShelf: shelf, Coalesced: coalesced, ProviderSeq: -1}
}

func commitEv(seq, cycle int64, addr uint64) obs.Event {
	return obs.Event{Kind: obs.EvStoreCommit, Tid: 0, Seq: seq, Cycle: cycle, Op: isa.OpStore,
		Addr: addr, ProviderSeq: -1}
}

func retireEv(op isa.OpClass, seq, cycle int64, addr uint64) obs.Event {
	return obs.Event{Kind: obs.EvRetire, Tid: 0, Seq: seq, Cycle: cycle, Op: op,
		Addr: addr, ProviderSeq: -1}
}

func retireLoad(seq, cycle int64, addr uint64) obs.Event {
	return retireEv(isa.OpLoad, seq, cycle, addr)
}

func retireStore(seq, cycle int64, addr uint64) obs.Event {
	return retireEv(isa.OpStore, seq, cycle, addr)
}

func squashEv(fromSeq, cycle int64) obs.Event {
	return obs.Event{Kind: obs.EvSquash, Tid: 0, Seq: fromSeq, Cycle: cycle, ProviderSeq: -1}
}

const lineA = uint64(0x1000)

func TestCheckerCleanSequence(t *testing.T) {
	ch := NewChecker(1)
	for _, ev := range []obs.Event{
		storeEv(1, 2, lineA, false, false),
		loadEv(2, 3, lineA, obs.LoadFromStore, 1, false),
		commitEv(1, 10, lineA),
		retireStore(1, 10, lineA),
		retireLoad(2, 10, lineA),
		// Non-memory ops carry no model state: counted nowhere.
		{Kind: obs.EvIssue, Seq: 3, Cycle: 10, Op: isa.OpIntAlu, ProviderSeq: -1},
		retireEv(isa.OpIntAlu, 3, 11, 0),
	} {
		ch.Observe(ev)
	}
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("clean sequence produced violations: %v", v)
	}
	st := ch.Stats()
	if st.Loads != 1 || st.LoadFwdStore != 1 || st.Stores != 1 || st.Commits != 1 || st.Retires != 2 {
		t.Errorf("unexpected stats: %+v", st)
	}
}

func TestCheckerAxioms(t *testing.T) {
	cases := []struct {
		name  string
		axiom string
		evs   []obs.Event
	}{
		{
			name:  "forward from unknown provider",
			axiom: "fwd-provider",
			evs:   []obs.Event{loadEv(2, 3, lineA, obs.LoadFromStore, 99, false)},
		},
		{
			name:  "forward skips the youngest matching store",
			axiom: "fwd-youngest",
			evs: []obs.Event{
				storeEv(1, 2, lineA, false, false),
				storeEv(2, 3, lineA, false, false),
				loadEv(3, 4, lineA, obs.LoadFromStore, 1, false),
			},
		},
		{
			name:  "cache load ignores a live elder store",
			axiom: "stale-load",
			evs: []obs.Event{
				storeEv(1, 2, lineA, false, false),
				loadEv(2, 4, lineA, obs.LoadFromCache, -1, false),
			},
		},
		{
			name:  "squashed store writes the cache",
			axiom: "squashed-visible",
			evs: []obs.Event{
				storeEv(1, 2, lineA, false, false),
				squashEv(1, 3),
				commitEv(1, 5, lineA),
			},
		},
		{
			name:  "younger store commits before elder",
			axiom: "commit-order",
			evs: []obs.Event{
				storeEv(1, 2, lineA, false, false),
				storeEv(2, 3, lineA, false, false),
				commitEv(2, 5, lineA),
			},
		},
		{
			name:  "program-order retire goes backwards",
			axiom: "retire-order",
			evs: []obs.Event{
				storeEv(1, 2, lineA, false, false),
				storeEv(2, 3, lineA, false, false),
				commitEv(1, 5, lineA),
				commitEv(2, 6, lineA),
				retireStore(2, 6, lineA),
				retireStore(1, 7, lineA),
			},
		},
		{
			name:  "squashed op retires",
			axiom: "squashed-visible",
			evs: []obs.Event{
				loadEv(2, 3, lineA, obs.LoadFromCache, -1, false),
				squashEv(2, 4),
				retireLoad(2, 5, lineA),
			},
		},
		{
			name:  "retire of an unobserved op",
			axiom: "retire-unknown",
			evs:   []obs.Event{retireLoad(42, 5, lineA)},
		},
		{
			name:  "load-to-load forwarding outside the shelf",
			axiom: "fwd-load",
			evs: []obs.Event{
				loadEv(5, 3, lineA, obs.LoadFromCache, -1, false),
				loadEv(2, 4, lineA, obs.LoadFromLoad, 5, false),
			},
		},
		{
			name:  "load chain observes a younger store",
			axiom: "fwd-load-order",
			evs: []obs.Event{
				storeEv(3, 2, lineA, false, false),
				loadEv(5, 3, lineA, obs.LoadFromStore, 3, false),
				loadEv(2, 4, lineA, obs.LoadFromLoad, 5, true),
			},
		},
		{
			name:  "coalesced store without a victim",
			axiom: "coalesce-source",
			evs:   []obs.Event{storeEv(1, 2, lineA, true, true)},
		},
		{
			name:  "store retires without committing",
			axiom: "commit-missing",
			evs: []obs.Event{
				storeEv(1, 2, lineA, false, false),
				retireStore(1, 5, lineA),
			},
		},
		{
			name:  "load read the cache before its elder store committed",
			axiom: "stale-final",
			evs: []obs.Event{
				storeEv(1, 2, lineA, false, false),
				commitEv(1, 9, lineA),
				retireStore(1, 9, lineA),
				loadEv(2, 5, lineA, obs.LoadFromCache, -1, false),
				retireLoad(2, 12, lineA),
			},
		},
		{
			name:  "forwarded load retires with a stale provider",
			axiom: "fwd-final",
			evs: []obs.Event{
				storeEv(1, 2, lineA, false, false),
				loadEv(3, 3, lineA, obs.LoadFromStore, 1, false),
				storeEv(2, 4, lineA, false, false),
				commitEv(1, 6, lineA),
				commitEv(2, 7, lineA),
				retireStore(1, 7, lineA),
				retireStore(2, 8, lineA),
				retireLoad(3, 9, lineA),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := NewChecker(1)
			for _, ev := range tc.evs {
				ch.Observe(ev)
			}
			vs := ch.Violations()
			if len(vs) == 0 {
				t.Fatalf("no violation recorded, want axiom %s", tc.axiom)
			}
			found := false
			for _, v := range vs {
				if v.Axiom == tc.axiom {
					found = true
					if v.Error() == "" || !strings.Contains(v.Error(), tc.axiom) {
						t.Errorf("violation renders badly: %q", v.Error())
					}
				}
			}
			if !found {
				t.Fatalf("axiom %s not among violations %v", tc.axiom, vs)
			}
		})
	}
}

// TestCheckerCoalesceVictims covers the two legitimate coalescing sources:
// an elder in-window store and a store-buffer entry inside its drain
// window.
func TestCheckerCoalesceVictims(t *testing.T) {
	ch := NewChecker(1)
	ch.Observe(storeEv(1, 2, lineA, true, false))
	ch.Observe(storeEv(2, 3, lineA, true, true)) // coalesces into seq 1
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("elder-victim coalesce flagged: %v", v)
	}

	ch = NewChecker(1)
	ch.Observe(storeEv(1, 2, lineA, true, false))
	ch.Observe(commitEv(1, 4, lineA))
	ch.Observe(retireStore(1, 4, lineA))
	// Within storeBufDrainCycles of the commit: legitimate.
	ch.Observe(storeEv(2, 4+core.StoreBufDrainCycles-1, lineA, true, true))
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("store-buffer coalesce flagged: %v", v)
	}
	// Past the drain window: no victim remains.
	ch.Observe(retireStore(2, 30, lineA))
	ch.Observe(storeEv(3, 4+core.StoreBufDrainCycles+20, lineA, true, true))
	found := false
	for _, v := range ch.Violations() {
		if v.Axiom == "coalesce-source" {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-drain coalesce not flagged: %v", ch.Violations())
	}
}

// TestCheckerSquashReplay exercises the incarnation logic: a squashed load
// re-issues with the same sequence number and retires cleanly.
func TestCheckerSquashReplay(t *testing.T) {
	ch := NewChecker(1)
	for _, ev := range []obs.Event{
		storeEv(1, 2, lineA, false, false),
		loadEv(2, 3, lineA, obs.LoadFromStore, 1, false),
		squashEv(2, 4),
		loadEv(2, 6, lineA, obs.LoadFromStore, 1, false), // replay
		commitEv(1, 8, lineA),
		retireStore(1, 8, lineA),
		retireLoad(2, 9, lineA),
	} {
		ch.Observe(ev)
	}
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("squash-replay sequence flagged: %v", v)
	}
	if ch.Stats().Squashes != 1 {
		t.Errorf("squashes = %d, want 1", ch.Stats().Squashes)
	}
}

func TestShrinkWith(t *testing.T) {
	p := Params{Pattern: PatternSB, Seed: 1, Insts: 160, MaxPad: 6,
		SameLine: true, PrivateMem: true, Branchy: true}
	// The "bug" reproduces whenever the contended locations share a line.
	got := shrinkWith(p, func(q Params) bool { return q.SameLine })
	if !got.SameLine {
		t.Fatal("shrink dropped the failure-carrying reduction")
	}
	if got.Insts >= p.Insts || got.MaxPad != 0 || got.Branchy || got.PrivateMem {
		t.Errorf("shrink left reducible dimensions: %+v", got)
	}
	// A predicate that never re-fails keeps the original params.
	if got := shrinkWith(p, func(Params) bool { return false }); got != p {
		t.Errorf("unreproducible failure mutated params: %+v", got)
	}
}

func TestConfigForErrors(t *testing.T) {
	if _, err := configFor("no-such-preset", "", 2); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := configFor("base64", "no-such-steer", 2); err == nil {
		t.Error("unknown steering policy accepted")
	}
	cfg, err := configFor("shelf64-opt", "all-shelf", 2)
	if err != nil {
		t.Fatalf("valid preset+steer rejected: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("materialized config invalid: %v", err)
	}
}

func TestCampaignCleanAndDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	cc := CampaignConfig{Seed: 5, Instances: 12, Insts: 96, MaxPad: 4, FaultSample: 1}
	rep := RunCampaign(context.Background(), cc)
	if !rep.OK() {
		t.Fatalf("campaign failed: %+v", rep.Manifest())
	}
	if rep.Coverage.Loads == 0 || rep.Coverage.Stores == 0 || rep.Coverage.Commits == 0 {
		t.Fatalf("campaign exercised nothing: %+v", rep.Coverage)
	}
	if rep.Coverage.LoadFwdStore == 0 {
		t.Errorf("no store-to-load forwarding covered: %+v", rep.Coverage)
	}
	if len(rep.FaultCells) != 3 {
		t.Fatalf("fault matrix has %d cells, want 3", len(rep.FaultCells))
	}
	for _, cell := range rep.FaultCells {
		if !cell.Detected {
			t.Errorf("fault %s on %s undetected: %s", cell.Kind, cell.Preset, cell.Check)
		}
	}

	// The same campaign config enumerates the same instances and observes
	// identical coverage: the whole pipeline is deterministic.
	rep2 := RunCampaign(context.Background(), cc)
	if rep.Coverage != rep2.Coverage {
		t.Errorf("coverage differs across identical campaigns:\n  %+v\n  %+v",
			rep.Coverage, rep2.Coverage)
	}
}

func TestReplayInstance(t *testing.T) {
	p := Params{Pattern: PatternCoWW, Seed: 11, Insts: 64, MaxPad: 2, PrivateMem: true}
	rep := ReplayInstance(context.Background(), p, CampaignConfig{})
	if len(rep.Failures) != 0 {
		t.Fatalf("clean instance replay failed: %v", rep.Failures[0])
	}
}

// TestFaultMatrixTyped verifies each fault kind end to end on a real core:
// the injected corruption must surface as a typed *core.InvariantError
// carrying the expected check identifier — never a silent pass.
func TestFaultMatrixTyped(t *testing.T) {
	cc := CampaignConfig{Seed: 9, FaultSample: 1}.withDefaults()
	cells := runFaultMatrix(context.Background(), cc)
	want := map[string]string{
		"window":     "rob-order",
		"store-drop": "lsq-membership",
		"wakeup-tag": "sched-wakeup",
	}
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for _, cell := range cells {
		if !cell.Detected {
			t.Errorf("fault %s undetected: %s", cell.Kind, cell.Check)
			continue
		}
		if cell.Check != want[cell.Kind] {
			t.Errorf("fault %s tripped %q, want %q", cell.Kind, cell.Check, want[cell.Kind])
		}
	}
}
