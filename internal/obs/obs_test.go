package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shelfsim/internal/isa"
)

// Synthesized core events, one constructor per kind the collector counts.

func steerEv(op isa.OpClass, toShelf bool) Event {
	return Event{Kind: EvSteer, Op: op, ToShelf: toShelf}
}

// issueEv is an op issued at cycle 100 that waited issueDelay cycles since
// dispatch and completes completeDelay cycles after issue.
func issueEv(op isa.OpClass, toShelf bool, issueDelay, completeDelay int64) Event {
	return Event{Kind: EvIssue, Op: op, ToShelf: toShelf, Cycle: 100,
		DispatchCycle: 100 - issueDelay, CompleteCycle: 100 + completeDelay}
}

func squashEv(cause SquashCause) Event { return Event{Kind: EvSquash, Cause: cause} }

func cycleEv(s CycleSample) Event { return Event{Kind: EvCycle, Sample: s} }

// sample builds a collector with a little of everything observed.
func sample() *Collector {
	c := New()
	for _, ev := range []Event{
		steerEv(isa.OpLoad, true),
		steerEv(isa.OpLoad, true),
		steerEv(isa.OpLoad, false),
		steerEv(isa.OpBranch, false),
		issueEv(isa.OpLoad, true, 3, 7),
		issueEv(isa.OpLoad, true, 5, 9),
		issueEv(isa.OpBranch, false, 1, 1),
		squashEv(SquashMispredict),
		squashEv(SquashMemOrder),
		squashEv(SquashMemOrder),
		cycleEv(CycleSample{DispatchSlots: 2, IssueSlots: 4, IQ: 10, ROB: 40, Shelf: 8, LQ: 6, SQ: 4, PRF: 70, Ready: 3, Wakeups: 5}),
		cycleEv(CycleSample{IQ: 20, ROB: 60, LQ: 2, SQ: 2, PRF: 90, Ready: 1}),
	} {
		c.Observe(ev)
	}
	return c
}

// TestObserveIgnoresUncountedKinds: store commits and retirements reach
// the collector on the shared stream but change nothing.
func TestObserveIgnoresUncountedKinds(t *testing.T) {
	c := sample()
	c.Observe(Event{Kind: EvStoreCommit, Op: isa.OpStore, Cycle: 7})
	c.Observe(Event{Kind: EvRetire, Op: isa.OpLoad, ToShelf: true, Cycle: 8})
	if !reflect.DeepEqual(c, sample()) {
		t.Errorf("store commit or retire changed the collector: %+v", c)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	// None of these may panic.
	c.Merge(sample())
	sample().Merge(c)
	if got := c.Clone(); got != nil {
		t.Fatalf("nil.Clone() = %v, want nil", got)
	}
	snap := c.Snapshot()
	if snap.Cycles != 0 || len(snap.Steer) != 0 {
		t.Fatalf("nil.Snapshot() not empty: %+v", snap)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatalf("nil.WriteJSON: %v", err)
	}
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatalf("nil.WriteCSV: %v", err)
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	s := sample().Snapshot()
	if s.Cycles != 2 {
		t.Errorf("Cycles = %d, want 2", s.Cycles)
	}
	if got := s.Steer["load"]; got != (SteerCount{Shelf: 2, IQ: 1}) {
		t.Errorf("Steer[load] = %+v", got)
	}
	if got := s.Steer["branch"]; got != (SteerCount{Shelf: 0, IQ: 1}) {
		t.Errorf("Steer[branch] = %+v", got)
	}
	if _, ok := s.Steer["store"]; ok {
		t.Error("zero Steer entry not omitted")
	}
	d := s.Delays["sh.load"]
	if d.Count != 2 || d.MeanIssueDelay != 4 || d.MeanCompleteDelay != 8 {
		t.Errorf("Delays[sh.load] = %+v", d)
	}
	if s.Squashes["mispredict"] != 1 || s.Squashes["mem_order"] != 2 {
		t.Errorf("Squashes = %+v", s.Squashes)
	}
	occ := s.Occupancy["iq"]
	if occ.Mean != 15 || occ.Max != 20 {
		t.Errorf("Occupancy[iq] = %+v", occ)
	}
	if s.DispatchSlots[0] != 1 || s.DispatchSlots[2] != 1 || s.IssueSlots[4] != 1 {
		t.Errorf("slot histograms: dispatch %v issue %v", s.DispatchSlots, s.IssueSlots)
	}
	if r, w := s.Occupancy["ready"], s.Occupancy["wakeups"]; r.Mean != 2 || r.Max != 3 || w.Mean != 2.5 || w.Max != 5 {
		t.Errorf("scheduler gauges: ready %+v wakeups %+v", r, w)
	}
}

func TestMergeEqualsSum(t *testing.T) {
	a, b := sample(), sample()
	b.Observe(steerEv(isa.OpStore, false))
	b.Observe(cycleEv(CycleSample{IQ: 100, ROB: 1, Shelf: 1, LQ: 1, SQ: 1, PRF: 1}))

	merged := a.Clone()
	merged.Merge(b)

	if merged.Cycles != a.Cycles+b.Cycles {
		t.Errorf("Cycles = %d, want %d", merged.Cycles, a.Cycles+b.Cycles)
	}
	if got := merged.Steer[SideShelf][isa.OpLoad]; got != 4 {
		t.Errorf("merged shelf loads = %d, want 4", got)
	}
	if got := merged.Steer[SideIQ][isa.OpStore]; got != 1 {
		t.Errorf("merged iq stores = %d, want 1", got)
	}
	if merged.IQ.Max != 100 {
		t.Errorf("merged IQ.Max = %d, want 100", merged.IQ.Max)
	}
	if merged.IQ.Sum != a.IQ.Sum+b.IQ.Sum || merged.IQ.Samples != a.IQ.Samples+b.IQ.Samples {
		t.Errorf("merged IQ gauge = %+v", merged.IQ)
	}

	// Commutativity: b.Merge(a) must yield the same collector.
	other := b.Clone()
	other.Merge(a)
	if !reflect.DeepEqual(merged, other) {
		t.Errorf("merge not commutative:\n a+b %+v\n b+a %+v", merged, other)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := sample()
	b := a.Clone()
	b.Observe(steerEv(isa.OpLoad, true))
	if a.Steer[SideShelf][isa.OpLoad] == b.Steer[SideShelf][isa.OpLoad] {
		t.Error("clone shares state with original")
	}
}

func TestSlotClamping(t *testing.T) {
	c := New()
	c.Observe(cycleEv(CycleSample{DispatchSlots: -3, IssueSlots: NumSlots + 100}))
	if c.DispatchSlots[0] != 1 {
		t.Errorf("negative dispatch not clamped to 0: %v", c.DispatchSlots)
	}
	if c.IssueSlots[NumSlots-1] != 1 {
		t.Errorf("oversized issue not clamped to last bucket: %v", c.IssueSlots)
	}
}

func TestJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if s.Cycles != 2 || s.Steer["load"].Shelf != 2 {
		t.Errorf("decoded snapshot wrong: %+v", s)
	}
}

func TestCSVParses(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output not valid CSV: %v", err)
	}
	if got := rows[0]; !reflect.DeepEqual(got, []string{"section", "key", "field", "value"}) {
		t.Errorf("header = %v", got)
	}
	found := false
	for _, r := range rows[1:] {
		if len(r) != 4 {
			t.Fatalf("row %v has %d fields", r, len(r))
		}
		if r[0] == "steer" && r[1] == "load" && r[2] == "shelf" && r[3] == "2" {
			found = true
		}
	}
	if !found {
		t.Error("steer,load,shelf,2 row missing")
	}
}

func TestWriteFilePicksFormat(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "obs.json")
	csvPath := filepath.Join(dir, "obs.csv")
	if err := WriteFile(jsonPath, sample()); err != nil {
		t.Fatalf("WriteFile json: %v", err)
	}
	if err := WriteFile(csvPath, sample()); err != nil {
		t.Fatalf("WriteFile csv: %v", err)
	}
	j, _ := os.ReadFile(jsonPath)
	if !json.Valid(j) {
		t.Error("json file not valid JSON")
	}
	c, _ := os.ReadFile(csvPath)
	if !strings.HasPrefix(string(c), "section,key,field,value") {
		t.Errorf("csv file missing header: %q", string(c[:40]))
	}
}

// TestMergeNilIdentityAndNoMutation pins the nil contract's semantics, not
// just its memory safety: merging a nil collector is the identity, and
// merging into a nil receiver neither materializes a collector nor mutates
// the argument.
func TestMergeNilIdentityAndNoMutation(t *testing.T) {
	src := sample()
	want := src.Clone()

	// Nil argument: src must be bit-for-bit unchanged.
	src.Merge(nil)
	if !reflect.DeepEqual(src, want) {
		t.Fatalf("Merge(nil) changed the receiver:\n got %+v\nwant %+v", src, want)
	}

	// Nil receiver: a no-op that must leave the argument untouched.
	var dst *Collector
	dst.Merge(src)
	if !reflect.DeepEqual(src, want) {
		t.Fatalf("nil.Merge(src) mutated the argument:\n got %+v\nwant %+v", src, want)
	}

	// Clone of nil stays nil through a merge chain, so a sweep that never
	// enabled telemetry aggregates to an empty snapshot, not a crash.
	cloned := dst.Clone()
	cloned.Merge(src)
	if cloned != nil {
		t.Fatalf("nil.Clone().Merge(src) materialized a collector: %+v", cloned)
	}
}
