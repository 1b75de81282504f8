package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"shelfsim"
)

func TestTailRule(t *testing.T) {
	seq := func(lo, hi int) []float64 {
		var out []float64
		for v := lo; v <= hi; v++ {
			out = append(out, float64(v))
		}
		return out
	}
	cases := []struct {
		name   string
		xs     []float64
		want   float64
		beyond int
	}{
		{"distinct", seq(1, 100), 90, 10},
		// Ties at the cut are not beyond it, so the cut steps down past them.
		{"ties", append(append(seq(1, 88), 90, 90, 90), 100, 100, 100, 100, 100, 100, 100, 100, 100), 88, 12},
		{"too few", seq(1, 10), 10, 0},
		// On a large sample the percentile stops at maxTailPct.
		{"capped", seq(1, 2000), 1980, 20},
	}
	for _, c := range cases {
		got := tailOf(c.xs)
		if got.Value != c.want || got.Beyond != c.beyond || got.N != len(c.xs) {
			t.Errorf("%s: tailOf = %+v, want value %v with %d beyond", c.name, got, c.want, c.beyond)
		}
	}

	// On any sample, at least minTailBeyond samples exceed the tail and
	// fewer exceed any larger value.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Below 100*minTailBeyond/(100-maxTailPct) samples the cap never
		// binds.
		xs := make([]float64, minTailBeyond+1+rng.Intn(500))
		for i := range xs {
			xs[i] = float64(rng.Intn(50))
		}
		tl := tailOf(xs)
		above := func(v float64) (n int) {
			for _, x := range xs {
				if x > v {
					n++
				}
			}
			return n
		}
		if above(tl.Value) < minTailBeyond || above(tl.Value) != tl.Beyond {
			t.Fatalf("trial %d: %+v has %d samples beyond it", trial, tl, above(tl.Value))
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for _, v := range s {
			if v > tl.Value && above(v) >= minTailBeyond {
				t.Fatalf("trial %d: %v is above tail %v and still has %d beyond", trial, v, tl.Value, above(v))
			}
		}
	}
}

func mixNames(mixes []shelfsim.Mix) []string {
	out := make([]string, len(mixes))
	for i, m := range mixes {
		out[i] = m.Name()
	}
	return out
}

func TestScheduleDeterministic(t *testing.T) {
	progs, err := loadPrograms("..")
	if err != nil {
		t.Fatal(err)
	}
	schedules := func(seed int64) []byte {
		blob, err := json.Marshal([]any{
			coldSchedule(seed),
			newHotSchedule(hotUniverse(), hotSetSize, 2, seed),
			newHotSchedule(asmUniverse(progs), asmSetSize, 2, seed),
			mixNames(mixOrder(seed, 0, shelfsim.PaperMixes(figThreads)[:figMixes])),
			mixNames(mixOrder(seed, 1, shelfsim.PaperMixes(figThreads)[:figMixes])),
		})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(schedules(3), schedules(3)) {
		t.Error("the same seed gave different schedules")
	}
	if bytes.Equal(schedules(3), schedules(4)) {
		t.Error("different seeds gave the same schedules")
	}

	seen := map[string]bool{}
	for _, it := range coldSchedule(3) {
		if seen[it.Label] {
			t.Fatalf("cold schedule repeats %s, which would hit the store", it.Label)
		}
		seen[it.Label] = true
	}
}

// Every request any seed can send has an expected fingerprint, so a run
// never meets an output it cannot check.
func TestExpectedCoversUniverses(t *testing.T) {
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	progs, err := loadPrograms("..")
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, it := range append(hotUniverse(), asmUniverse(progs)...) {
		labels = append(labels, it.Label)
	}
	for _, g := range append(coldUniverse(), chipUniverse()...) {
		for _, it := range g {
			labels = append(labels, it.Label)
		}
	}
	for _, j := range figJobs() {
		labels = append(labels, j.label)
	}
	for _, l := range labels {
		if _, found := exp.Fingerprints[l]; !found {
			t.Errorf("expected.json has no fingerprint for %s", l)
		}
	}
	if len(exp.STP) != figMixes {
		t.Errorf("expected.json has %d Fig10 rows, want %d", len(exp.STP), figMixes)
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a: the union counts once
		{Name: "a.child", Start: 15, End: 25, Parent: 1},
		{Name: "c", Start: 90, End: 120, Parent: 0}, // only [90,100] lies inside op
		{Name: "other", Start: 0, End: 5, Parent: -1},
	}
	want := []int64{40, 20, 30, 10, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if table := selfTable(spans); table["op"] != 40e-6 || table["a"] != 20e-6 {
		t.Errorf("selfTable = %v, want op 40e-6 ms and a 20e-6 ms", table)
	}
}

func TestFixtureReproducible(t *testing.T) {
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	set := newHotSchedule(hotUniverse(), 3, 1, 5).Set
	build := func() map[string][]byte {
		dir := filepath.Join(t.TempDir(), "store")
		if err := buildFixture(dir, set, 8, exp); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}
	a, b := build(), build()
	if len(a) < 8 || len(a) != len(b) {
		t.Fatalf("fixtures hold %d and %d files, want the same count of at least 8", len(a), len(b))
	}
	for name, blob := range a {
		if !bytes.Equal(blob, b[name]) {
			t.Errorf("fixture file %s differs between builds", name)
		}
	}
}
