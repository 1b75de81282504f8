package core

import (
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/isa"
	"shelfsim/internal/workload"
)

// TestSwapIQRemovalMatchesOrdered proves the O(1) swap-with-last IQ
// removal is outcome-equivalent to the legacy ordered copy-shift: the
// issue queue is an unordered reservation pool (age order lives in gseq,
// not slot position), so the full Result fingerprints must match across
// every configuration. Run under the incremental scheduler, this also
// checks that ready-set and wakeup-list bookkeeping is insensitive to IQ
// slot shuffling.
func TestSwapIQRemovalMatchesOrdered(t *testing.T) {
	names := []string{"ptrchase", "ilpmax", "gups", "branchy"}
	for _, cfg := range allConfigs(4) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			swap, err := New(cfg, kernelStreams(t, names, 800))
			if err != nil {
				t.Fatal(err)
			}
			run(t, swap, 2_000_000)
			ordered, err := New(cfg, kernelStreams(t, names, 800))
			if err != nil {
				t.Fatal(err)
			}
			ordered.SetOrderedIQRemoval(true)
			run(t, ordered, 2_000_000)
			sr, or := swap.Result(), ordered.Result()
			if a, b := sr.Fingerprint(), or.Fingerprint(); a != b {
				t.Errorf("swap removal fingerprint %s != ordered %s", a, b)
			}
		})
	}
}

// TestClassifyEarlyExitMatchesWalk proves classifyAtIssue's O(1) test of
// condition (a) exact: with the cross-check on, every issue also scans the
// in-flight list, and any disagreement fails the run with a
// "classify-exit" InvariantError. Only the run-condition ablation lets a
// shelf op issue ahead of an unissued IQ elder, so it runs too, over a
// longer kernel set that reaches the boundary where the elder is the
// shelf op's immediate IQ predecessor.
func TestClassifyEarlyExitMatchesWalk(t *testing.T) {
	noRunCond := config.Shelf64(4, true)
	noRunCond.AblateNoRunCond = true
	noRunCond.Name = "shelf64-norun"
	type job struct {
		cfg   config.Config
		names []string
		n     int64
	}
	var jobs []job
	for _, cfg := range allConfigs(4) {
		jobs = append(jobs, job{cfg, []string{"ptrchase", "ilpmax", "gups", "branchy"}, 800})
	}
	jobs = append(jobs, job{noRunCond, []string{"ptrchase", "ilpmax", "gups", "branchy"}, 800},
		job{noRunCond, []string{"stencil", "fpdense", "loopcarry", "sortish"}, 3000})
	for _, j := range jobs {
		j := j
		t.Run(j.cfg.Name+"/"+j.names[0], func(t *testing.T) {
			c, err := New(j.cfg, kernelStreams(t, j.names, j.n))
			if err != nil {
				t.Fatal(err)
			}
			c.SetClassifyCrossCheck(true)
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatal(rec)
				}
			}()
			run(t, c, 2_000_000)
		})
	}
}

// benchCore builds a warmed-up core over unbounded kernel streams.
func benchCore(b *testing.B, cfg config.Config, names []string) *Core {
	b.Helper()
	streams := make([]isa.Stream, len(names))
	for i, name := range names {
		k, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = k.NewStream(uint64(i+1)<<32, uint64(i)+1, -1)
	}
	c, err := New(cfg, streams)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		c.Step()
	}
	return c
}

// BenchmarkIssueStage stresses wakeup–select: a pointer chase serializes
// one thread (deep wakeup chains, tiny ready set) while ilpmax floods the
// other with independent ops (wide ready set, selection pressure).
func BenchmarkIssueStage(b *testing.B) {
	c := benchCore(b, config.Shelf64(2, true), []string{"ptrchase", "ilpmax"})
	start := c.Stats().Issues
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
	b.ReportMetric(float64(c.Stats().Issues-start)/float64(b.N), "issues/cycle")
}

// BenchmarkFetchDispatch stresses the front end and the allocation-free
// fetch queue / rename path with branch-dense and straight-line streams.
func BenchmarkFetchDispatch(b *testing.B) {
	c := benchCore(b, config.Base64(2), []string{"branchy", "ilpmax"})
	start := c.Stats().Renames
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
	b.ReportMetric(float64(c.Stats().Renames-start)/float64(b.N), "dispatches/cycle")
}
