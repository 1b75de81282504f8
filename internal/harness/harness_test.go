package harness

import (
	"context"
	"reflect"
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/obs"
	"shelfsim/internal/runner"
	"shelfsim/internal/workload"
)

func tiny() *Harness { return New(400, 2) }

func TestRunAndCache(t *testing.T) {
	h := tiny()
	cfg := config.Base64(4)
	mix := h.Mixes(4)[0]
	r1, err := h.Run(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical runs must be served from the cache")
	}
	if r1.Cycles <= 0 || len(r1.Threads) != 4 {
		t.Errorf("bad result: %+v", r1)
	}
}

// TestMergedTelemetryCountsRunsOnce pins the cross-run accumulation fix:
// re-running a cached (config, mix) must not inflate the aggregate the way
// the old process-global counters did, and distinct runs add exactly once.
func TestMergedTelemetryCountsRunsOnce(t *testing.T) {
	h := tiny()
	h.Telemetry = true
	cfg := config.Shelf64(2, true)
	mix := h.Mixes(2)[0]
	if _, err := h.Run(cfg, mix); err != nil {
		t.Fatal(err)
	}
	first := h.MergedTelemetry()
	if first.Cycles == 0 {
		t.Fatal("telemetry-enabled run recorded nothing")
	}
	if _, err := h.Run(cfg, mix); err != nil {
		t.Fatal(err)
	}
	again := h.MergedTelemetry()
	if !reflect.DeepEqual(first, again) {
		t.Errorf("cache hit changed the aggregate:\n before %+v\n after  %+v", first, again)
	}
	if _, err := h.Run(cfg, h.Mixes(2)[1]); err != nil {
		t.Fatal(err)
	}
	grown := h.MergedTelemetry()
	if grown.Cycles <= first.Cycles {
		t.Errorf("second distinct run did not grow the aggregate: %d -> %d",
			first.Cycles, grown.Cycles)
	}
}

// TestTelemetryParallelMergeMatchesSerial prewarms the same
// telemetry-enabled sweep (two configs over shared mixes) on a 1-worker and
// a 4-worker pool and asserts the merged collectors are identical:
// per-core ownership plus a merge after the runs complete makes the
// aggregate independent of scheduling. Run under -race this is also the
// regression test for the package-global counters the collectors
// replaced, which raced exactly here.
func TestTelemetryParallelMergeMatchesSerial(t *testing.T) {
	merged := func(workers int) *obs.Collector {
		h := New(1000, 3)
		h.Warmup = 200
		h.Telemetry = true
		h.Runner = &runner.Runner{Workers: workers}
		configs := []config.Config{config.Shelf64(2, true), config.Base64(2)}
		if rep := h.Prewarm(context.Background(), configs, h.Mixes(2)); len(rep.Failures) != 0 {
			t.Fatalf("%d-worker sweep failed: %v", workers, rep.Failures[0])
		}
		return h.MergedTelemetry()
	}
	serial, parallel := merged(1), merged(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel merge differs from serial:\n serial   %+v\n parallel %+v", serial, parallel)
	}

	// Sanity: the runs actually recorded something.
	if serial.Cycles == 0 {
		t.Error("no occupancy samples recorded")
	}
	var steers int64
	for s := range serial.Steer {
		for _, n := range serial.Steer[s] {
			steers += n
		}
	}
	if steers == 0 {
		t.Error("no steer decisions recorded")
	}
}

func TestSingleCPI(t *testing.T) {
	h := tiny()
	k := workload.Kernels()[0]
	cpi, err := h.SingleCPI(k)
	if err != nil {
		t.Fatal(err)
	}
	if cpi <= 0 {
		t.Errorf("CPI = %g", cpi)
	}
	cpi2, err := h.SingleCPI(k)
	if err != nil || cpi2 != cpi {
		t.Error("single CPI must be memoized and stable")
	}
}

func TestSTPBounds(t *testing.T) {
	h := tiny()
	cfg := config.Base64(4)
	mix := h.Mixes(4)[0]
	res, err := h.Run(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	stp, err := h.STP(mix, res)
	if err != nil {
		t.Fatal(err)
	}
	// STP of an n-thread mix lies in (0, n].
	if stp <= 0 || stp > 4.0001 {
		t.Errorf("STP = %g out of (0,4]", stp)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{0.10, -0.05, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != -0.05 || s.Max != 0.10 || s.Median != 0.02 {
		t.Errorf("summary %+v", s)
	}
	if s.GeoMean <= s.Min || s.GeoMean >= s.Max {
		t.Errorf("geomean %g outside range", s.GeoMean)
	}
}

func TestEDPFrom(t *testing.T) {
	if EDPFrom(10, 2) != 2.5 {
		t.Errorf("EDPFrom = %g, want 2.5", EDPFrom(10, 2))
	}
	if EDPFrom(10, 0) != 0 {
		t.Error("zero STP must not divide by zero")
	}
}

func TestPower(t *testing.T) {
	h := tiny()
	cfg := config.Shelf64(4, true)
	mix := h.Mixes(4)[1]
	res, err := h.Run(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if p := Power(&cfg, res); p <= 0 {
		t.Errorf("power = %g", p)
	}
}

func TestFig1Shape(t *testing.T) {
	h := tiny()
	rows, err := h.Fig1([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.InSeqFrac <= 0 || r.InSeqFrac >= 1 {
			t.Errorf("threads=%d in-seq fraction %g not in (0,1)", r.Threads, r.InSeqFrac)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	h := tiny()
	res, err := h.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InSeq) == 0 || len(res.Reordered) == 0 {
		t.Fatal("empty CDFs")
	}
	if res.MeanInSeqLen <= 0 || res.MeanReorderedLen <= 0 {
		t.Error("non-positive mean series lengths")
	}
}

func TestFig10And13Shape(t *testing.T) {
	h := tiny()
	rows, err := h.Fig10(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		for _, v := range []float64{r.Base64, r.ShelfCons, r.ShelfOpt, r.Base128} {
			if v <= 0 || v > 4.0001 {
				t.Errorf("STP %g out of range in %s", v, r.Mix.Name())
			}
		}
	}
	erows, err := h.Fig13(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range erows {
		for _, v := range []float64{r.Base64, r.ShelfCons, r.ShelfOpt, r.Base128} {
			if v <= 0 {
				t.Errorf("EDP %g not positive", v)
			}
		}
	}
}

func TestFig11Shape(t *testing.T) {
	h := tiny()
	rows, err := h.Fig11(4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Fractions) != 4 || len(r.Workloads) != 4 {
			t.Errorf("row shape wrong: %+v", r)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	h := tiny()
	rows, err := h.Fig12(4, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Base64 <= 0 || r.Practical <= 0 || r.Oracle <= 0 {
			t.Errorf("bad steering STPs: %+v", r)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	// Steering needs a realistic training window; very short runs are
	// dominated by cold-start transients.
	h := New(3000, 2)
	rows, err := h.Fig14([]int{1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Threads != 1 {
		t.Fatalf("rows: %+v", rows)
	}
	// At one thread the shelf must not cost more than a few percent.
	if rows[0].STPImprovement < -0.10 {
		t.Errorf("single-thread shelf penalty too large: %g", rows[0].STPImprovement)
	}
}

func TestTable2(t *testing.T) {
	sn, sw, bn, bw := Table2(4)
	if sn <= 0 || sw <= 0 || bn <= 0 || bw <= 0 {
		t.Fatal("area increases must be positive")
	}
	if sn >= bn || sw >= bw {
		t.Error("shelf must cost far less area than doubling")
	}
}
