// Benchmarks that regenerate each table and figure of the paper's
// evaluation (one benchmark per experiment, plus ablations of the design
// choices DESIGN.md calls out). Custom metrics carry the experiment's
// headline numbers; cmd/experiments prints the full rows.
//
//	go test -bench=. -benchmem
package shelfsim

import (
	"context"
	"runtime"
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/harness"
	"shelfsim/internal/metrics"
)

// benchInsts keeps one benchmark iteration around a second.
const (
	benchInsts = 2000
	benchMixes = 4
)

func BenchmarkFig1_InSequenceFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness.New(benchInsts, benchMixes)
		rows, err := h.Fig1([]int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].InSeqFrac, "inseq1T_%")
		b.ReportMetric(100*rows[1].InSeqFrac, "inseq4T_%")
	}
}

func BenchmarkFig2_SeriesLengthCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness.New(benchInsts, benchMixes)
		res, err := h.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanInSeqLen, "inseq_len")
		b.ReportMetric(res.MeanReorderedLen, "reord_len")
	}
}

func BenchmarkFig10_STP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness.New(benchInsts, benchMixes)
		rows, err := h.Fig10(4)
		if err != nil {
			b.Fatal(err)
		}
		var opt, dbl []float64
		for _, r := range rows {
			opt = append(opt, 1+r.Improvement(r.ShelfOpt))
			dbl = append(dbl, 1+r.Improvement(r.Base128))
		}
		gmOpt, _ := metrics.GeoMean(opt)
		gmDbl, _ := metrics.GeoMean(dbl)
		b.ReportMetric(100*(gmOpt-1), "shelfSTP_%")
		b.ReportMetric(100*(gmDbl-1), "b128STP_%")
	}
}

func BenchmarkFig11_PerThreadInSeq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness.New(benchInsts, benchMixes)
		rows, err := h.Fig11(4, []int{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		var all []float64
		for _, r := range rows {
			all = append(all, r.Fractions...)
		}
		b.ReportMetric(100*metrics.Mean(all), "inseq_%")
	}
}

func BenchmarkFig12_Steering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness.New(benchInsts, benchMixes)
		rows, err := h.Fig12(4, true)
		if err != nil {
			b.Fatal(err)
		}
		var prac, orac []float64
		for _, r := range rows {
			prac = append(prac, r.Practical/r.Base64)
			orac = append(orac, r.Oracle/r.Base64)
		}
		gp, _ := metrics.GeoMean(prac)
		gor, _ := metrics.GeoMean(orac)
		b.ReportMetric(100*(gp-1), "practical_%")
		b.ReportMetric(100*(gor-1), "oracle_%")
	}
}

func BenchmarkFig13_EDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness.New(benchInsts, benchMixes)
		rows, err := h.Fig13(4)
		if err != nil {
			b.Fatal(err)
		}
		var opt []float64
		for _, r := range rows {
			opt = append(opt, r.Base64/r.ShelfOpt)
		}
		gm, _ := metrics.GeoMean(opt)
		b.ReportMetric(100*(gm-1), "shelfEDP_%")
	}
}

func BenchmarkFig14_FewerThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := harness.New(benchInsts, benchMixes)
		rows, err := h.Fig14([]int{1, 2}, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].STPImprovement, "stp1T_%")
		b.ReportMetric(100*rows[1].STPImprovement, "stp2T_%")
	}
}

func BenchmarkTable2_Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sn, _, bn, _ := harness.Table2(4)
		b.ReportMetric(100*sn, "shelfArea_%")
		b.ReportMetric(100*bn, "b128Area_%")
	}
}

// benchConfigSTP runs one configuration over the bench mixes and reports
// geomean STP improvement over base64.
func benchConfigSTP(b *testing.B, mutate func(*config.Config)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		h := harness.New(benchInsts, benchMixes)
		base := config.Base64(4)
		cfg := config.Shelf64(4, true)
		mutate(&cfg)
		var ratios []float64
		for _, mix := range h.Mixes(4) {
			rb, err := h.Run(base, mix)
			if err != nil {
				b.Fatal(err)
			}
			rc, err := h.Run(cfg, mix)
			if err != nil {
				b.Fatal(err)
			}
			sb, err := h.STP(mix, rb)
			if err != nil {
				b.Fatal(err)
			}
			sc, err := h.STP(mix, rc)
			if err != nil {
				b.Fatal(err)
			}
			ratios = append(ratios, sc/sb)
		}
		gm, err := metrics.GeoMean(ratios)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(gm-1), "stp_%")
	}
}

// Ablations of the design choices DESIGN.md calls out.

func BenchmarkAblation_SingleSSR(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		c.SingleSSR = true
		c.Name = "shelf64-singlessr"
	})
}

func BenchmarkAblation_ShelfIndexSpace(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		c.ShelfReleaseAtWriteback = true
		c.Name = "shelf64-releasewb"
	})
}

func BenchmarkAblation_RCT3bit(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		c.RCTBits = 3
		c.Name = "shelf64-rct3"
	})
}

func BenchmarkAblation_RCT8bit(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		c.RCTBits = 8
		c.Name = "shelf64-rct8"
	})
}

func BenchmarkAblation_PLT0(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		c.PLTLoads = 0
		c.Name = "shelf64-plt0"
	})
}

func BenchmarkAblation_PLT8(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		c.PLTLoads = 8
		c.Name = "shelf64-plt8"
	})
}

func BenchmarkAblation_ShelfSize16(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		c.Shelf = 16
		c.Name = "shelf16"
	})
}

func BenchmarkAblation_ShelfSize128(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		c.Shelf = 128
		c.Name = "shelf128"
	})
}

// throughputRequest is the throughput benchmarks' request: cfg over one
// kernel per thread, a 5000-instruction window after the default warmup.
func throughputRequest(cfg Config, kernels []string) Request {
	return Request{Config: &cfg, Kernels: kernels, Insts: 5000}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (retired
// instructions per wall-clock second drive the reported metric).
func BenchmarkSimulatorThroughput(b *testing.B) {
	kernels := []string{"stencil", "gups", "branchy", "matblock"}
	var retired int64
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), throughputRequest(Shelf64(4, true), kernels))
		if err != nil {
			b.Fatal(err)
		}
		retired += res.Stats.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSimulatorThroughputBase is BenchmarkSimulatorThroughput on the
// pure OOO baseline configuration — no shelf, no steering — so the perf
// gate tracks the scheduler and front-end hot path in isolation from the
// shelf machinery (scripts/ci.sh compares both into BENCH_core.json).
func BenchmarkSimulatorThroughputBase(b *testing.B) {
	kernels := []string{"stencil", "gups", "branchy", "matblock"}
	var retired int64
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), throughputRequest(Base64(4), kernels))
		if err != nil {
			b.Fatal(err)
		}
		retired += res.Stats.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSimulatorThroughputTelemetry is BenchmarkSimulatorThroughput
// with the per-core observability collector enabled; the pair bounds the
// telemetry overhead (scripts/ci.sh compares them into BENCH_obs.json).
func BenchmarkSimulatorThroughputTelemetry(b *testing.B) {
	kernels := []string{"stencil", "gups", "branchy", "matblock"}
	cfg := Shelf64(4, true)
	cfg.Telemetry = true
	var retired int64
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), throughputRequest(cfg, kernels))
		if err != nil {
			b.Fatal(err)
		}
		if res.Obs == nil || res.Obs.Cycles == 0 {
			b.Fatal("telemetry enabled but nothing collected")
		}
		retired += res.Stats.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "insts/s")
}

// chipBenchConfig is the 4-core x 4-thread shelf64 chip the throughput
// gate measures: 16 software threads, ICOUNT allocation, shared-L2 model.
func chipBenchConfig(cores int, lockstep bool) Config {
	cfg := Shelf64(4, true)
	cfg.Name = "chip-bench"
	cfg.NumCores = cores
	cfg.AllocPolicy = config.AllocICount
	cfg.ChipLockstep = lockstep
	cfg.ChipEpoch = 4096
	cfg.MigrationCost = 200
	cfg.L2SharePenalty = 2
	return cfg
}

// chipBenchKernels tiles the single-core benchmark's kernel list once per
// core. Thread t starts on core t % cores, so each core starts with four
// copies of one kernel (stencil, gups, branchy or matblock), not the
// single-core mix: per-core work differs from BenchmarkSimulatorThroughput's.
func chipBenchKernels(cores int) []string {
	base := []string{"stencil", "gups", "branchy", "matblock"}
	names := make([]string, 0, 4*cores)
	for i := 0; i < cores; i++ {
		names = append(names, base...)
	}
	return names
}

// pinChipBench is the chip benchmarks' Result fingerprint. Both step modes
// must produce it, so the scaling gate divides like work by like work.
const pinChipBench = "eb817d2a4629157b"

// benchChip runs the 4-core chip benchmark request in the given step mode
// and reports simulated insts/s and the per-core CPI (core-cycles summed
// over the cores per retired instruction); it fails on any fingerprint but
// pinChipBench.
func benchChip(b *testing.B, lockstep bool) {
	req := throughputRequest(chipBenchConfig(4, lockstep), chipBenchKernels(4))
	var retired, coreCycles int64
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if fp := res.Fingerprint(); fp != pinChipBench {
			b.Fatalf("chip fingerprint %s, pinned %s", fp, pinChipBench)
		}
		retired += res.Stats.Retired
		coreCycles += res.Stats.Cycles
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "insts/s")
	b.ReportMetric(float64(coreCycles)/float64(retired), "core-cycles/inst")
}

// BenchmarkChipThroughput measures chip-level simulation speed on the
// parallel step path: a 4-core chip, one goroutine per core. Divided by
// BenchmarkChipThroughputLockstep's insts/s and the available CPUs, it
// yields the parallel scaling efficiency scripts/ci.sh gates on.
func BenchmarkChipThroughput(b *testing.B) { benchChip(b, false) }

// BenchmarkChipThroughputLockstep is BenchmarkChipThroughput on the
// sequential step path: the same simulated work, so the pair isolates the
// goroutine-per-core speedup.
func BenchmarkChipThroughputLockstep(b *testing.B) { benchChip(b, true) }

// TestChipParallelSpeedup asserts the chip's parallel step path simulates
// at >= 2.8x the lockstep path's insts/s: scripts/ci.sh's 0.7 scaling
// floor on 4 CPUs. Both rates come from benchChip, so the two runs do
// identical work (each fails on any fingerprint but pinChipBench), and the
// best of three damps scheduler noise as the CI gate does. It skips below
// 4 CPUs, where the CI gate's CPU-normalized efficiency applies instead.
func TestChipParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is not a -short test")
	}
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		t.Skipf("need >= 4 CPUs to demonstrate 4-core scaling, have %d", procs)
	}
	best := func(lockstep bool) float64 {
		var rate float64
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(func(b *testing.B) { benchChip(b, lockstep) })
			if r.N == 0 {
				t.Fatalf("chip benchmark (lockstep=%t) failed: fingerprint is not %s", lockstep, pinChipBench)
			}
			rate = max(rate, r.Extra["insts/s"])
		}
		return rate
	}
	parallel, lockstep := best(false), best(true)
	if speedup := parallel / lockstep; speedup < 2.8 {
		t.Errorf("parallel chip %.0f insts/s is %.2fx lockstep %.0f insts/s; want >= 2.8x",
			parallel, speedup, lockstep)
	}
}

// BenchmarkCoarseGrainSwitching contrasts the paper's per-instruction
// steering with MorphCore-style whole-core switching (§VI): the coarse
// design cannot interleave in-sequence and reordered instructions.
func BenchmarkCoarseGrainSwitching(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		*c = config.Coarse64(4, 1000)
	})
}

// BenchmarkAblation_NextLinePrefetch adds a next-line L1D prefetcher to
// the shelf design (the paper's baseline has none); memory-streaming
// kernels shift from miss-bound toward window-bound behaviour.
func BenchmarkAblation_NextLinePrefetch(b *testing.B) {
	benchConfigSTP(b, func(c *config.Config) {
		c.Mem.PrefetchNextLines = 1
		c.Name = "shelf64-prefetch"
	})
}
