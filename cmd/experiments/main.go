// Command experiments regenerates every table and figure of the paper's
// evaluation (Figures 1, 2, 10-14; Tables I, II) on the simulated core, and
// sweeps one design parameter for design-space curves.
//
//	experiments -exp all -insts 8000 -mixes 28
//	experiments -exp fig10 -insts 20000
//	experiments -exp sweep -param shelf -values 0,16,32,64,128 -mixes 8 -insts 4000
//
// Each experiment prints the same rows/series the paper reports; absolute
// numbers differ (synthetic workloads on a from-scratch simulator) but the
// shapes — who wins, by roughly what factor — are the reproduction target.
// The sweep prints CSV, one row per parameter value.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"shelfsim/internal/config"
	"shelfsim/internal/harness"
	"shelfsim/internal/metrics"
	"shelfsim/internal/obs"
	"shelfsim/internal/runner"
)

// experiments are the tables and figures -exp all prints, in order.
var experiments = []struct {
	name string
	run  func(*harness.Harness, int) error
}{
	{"table1", table1},
	{"fig1", fig1},
	{"fig2", fig2},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig12", fig12},
	{"fig13", fig13},
	{"table2", table2},
	{"fig14", fig14},
}

func main() {
	names := make([]string, 0, len(experiments)+2)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "all", "sweep")
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(names, ","))
		insts    = flag.Int64("insts", 8000, "measured instructions per thread")
		mixes    = flag.Int("mixes", 28, "number of balanced-random mixes (max 28)")
		thread   = flag.Int("threads", 4, "thread count for the main experiments and the sweep")
		workers  = flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
		check    = flag.Bool("check", false, "enable the per-cycle microarchitectural invariant checker")
		param    = flag.String("param", "shelf", "-exp sweep's parameter: shelf, rob, iq, rctbits, plt, interval")
		values   = flag.String("values", "", "-exp sweep's comma-separated parameter values (empty = the parameter's defaults)")
		faultCfg = flag.String("faultconfig", "", "inject an invariant violation into runs of this config name (test hook)")
		faultMix = flag.String("faultmix", "", "confine -faultconfig's fault to this mix name (empty = every mix)")
		faultCyc = flag.Int64("faultcycle", 1000, "cycle at which -faultconfig's fault fires")
		faultKnd = flag.String("faultkind", "window", "what -faultconfig corrupts: window, store-drop or wakeup-tag")
		obsOut   = flag.String("obs", "", "collect per-core telemetry and write the merged aggregate to this file (JSON, or CSV with a .csv extension)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Usage errors exit 2 before anything is simulated.
	if !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -exp %q (want one of %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	var sweepVals []int64
	var sweep []config.Config
	if *exp == "sweep" {
		var err error
		if sweepVals, sweep, err = sweepConfigs(*param, *values, *thread); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}

	stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	h := harness.New(*insts, *mixes)
	h.Runner.Workers = *workers
	h.CheckInvariants = *check
	h.Telemetry = *obsOut != ""
	h.FaultConfig = *faultCfg
	h.FaultMix = *faultMix
	h.FaultCycle = *faultCyc
	if *faultCfg != "" {
		kind, err := config.FaultKindByName(*faultKnd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		h.FaultKind = kind
	}

	// The four main configurations dominate the figures, and a sweep runs
	// only its own points against base64; validate them up front so a bad
	// -threads value fails with a typed field error instead of a
	// mid-experiment panic.
	configs := harness.MainConfigs(*thread)
	if *exp == "sweep" {
		configs = append(sweep, config.Base64(*thread))
	}
	for i := range configs {
		if err := configs[i].Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: config %s: %v\n", configs[i].Name, err)
			os.Exit(1)
		}
	}

	// Warm the run cache in parallel on the worker pool: supervised
	// failures here are recorded rather than fatal.
	h.Prewarm(context.Background(), configs, h.Mixes(*thread))

	// An experiment error does not abort the program: the remaining
	// experiments still run and the failure manifest is emitted at the end.
	hardErrors := 0
	if *exp == "sweep" {
		fmt.Println("param,value,geomean_stp,geomean_stp_improvement,geomean_ipc,shelved_frac")
		for i, cfg := range sweep {
			row, err := h.Sweep(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: sweep %s=%d: %v\n", *param, sweepVals[i], err)
				hardErrors++
				continue
			}
			fmt.Printf("%s,%d,%.4f,%.4f,%.4f,%.4f\n", *param, sweepVals[i], row.STP, row.STPImprovement, row.IPC, row.ShelvedFrac)
		}
	}
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.run(h, *thread); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			hardErrors++
		}
		fmt.Println()
	}

	if failures := h.Failures(); len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d supervised run(s) failed; manifest:\n", len(failures))
		m := runner.NewManifest(h.Runs()+len(failures), failures)
		if err := m.WriteJSON(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing manifest: %v\n", err)
		}
	}
	if *obsOut != "" {
		if err := obs.WriteFile(*obsOut, h.MergedTelemetry()); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing telemetry: %v\n", err)
			hardErrors++
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		hardErrors++
	}
	if hardErrors > 0 {
		os.Exit(1)
	}
}

// sweepDefaults are the values -exp sweep runs when -values is empty; its
// keys are the parameters a sweep can vary.
var sweepDefaults = map[string][]int64{
	"shelf":    {0, 16, 32, 64, 128},
	"rob":      {32, 64, 96, 128},
	"iq":       {16, 32, 48, 64},
	"rctbits":  {3, 4, 5, 6, 8},
	"plt":      {0, 2, 4, 8},
	"interval": {100, 1000, 10000},
}

// sweepConfigs builds and validates one configuration per value of a
// -exp sweep: the optimistic shelf with param set to the value (the
// coarse-switching core for interval).
func sweepConfigs(param, values string, threads int) ([]int64, []config.Config, error) {
	vals, ok := sweepDefaults[param]
	if !ok {
		return nil, nil, fmt.Errorf("unknown -param %q (want shelf, rob, iq, rctbits, plt or interval)", param)
	}
	if values != "" {
		vals = nil
		for _, p := range strings.Split(values, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad -values entry %q: %w", p, err)
			}
			vals = append(vals, v)
		}
	}
	cfgs := make([]config.Config, len(vals))
	for i, v := range vals {
		cfg := config.Shelf64(threads, true)
		switch param {
		case "shelf":
			cfg.Shelf = int(v)
			if v == 0 {
				cfg.Steer = config.SteerAllIQ
			}
		case "rob":
			cfg.ROB = int(v)
			if cfg.PRF < cfg.ROB {
				cfg.PRF = cfg.ROB + 64
			}
		case "iq":
			cfg.IQ = int(v)
		case "rctbits":
			cfg.RCTBits = uint(v)
		case "plt":
			cfg.PLTLoads = int(v)
		case "interval":
			cfg = config.Coarse64(threads, v)
		}
		cfg.Name = fmt.Sprintf("%s-%d", param, v)
		if err := cfg.Validate(); err != nil {
			return nil, nil, fmt.Errorf("%s=%d: %w", param, v, err)
		}
		cfgs[i] = cfg
	}
	return vals, cfgs, nil
}

func table1(_ *harness.Harness, threads int) error {
	cfg := config.Shelf64(threads, true)
	fmt.Printf("Core            %d-thread SMT OOO @ 2.0 GHz\n", cfg.Threads)
	fmt.Printf("Width           %d-wide OOO with %d-wide fetch\n", cfg.Width, cfg.FetchWidth)
	fmt.Printf("Front end       %d cycles fetch-to-dispatch (ICOUNT)\n", cfg.FetchToDispatch)
	fmt.Printf("ROB             %d (or %d)\n", config.Base64(threads).ROB, config.Base128(threads).ROB)
	fmt.Printf("IQ, LQ, SQ      %d (or %d)\n", config.Base64(threads).IQ, config.Base128(threads).IQ)
	fmt.Printf("Shelf           %d\n", cfg.Shelf)
	fmt.Printf("Steering        %d-bit RCT entries, %d-load PLT\n", cfg.RCTBits, cfg.PLTLoads)
	fmt.Printf("L1I             %dKB, %d-way, %d-cycle\n", cfg.Mem.L1I.SizeBytes>>10, cfg.Mem.L1I.Ways, cfg.Mem.L1I.LatencyCycles)
	fmt.Printf("L1D             %dKB, %d-way, %d-cycle\n", cfg.Mem.L1D.SizeBytes>>10, cfg.Mem.L1D.Ways, cfg.Mem.L1D.LatencyCycles)
	fmt.Printf("L2              %dMB, %d-way, %d-cycle\n", cfg.Mem.L2.SizeBytes>>20, cfg.Mem.L2.Ways, cfg.Mem.L2.LatencyCycles)
	fmt.Printf("Memory          %d-cycle latency\n", cfg.Mem.MemLatencyCycles)
	return nil
}

func fig1(h *harness.Harness, _ int) error {
	rows, err := h.Fig1([]int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	fmt.Println("in-sequence fraction vs SMT thread count (128-entry window):")
	for _, r := range rows {
		fmt.Printf("  %d thread(s): %5.1f%%   (paper: 1T~22%%, 2T~35%%, 4T~52%%, 8T~65%%)\n",
			r.Threads, 100*r.InSeqFrac)
	}
	return nil
}

func fig2(h *harness.Harness, _ int) error {
	res, err := h.Fig2()
	if err != nil {
		return err
	}
	fmt.Println("weighted CDF of consecutive series lengths (single-thread, 128-entry window):")
	fmt.Printf("  mean series length: in-seq %.1f, reordered %.1f (paper: 5-20 per group)\n",
		res.MeanInSeqLen, res.MeanReorderedLen)
	print := func(name string, cdf []metrics.CDFPoint) {
		fmt.Printf("  %-10s", name)
		for _, limit := range []int64{1, 2, 4, 8, 16, 32, 64, 128} {
			frac := 0.0
			for _, p := range cdf {
				if p.Length <= limit {
					frac = p.CumFrac
				}
			}
			fmt.Printf("  <=%-3d %4.0f%%", limit, 100*frac)
		}
		fmt.Println()
	}
	print("in-seq", res.InSeq)
	print("reordered", res.Reordered)
	return nil
}

func fig10(h *harness.Harness, threads int) error {
	rows, err := h.Fig10(threads)
	if err != nil {
		return err
	}
	cons := make([]float64, len(rows))
	opt := make([]float64, len(rows))
	dbl := make([]float64, len(rows))
	for i, r := range rows {
		cons[i] = r.Improvement(r.ShelfCons)
		opt[i] = r.Improvement(r.ShelfOpt)
		dbl[i] = r.Improvement(r.Base128)
	}
	sOpt, err := harness.Summarize(opt)
	if err != nil {
		return err
	}
	fmt.Printf("STP improvement over base64 (%d mixes):\n", len(rows))
	fmt.Printf("%-28s %10s %10s %10s\n", "mix", "shelf-cons", "shelf-opt", "base128")
	for _, idx := range []int{sOpt.MinMix, sOpt.MedianMix, sOpt.MaxMix} {
		fmt.Printf("%-28s %9.1f%% %9.1f%% %9.1f%%\n",
			rows[idx].Mix.Name(), 100*cons[idx], 100*opt[idx], 100*dbl[idx])
	}
	sCons, err := harness.Summarize(cons)
	if err != nil {
		return err
	}
	sDbl, err := harness.Summarize(dbl)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %9.1f%% %9.1f%% %9.1f%%\n", "geomean", 100*sCons.GeoMean, 100*sOpt.GeoMean, 100*sDbl.GeoMean)
	fmt.Printf("(paper: cons 8.6%% avg/15.1%% max, opt 11.5%% avg/19.2%% max; base128 is the upper bound)\n")
	return nil
}

func fig11(h *harness.Harness, threads int) error {
	rows10, err := h.Fig10(threads)
	if err != nil {
		return err
	}
	opt := make([]float64, len(rows10))
	for i, r := range rows10 {
		opt[i] = r.Improvement(r.ShelfOpt)
	}
	s, err := harness.Summarize(opt)
	if err != nil {
		return err
	}
	rows, err := h.Fig11(threads, []int{s.MinMix, s.MedianMix, s.MaxMix})
	if err != nil {
		return err
	}
	labels := []string{"min", "median", "max"}
	fmt.Println("per-thread in-sequence fraction (baseline OOO) for selected mixes:")
	var all []float64
	for i, r := range rows {
		fmt.Printf("  %-7s %-28s", labels[i], r.Mix.Name())
		for j, f := range r.Fractions {
			fmt.Printf("  %s=%4.1f%%", r.Workloads[j], 100*f)
			all = append(all, f)
		}
		fmt.Println()
	}
	fmt.Printf("  mean over selected mixes: %.1f%% (paper: ~50%%)\n", 100*metrics.Mean(all))
	return nil
}

func fig12(h *harness.Harness, threads int) error {
	rows, err := h.Fig12(threads, true)
	if err != nil {
		return err
	}
	var prac, orac []float64
	for _, r := range rows {
		prac = append(prac, r.Practical/r.Base64-1)
		orac = append(orac, r.Oracle/r.Base64-1)
	}
	sp, err := harness.Summarize(prac)
	if err != nil {
		return err
	}
	so, err := harness.Summarize(orac)
	if err != nil {
		return err
	}
	fmt.Printf("steering: STP improvement over base64 (%d mixes)\n", len(rows))
	fmt.Printf("  practical: geomean %5.1f%%  [min %5.1f%%, max %5.1f%%]\n", 100*sp.GeoMean, 100*sp.Min, 100*sp.Max)
	fmt.Printf("  oracle:    geomean %5.1f%%  [min %5.1f%%, max %5.1f%%]\n", 100*so.GeoMean, 100*so.Min, 100*so.Max)
	fmt.Println("  (paper: practical captures most of oracle's improvement)")
	return nil
}

func fig13(h *harness.Harness, threads int) error {
	rows, err := h.Fig13(threads)
	if err != nil {
		return err
	}
	var cons, opt, dbl []float64
	for _, r := range rows {
		// EDP improvement: reduction relative to base64.
		cons = append(cons, r.Base64/r.ShelfCons-1)
		opt = append(opt, r.Base64/r.ShelfOpt-1)
		dbl = append(dbl, r.Base64/r.Base128-1)
	}
	sc, err := harness.Summarize(cons)
	if err != nil {
		return err
	}
	so, err := harness.Summarize(opt)
	if err != nil {
		return err
	}
	sd, err := harness.Summarize(dbl)
	if err != nil {
		return err
	}
	fmt.Printf("EDP improvement over base64 (%d mixes):\n", len(rows))
	fmt.Printf("  shelf-cons: geomean %5.1f%%  max %5.1f%%\n", 100*sc.GeoMean, 100*sc.Max)
	fmt.Printf("  shelf-opt:  geomean %5.1f%%  max %5.1f%%\n", 100*so.GeoMean, 100*so.Max)
	fmt.Printf("  base128:    geomean %5.1f%%\n", 100*sd.GeoMean)
	fmt.Println("  (paper: cons 8.6%, opt 10.9% avg / 17.5% max; base128 4.9%)")
	return nil
}

func table2(_ *harness.Harness, threads int) error {
	sn, sw, bn, bw := harness.Table2(threads)
	fmt.Println("area increase over base64:")
	fmt.Printf("  %-22s %10s %10s\n", "", "base+shelf", "base128")
	fmt.Printf("  %-22s %9.1f%% %9.1f%%   (paper: 3.1%% / 9.7%%)\n", "excluding L1", 100*sn, 100*bn)
	fmt.Printf("  %-22s %9.1f%% %9.1f%%   (paper: 2.1%% / 6.6%%)\n", "including L1", 100*sw, 100*bw)
	return nil
}

func fig14(h *harness.Harness, _ int) error {
	rows, err := h.Fig14([]int{1, 2}, true)
	if err != nil {
		return err
	}
	fmt.Println("shelf with fewer threads (shelf64-opt vs base64):")
	for _, r := range rows {
		fmt.Printf("  %d thread(s): STP %+5.1f%%  EDP %+5.1f%%\n",
			r.Threads, 100*r.STPImprovement, 100*r.EDPImprovement)
	}
	fmt.Println("  (paper: ~0% at 1 thread — no loss — and a modest gain at 2)")
	return nil
}
