package harness

import (
	"fmt"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/energy"
	"shelfsim/internal/metrics"
	"shelfsim/internal/workload"
)

// Fig1Row is one point of Figure 1: the mean fraction of in-sequence
// instructions in a 128-entry-window OOO core at a given SMT thread count.
type Fig1Row struct {
	Threads     int
	InSeqFrac   float64
	ThreadFracs []float64 // per-thread samples behind the mean
}

// Fig1 reproduces Figure 1: in-sequence fraction vs thread count. Mixes
// whose supervised run fails are recorded and skipped; the figure errors
// only when every mix of a thread count fails.
func (h *Harness) Fig1(threadCounts []int) ([]Fig1Row, error) {
	rows := make([]Fig1Row, 0, len(threadCounts))
	for _, th := range threadCounts {
		cfg := config.Base128(th)
		row := Fig1Row{Threads: th}
		for _, mix := range h.Mixes(th) {
			res, err := h.Run(cfg, mix)
			if Skippable(err) {
				continue
			}
			if err != nil {
				return nil, err
			}
			for _, t := range res.Threads {
				row.ThreadFracs = append(row.ThreadFracs, t.InSeqFraction)
			}
		}
		if len(row.ThreadFracs) == 0 {
			return nil, fmt.Errorf("harness: Fig1 with %d threads: every mix failed", th)
		}
		row.InSeqFrac = metrics.Mean(row.ThreadFracs)
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig2Result carries the weighted CDFs of consecutive in-sequence and
// reordered series lengths for single-threaded execution (geometric-mean
// behaviour approximated by pooling all benchmarks).
type Fig2Result struct {
	InSeq     []metrics.CDFPoint
	Reordered []metrics.CDFPoint
	// MeanInSeqLen / MeanReorderedLen are instruction-weighted means.
	MeanInSeqLen     float64
	MeanReorderedLen float64
}

// Fig2 reproduces Figure 2 on the 128-entry single-thread window.
func (h *Harness) Fig2() (*Fig2Result, error) {
	pooled := metrics.NewSeriesTracker()
	merged := 0
	for _, k := range workload.Kernels() {
		cfg := config.Base128(1)
		res, err := h.Run(cfg, workload.Mix{ID: 0, Kernels: []*workload.Kernel{k}})
		if Skippable(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		pooled.Merge(res.Threads[0].Series)
		merged++
	}
	if merged == 0 {
		return nil, fmt.Errorf("harness: Fig2: every kernel run failed")
	}
	return &Fig2Result{
		InSeq:            pooled.InSeqCDF(),
		Reordered:        pooled.ReorderedCDF(),
		MeanInSeqLen:     pooled.MeanSeriesLength(true),
		MeanReorderedLen: pooled.MeanSeriesLength(false),
	}, nil
}

// MixSTP is one mix's STP under the four evaluated configurations.
type MixSTP struct {
	Mix       workload.Mix
	Base64    float64
	ShelfCons float64
	ShelfOpt  float64
	Base128   float64
}

// Improvement returns stp/base64 - 1.
func (m *MixSTP) Improvement(stp float64) float64 { return stp/m.Base64 - 1 }

// MainConfigs are the four evaluated designs in the figures' column
// order: the baseline, the conservative and optimistic shelf, and the
// doubled core.
func MainConfigs(threads int) []config.Config {
	return []config.Config{
		config.Base64(threads),
		config.Shelf64(threads, false),
		config.Shelf64(threads, true),
		config.Base128(threads),
	}
}

// mixRuns is one surviving mix of an STP loop: each configuration's
// result and STP, in the order the configurations were given.
type mixRuns struct {
	mix workload.Mix
	res []*core.Result
	stp []float64
}

// edp is configs[i]'s energy-delay product on this mix.
func (r mixRuns) edp(configs []config.Config, i int) float64 {
	return EDPFrom(Power(&configs[i], r.res[i]), r.stp[i])
}

// stpRuns is the evaluation loop behind Figs. 10, 12, 13 and 14 and the
// parameter sweep: for each mix it runs every configuration in order and
// normalises each run to STP. A mix is skipped at its first supervised
// failure (Run records it); the loop errors only when every mix fails.
func (h *Harness) stpRuns(fig string, configs []config.Config, threads int) ([]mixRuns, error) {
	out := make([]mixRuns, 0, h.MixCount)
mixes:
	for _, mix := range h.Mixes(threads) {
		r := mixRuns{mix: mix, res: make([]*core.Result, len(configs)), stp: make([]float64, len(configs))}
		for i, cfg := range configs {
			res, err := h.Run(cfg, mix)
			if err == nil {
				r.stp[i], err = h.STP(mix, res)
			}
			if Skippable(err) {
				continue mixes
			}
			if err != nil {
				return nil, err
			}
			r.res[i] = res
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: %s with %d threads: every mix failed", fig, threads)
	}
	return out, nil
}

// Fig10 reproduces Figure 10: STP of the shelf designs and the doubled
// core over the 4-thread baseline, for every mix.
func (h *Harness) Fig10(threads int) ([]MixSTP, error) {
	runs, err := h.stpRuns("Fig10", MainConfigs(threads), threads)
	if err != nil {
		return nil, err
	}
	out := make([]MixSTP, len(runs))
	for i, r := range runs {
		out[i] = MixSTP{Mix: r.mix, Base64: r.stp[0], ShelfCons: r.stp[1], ShelfOpt: r.stp[2], Base128: r.stp[3]}
	}
	return out, nil
}

// Summary condenses per-mix improvements into the paper's reporting
// format: lowest, median, highest mix and geometric mean.
type Summary struct {
	MinMix, MedianMix, MaxMix int // indices into the row slice
	Min, Median, Max, GeoMean float64
}

// Summarize computes a Summary over improvement ratios (value/base - 1).
func Summarize(improvements []float64) (Summary, error) {
	ratios := make([]float64, len(improvements))
	for i, v := range improvements {
		ratios[i] = 1 + v
	}
	gm, err := metrics.GeoMean(ratios)
	if err != nil {
		return Summary{}, err
	}
	mn, md, mx, err := metrics.MinMedianMax(improvements)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		MinMix: mn, MedianMix: md, MaxMix: mx,
		Min: improvements[mn], Median: improvements[md], Max: improvements[mx],
		GeoMean: gm - 1,
	}, nil
}

// Fig11Row is one thread's in-sequence fraction within a mix (measured on
// the baseline OOO core, as the window the shelf would exploit).
type Fig11Row struct {
	Mix       workload.Mix
	Fractions []float64 // per thread
	Workloads []string
}

// Fig11 reports per-thread in-sequence fractions for the selected mixes.
func (h *Harness) Fig11(threads int, mixIdx []int) ([]Fig11Row, error) {
	cfg := config.Base64(threads)
	mixes := h.Mixes(threads)
	out := make([]Fig11Row, 0, len(mixIdx))
	for _, idx := range mixIdx {
		mix := mixes[idx]
		res, err := h.Run(cfg, mix)
		if Skippable(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		row := Fig11Row{Mix: mix}
		for i, t := range res.Threads {
			row.Fractions = append(row.Fractions, t.InSeqFraction)
			row.Workloads = append(row.Workloads, mix.Kernels[i].Name)
		}
		out = append(out, row)
	}
	return out, nil
}

// MixSteering is one mix's STP under oracle and practical steering.
type MixSteering struct {
	Mix       workload.Mix
	Base64    float64
	Practical float64
	Oracle    float64
}

// Fig12 reproduces Figure 12: oracle vs practical steering.
func (h *Harness) Fig12(threads int, optimistic bool) ([]MixSteering, error) {
	base := config.Base64(threads)
	practical := config.Shelf64(threads, optimistic)
	oracle := practical
	oracle.Steer = config.SteerOracle
	oracle.Name = practical.Name + "-oracle"

	runs, err := h.stpRuns("Fig12", []config.Config{base, practical, oracle}, threads)
	if err != nil {
		return nil, err
	}
	out := make([]MixSteering, len(runs))
	for i, r := range runs {
		out[i] = MixSteering{Mix: r.mix, Base64: r.stp[0], Practical: r.stp[1], Oracle: r.stp[2]}
	}
	return out, nil
}

// MixEDP is one mix's energy-delay product under the four configurations
// (EDP = average power x (1/STP)^2; see EDPFrom).
type MixEDP struct {
	Mix       workload.Mix
	Base64    float64
	ShelfCons float64
	ShelfOpt  float64
	Base128   float64
}

// Fig13 reproduces Figure 13: EDP of each design (reusing Fig10's runs via
// the cache).
func (h *Harness) Fig13(threads int) ([]MixEDP, error) {
	configs := MainConfigs(threads)
	runs, err := h.stpRuns("Fig13", configs, threads)
	if err != nil {
		return nil, err
	}
	out := make([]MixEDP, len(runs))
	for i, r := range runs {
		out[i] = MixEDP{
			Mix:       r.mix,
			Base64:    r.edp(configs, 0),
			ShelfCons: r.edp(configs, 1),
			ShelfOpt:  r.edp(configs, 2),
			Base128:   r.edp(configs, 3),
		}
	}
	return out, nil
}

// Fig14Row reports STP and EDP improvements of the shelf design for a
// given thread count (Figure 14: one and two threads).
type Fig14Row struct {
	Threads        int
	STPImprovement float64 // geomean of shelf/base64 - 1
	EDPImprovement float64 // geomean of 1 - shelfEDP/base64EDP
}

// Fig14 evaluates the shelf with fewer threads.
func (h *Harness) Fig14(threadCounts []int, optimistic bool) ([]Fig14Row, error) {
	out := make([]Fig14Row, 0, len(threadCounts))
	for _, th := range threadCounts {
		configs := []config.Config{config.Base64(th), config.Shelf64(th, optimistic)}
		runs, err := h.stpRuns("Fig14", configs, th)
		if err != nil {
			return nil, err
		}
		var stpRatios, edpRatios []float64
		for _, r := range runs {
			stpRatios = append(stpRatios, r.stp[1]/r.stp[0])
			edpRatios = append(edpRatios, r.edp(configs, 0)/r.edp(configs, 1))
		}
		gmSTP, err := metrics.GeoMean(stpRatios)
		if err != nil {
			return nil, err
		}
		gmEDP, err := metrics.GeoMean(edpRatios)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig14Row{
			Threads:        th,
			STPImprovement: gmSTP - 1,
			EDPImprovement: gmEDP - 1,
		})
	}
	return out, nil
}

// SweepRow is one point of a design-space sweep: the swept configuration
// against base64 at the same thread count, over the mixes that survived.
type SweepRow struct {
	STP            float64 // geomean STP
	STPImprovement float64 // geomean of stp/base64 - 1
	IPC            float64 // geomean IPC
	ShelvedFrac    float64 // shelf issues over all issues, pooled over mixes
}

// Sweep evaluates one design point of a parameter sweep.
func (h *Harness) Sweep(cfg config.Config) (SweepRow, error) {
	runs, err := h.stpRuns("sweep of "+cfg.Name, []config.Config{cfg, config.Base64(cfg.Threads)}, cfg.Threads)
	if err != nil {
		return SweepRow{}, err
	}
	var stps, ratios, ipcs []float64
	var shelfIssues, issues int64
	for _, r := range runs {
		stps = append(stps, r.stp[0])
		ratios = append(ratios, r.stp[0]/r.stp[1])
		ipcs = append(ipcs, r.res[0].Stats.IPC())
		shelfIssues += r.res[0].Stats.ShelfIssues
		issues += r.res[0].Stats.Issues
	}
	var row SweepRow
	if row.STP, err = metrics.GeoMean(stps); err != nil {
		return SweepRow{}, err
	}
	if row.STPImprovement, err = metrics.GeoMean(ratios); err != nil {
		return SweepRow{}, err
	}
	row.STPImprovement--
	if row.IPC, err = metrics.GeoMean(ipcs); err != nil {
		return SweepRow{}, err
	}
	if issues > 0 {
		row.ShelvedFrac = float64(shelfIssues) / float64(issues)
	}
	return row, nil
}

// Table2 reports area increases over the baseline (Table II).
func Table2(threads int) (shelfNoL1, shelfWithL1, b128NoL1, b128WithL1 float64) {
	base := config.Base64(threads)
	shelf := config.Shelf64(threads, true)
	b128 := config.Base128(threads)
	shelfNoL1, shelfWithL1 = energy.AreaIncrease(&base, &shelf)
	b128NoL1, b128WithL1 = energy.AreaIncrease(&base, &b128)
	return
}

// FormatMixName abbreviates a mix for axis labels.
func FormatMixName(m workload.Mix) string {
	return fmt.Sprintf("mix%02d", m.ID)
}
