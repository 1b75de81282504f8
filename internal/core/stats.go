package core

import (
	"fmt"
	"hash/fnv"

	"shelfsim/internal/isa"
	"shelfsim/internal/mem"
	"shelfsim/internal/metrics"
	"shelfsim/internal/obs"
)

// Stats holds the core-wide counters accumulated during simulation. Event
// counts feed the energy model; occupancy fields are cycle-integrals
// (divide by Cycles for averages).
type Stats struct {
	Cycles  int64
	Fetched int64
	Renames int64
	Issues  int64
	Retired int64

	ShelfIssues                int64
	Squashes                   int64
	SquashedWritebacksFiltered int64

	// Structure accesses (energy model inputs).
	IQWrites      int64
	IQReads       int64
	TagBroadcasts int64
	ROBWrites     int64
	ROBReads      int64
	ShelfWrites   int64
	ShelfReads    int64
	LSQWrites     int64
	LSQSearches   int64
	PRFReads      int64
	PRFWrites     int64
	RCTReads      int64
	RCTWrites     int64

	// Dispatch stall causes.
	IQDispatchStalls    int64
	ShelfDispatchStalls int64
	LSQDispatchStalls   int64
	PRFDispatchStalls   int64
	ExtTagStalls        int64
	ROBShelfWaits       int64

	LoadForwards int64
	LoadsByLevel [3]uint64

	FUOps [isa.NumOpClasses]int64

	// Occupancy cycle-integrals.
	IQOccupancy     int64
	ROBOccupancy    int64
	ShelfOccupancy  int64
	LQOccupancy     int64
	SQOccupancy     int64
	PRFOccupancy    int64
	ExtTagOccupancy int64
}

// Add folds another core's counters into s, field by field. The chip layer
// merges per-core (and per-segment, across thread migrations) Stats with it;
// after merging, Cycles is the sum of per-core cycles, so IPC() reads as the
// per-core average while aggregate chip IPC is Retired over the chip's
// makespan.
func (s *Stats) Add(o *Stats) {
	s.Cycles += o.Cycles
	s.Fetched += o.Fetched
	s.Renames += o.Renames
	s.Issues += o.Issues
	s.Retired += o.Retired
	s.ShelfIssues += o.ShelfIssues
	s.Squashes += o.Squashes
	s.SquashedWritebacksFiltered += o.SquashedWritebacksFiltered
	s.IQWrites += o.IQWrites
	s.IQReads += o.IQReads
	s.TagBroadcasts += o.TagBroadcasts
	s.ROBWrites += o.ROBWrites
	s.ROBReads += o.ROBReads
	s.ShelfWrites += o.ShelfWrites
	s.ShelfReads += o.ShelfReads
	s.LSQWrites += o.LSQWrites
	s.LSQSearches += o.LSQSearches
	s.PRFReads += o.PRFReads
	s.PRFWrites += o.PRFWrites
	s.RCTReads += o.RCTReads
	s.RCTWrites += o.RCTWrites
	s.IQDispatchStalls += o.IQDispatchStalls
	s.ShelfDispatchStalls += o.ShelfDispatchStalls
	s.LSQDispatchStalls += o.LSQDispatchStalls
	s.PRFDispatchStalls += o.PRFDispatchStalls
	s.ExtTagStalls += o.ExtTagStalls
	s.ROBShelfWaits += o.ROBShelfWaits
	s.LoadForwards += o.LoadForwards
	for i := range s.LoadsByLevel {
		s.LoadsByLevel[i] += o.LoadsByLevel[i]
	}
	for i := range s.FUOps {
		s.FUOps[i] += o.FUOps[i]
	}
	s.IQOccupancy += o.IQOccupancy
	s.ROBOccupancy += o.ROBOccupancy
	s.ShelfOccupancy += o.ShelfOccupancy
	s.LQOccupancy += o.LQOccupancy
	s.SQOccupancy += o.SQOccupancy
	s.PRFOccupancy += o.PRFOccupancy
	s.ExtTagOccupancy += o.ExtTagOccupancy
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// AvgOccupancy converts a cycle-integral into an average.
func (s *Stats) AvgOccupancy(integral int64) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(integral) / float64(s.Cycles)
}

// ThreadResult summarizes one thread's execution.
type ThreadResult struct {
	Workload      string
	Retired       int64
	Fetched       int64
	FinishCycle   int64
	CPI           float64
	InSeqFraction float64
	ShelfFraction float64
	SteerShelf    int64
	SteerIQ       int64
	Squashes      int64
	Mispredicts   int64
	MemViolations int64
	LoadForwards  int64
	StoreCoalesce int64
	Series        *metrics.SeriesTracker
}

// Result is the complete outcome of a simulation run.
type Result struct {
	Config  string
	Cycles  int64
	Stats   Stats
	Threads []ThreadResult
	L1I     mem.CacheStats
	L1D     mem.CacheStats
	L2      mem.CacheStats
	// Obs is a copy of the run's telemetry (nil unless Config.Telemetry).
	Obs *obs.Collector
}

// Fingerprint hashes every deterministic outcome of the run: cycle count,
// the full counter set, cache statistics and each thread's scalars. The
// Series and Obs pointers are observation views, not outcomes, and are
// excluded. Two runs of the same workload under timing-equivalent
// schedulers must produce identical fingerprints — the runner's scheduler
// differential asserts exactly that.
func (r *Result) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "cfg=%s cycles=%d stats=%+v", r.Config, r.Cycles, r.Stats)
	fmt.Fprintf(h, " l1i=%+v l1d=%+v l2=%+v", r.L1I, r.L1D, r.L2)
	for i := range r.Threads {
		t := &r.Threads[i]
		fmt.Fprintf(h, " t%d={%s %d %d %d %.17g %.17g %.17g %d %d %d %d %d %d %d}",
			i, t.Workload, t.Retired, t.Fetched, t.FinishCycle,
			t.CPI, t.InSeqFraction, t.ShelfFraction,
			t.SteerShelf, t.SteerIQ, t.Squashes, t.Mispredicts,
			t.MemViolations, t.LoadForwards, t.StoreCoalesce)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Stats returns a copy of the core-wide counters.
func (c *Core) Stats() Stats { return c.stats }

// Result assembles the full run summary.
func (c *Core) Result() Result {
	r := Result{
		Config:  c.cfg.Name,
		Cycles:  c.cycle,
		Stats:   c.stats,
		Threads: make([]ThreadResult, len(c.threads)),
		L1I:     c.hier.L1I().Stats,
		L1D:     c.hier.L1D().Stats,
		L2:      c.hier.L2().Stats,
		Obs:     c.tele.Clone(),
	}
	for i, t := range c.threads {
		tr := ThreadResult{
			Workload:      t.stream.Name(),
			Retired:       t.retired,
			Fetched:       t.fetched,
			FinishCycle:   t.finishCycle,
			SteerShelf:    t.steerShelf,
			SteerIQ:       t.steerIQ,
			Squashes:      t.squashes,
			Mispredicts:   t.mispredicts,
			MemViolations: t.memViolations,
			LoadForwards:  t.loadForwards,
			StoreCoalesce: t.storeCoalesce,
			Series:        t.series,
		}
		retired, inSeq, shelf := t.retired, t.retiredInSeq, t.retiredShelf
		cycles := tr.FinishCycle
		if t.targetReached {
			// Use the frozen measurement window (post-warmup).
			retired, inSeq, shelf = t.retireTarget, t.frozenInSeq, t.frozenShelf
			cycles = t.finishCycle - t.warmStartCycle
			tr.Retired = retired
		} else if !t.done {
			tr.FinishCycle = c.cycle
			cycles = c.cycle
		}
		if retired > 0 {
			tr.CPI = float64(cycles) / float64(retired)
			tr.InSeqFraction = float64(inSeq) / float64(retired)
			tr.ShelfFraction = float64(shelf) / float64(retired)
		}
		r.Threads[i] = tr
	}
	return r
}
