package core

import (
	"shelfsim/internal/fptext"
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
	// The text is the one referenceFingerprint (fingerprint_test.go)
	// writes with fmt; 4 KiB holds it for sixteen threads.
	var buf [4096]byte
	t := fptext.Text(buf[:0]).Str("cfg=", r.Config).Int(" cycles=", r.Cycles)
	t = r.Stats.appendText(t.Key(" stats="))
	t = appendCacheStats(t.Key(" l1i="), &r.L1I)
	t = appendCacheStats(t.Key(" l1d="), &r.L1D)
	t = appendCacheStats(t.Key(" l2="), &r.L2)
	for i := range r.Threads {
		th := &r.Threads[i]
		t = t.Int(" t", int64(i)).
			Str("={", th.Workload).
			Int(" ", th.Retired).
			Int(" ", th.Fetched).
			Int(" ", th.FinishCycle).
			Float(" ", th.CPI).
			Float(" ", th.InSeqFraction).
			Float(" ", th.ShelfFraction).
			Int(" ", th.SteerShelf).
			Int(" ", th.SteerIQ).
			Int(" ", th.Squashes).
			Int(" ", th.Mispredicts).
			Int(" ", th.MemViolations).
			Int(" ", th.LoadForwards).
			Int(" ", th.StoreCoalesce).
			Key("}")
	}
	return t.Sum()
}

// appendText appends s as %+v.
func (s *Stats) appendText(t fptext.Text) fptext.Text {
	return t.Int("{Cycles:", s.Cycles).
		Int(" Fetched:", s.Fetched).
		Int(" Renames:", s.Renames).
		Int(" Issues:", s.Issues).
		Int(" Retired:", s.Retired).
		Int(" ShelfIssues:", s.ShelfIssues).
		Int(" Squashes:", s.Squashes).
		Int(" SquashedWritebacksFiltered:", s.SquashedWritebacksFiltered).
		Int(" IQWrites:", s.IQWrites).
		Int(" IQReads:", s.IQReads).
		Int(" TagBroadcasts:", s.TagBroadcasts).
		Int(" ROBWrites:", s.ROBWrites).
		Int(" ROBReads:", s.ROBReads).
		Int(" ShelfWrites:", s.ShelfWrites).
		Int(" ShelfReads:", s.ShelfReads).
		Int(" LSQWrites:", s.LSQWrites).
		Int(" LSQSearches:", s.LSQSearches).
		Int(" PRFReads:", s.PRFReads).
		Int(" PRFWrites:", s.PRFWrites).
		Int(" RCTReads:", s.RCTReads).
		Int(" RCTWrites:", s.RCTWrites).
		Int(" IQDispatchStalls:", s.IQDispatchStalls).
		Int(" ShelfDispatchStalls:", s.ShelfDispatchStalls).
		Int(" LSQDispatchStalls:", s.LSQDispatchStalls).
		Int(" PRFDispatchStalls:", s.PRFDispatchStalls).
		Int(" ExtTagStalls:", s.ExtTagStalls).
		Int(" ROBShelfWaits:", s.ROBShelfWaits).
		Int(" LoadForwards:", s.LoadForwards).
		Uints(" LoadsByLevel:", s.LoadsByLevel[:]).
		Ints(" FUOps:", s.FUOps[:]).
		Int(" IQOccupancy:", s.IQOccupancy).
		Int(" ROBOccupancy:", s.ROBOccupancy).
		Int(" ShelfOccupancy:", s.ShelfOccupancy).
		Int(" LQOccupancy:", s.LQOccupancy).
		Int(" SQOccupancy:", s.SQOccupancy).
		Int(" PRFOccupancy:", s.PRFOccupancy).
		Int(" ExtTagOccupancy:", s.ExtTagOccupancy).
		Key("}")
}

// appendCacheStats appends cs as %+v.
func appendCacheStats(t fptext.Text, cs *mem.CacheStats) fptext.Text {
	return t.Uint("{Hits:", cs.Hits).
		Uint(" Misses:", cs.Misses).
		Uint(" MSHRMerges:", cs.MSHRMerges).
		Uint(" MSHRStalls:", cs.MSHRStalls).
		Uint(" Evictions:", cs.Evictions).
		Uint(" Writebacks:", cs.Writebacks).
		Uint(" Fills:", cs.Fills).
		Uint(" WriteHits:", cs.WriteHits).
		Uint(" WriteMisses:", cs.WriteMisses).
		Uint(" Prefetches:", cs.Prefetches).
		Key("}")
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
