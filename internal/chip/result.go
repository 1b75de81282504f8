package chip

import (
	"shelfsim/internal/core"
	"shelfsim/internal/metrics"
)

// closeSegment folds a core's finished segment into the chip accumulators:
// core-wide Stats, private cache statistics, the core's telemetry
// collector, and every resident thread's counters and window state. Called
// before the core is replaced on a migration rebuild; Result performs the
// same fold over the live cores without mutating chip state.
func (ch *Chip) closeSegment(s *slot) {
	st := s.core.Stats()
	ch.statsAcc.Add(&st)
	ch.l1iAcc.Add(s.core.Hierarchy().L1I().Stats)
	ch.l1dAcc.Add(s.core.Hierarchy().L1D().Stats)
	ch.l2Acc.Add(s.core.Hierarchy().L2().Stats)
	ch.obsAcc.Merge(s.core.Obs())
	for li, tid := range ch.assign[s.id] {
		accThread(ch.threads[tid], s.core.ThreadProgress(li), s.base)
	}
}

// accThread folds one thread's segment progress into its cross-segment
// accumulator. base places the segment's core-local cycles in chip time.
func accThread(acc *threadAcc, p core.ThreadProgress, base int64) {
	acc.retired += p.Retired
	acc.retiredInSeq += p.RetiredInSeq
	acc.retiredShelf += p.RetiredShelf
	acc.fetched += p.Fetched
	acc.steerShelf += p.SteerShelf
	acc.steerIQ += p.SteerIQ
	acc.squashes += p.Squashes
	acc.mispredicts += p.Mispredicts
	acc.memViolations += p.MemViolations
	acc.loadForwards += p.LoadForwards
	acc.storeCoalesce += p.StoreCoalesce
	if acc.done {
		// The cumulative window closed in an earlier segment; the thread
		// only runs on for contention now.
		return
	}
	if p.Warmed && !acc.warmStartSet {
		acc.warmStartSet = true
		acc.warmStartChip = base + p.WarmStartCycle
	}
	switch {
	case p.TargetReached:
		acc.winRetired += p.RetireTarget
		acc.winInSeq += p.FrozenInSeq
		acc.winShelf += p.FrozenShelf
		acc.finishChip = base + p.FinishCycle
		acc.done = true
	case p.Warmed:
		acc.winRetired += p.Retired - p.WarmupTarget
		acc.winInSeq += p.RetiredInSeq - p.WarmInSeq
		acc.winShelf += p.RetiredShelf - p.WarmShelf
	}
}

// Result assembles the chip-level run summary as a core.Result: Stats and
// cache statistics are summed across cores (and closed segments), threads
// are the software threads in id order with their windows stitched across
// migrations, Cycles is the chip makespan (the latest chip-time cycle any
// core reached), and Obs merges every per-core collector with the chip's
// own gauges. Result does not mutate the chip, so it may be called
// repeatedly (between epochs, or after completion).
func (ch *Chip) Result() core.Result {
	stats := ch.statsAcc
	l1i, l1d, l2 := ch.l1iAcc, ch.l1dAcc, ch.l2Acc
	merged := ch.obsAcc.Clone()

	accs := make([]threadAcc, len(ch.threads))
	for i, a := range ch.threads {
		accs[i] = *a
	}
	series := make([]*metrics.SeriesTracker, len(ch.threads))

	var makespan int64
	for _, s := range ch.slots {
		st := s.core.Stats()
		stats.Add(&st)
		l1i.Add(s.core.Hierarchy().L1I().Stats)
		l1d.Add(s.core.Hierarchy().L1D().Stats)
		l2.Add(s.core.Hierarchy().L2().Stats)
		merged.Merge(s.core.Obs())
		if end := s.base + s.core.Cycle(); end > makespan {
			makespan = end
		}
		live := s.core.Result()
		for li, tid := range ch.assign[s.id] {
			accThread(&accs[tid], s.core.ThreadProgress(li), s.base)
			// The series tracker covers the thread's final placement
			// segment (trackers do not merge across migrations).
			series[tid] = live.Threads[li].Series
		}
	}

	r := core.Result{
		Config:  ch.cfg.Name,
		Cycles:  makespan,
		Stats:   stats,
		Threads: make([]core.ThreadResult, len(accs)),
		L1I:     l1i,
		L1D:     l1d,
		L2:      l2,
		Obs:     merged,
	}
	for tid := range accs {
		a := &accs[tid]
		tr := core.ThreadResult{
			Workload:      a.workload,
			Retired:       a.retired,
			Fetched:       a.fetched,
			FinishCycle:   makespan,
			SteerShelf:    a.steerShelf,
			SteerIQ:       a.steerIQ,
			Squashes:      a.squashes,
			Mispredicts:   a.mispredicts,
			MemViolations: a.memViolations,
			LoadForwards:  a.loadForwards,
			StoreCoalesce: a.storeCoalesce,
			Series:        series[tid],
		}
		if a.done {
			// Window semantics, as on a single core: Retired is the
			// measured window, CPI and the fractions cover chip-time from
			// window open to close, stitched across migrations.
			tr.Retired = a.winRetired
			tr.FinishCycle = a.finishChip
			if a.winRetired > 0 {
				tr.CPI = float64(a.finishChip-a.warmStartChip) / float64(a.winRetired)
				tr.InSeqFraction = float64(a.winInSeq) / float64(a.winRetired)
				tr.ShelfFraction = float64(a.winShelf) / float64(a.winRetired)
			}
		} else if a.retired > 0 {
			tr.CPI = float64(makespan) / float64(a.retired)
			tr.InSeqFraction = float64(a.retiredInSeq) / float64(a.retired)
			tr.ShelfFraction = float64(a.retiredShelf) / float64(a.retired)
		}
		r.Threads[tid] = tr
	}
	return r
}

// CoreFingerprints returns each live core's segment Result fingerprint, in
// core order. The runner's chip differential compares them between the
// parallel and lockstep step modes: bit-identical per-core results prove
// the parallel path introduced no cross-core interaction.
func (ch *Chip) CoreFingerprints() []string {
	fps := make([]string, len(ch.slots))
	for i, s := range ch.slots {
		r := s.core.Result()
		fps[i] = r.Fingerprint()
	}
	return fps
}

// Migrations returns the total thread migrations performed so far.
func (ch *Chip) Migrations() int64 {
	var n int64
	for _, a := range ch.threads {
		n += a.migrations
	}
	return n
}
