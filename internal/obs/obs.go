// Package obs is the simulator's observability layer: the vocabulary of
// the core's event stream (Event, EventKind) and an allocation-light
// telemetry Collector that consumes it. Each core instance owns its
// collector (replacing the racy package-global debug counters the
// simulator grew up with) and feeds it every event through Observe. A
// Collector accumulates steer decisions per op class, issue and
// completion delays, per-cycle dispatch/issue slot histograms, squash
// causes, and stage-occupancy gauges. Collectors from independent runs are
// combined race-free with Merge after their runs complete, and export as
// JSON or CSV for reading a sweep.
package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"shelfsim/internal/isa"
)

// SquashCause classifies pipeline flushes.
type SquashCause uint8

const (
	// SquashMispredict is a branch-misprediction flush.
	SquashMispredict SquashCause = iota
	// SquashMemOrder is a memory-order-violation flush (§III-D).
	SquashMemOrder

	// NumSquashCauses is the number of distinct squash causes.
	NumSquashCauses
)

// String names the squash cause.
func (s SquashCause) String() string {
	switch s {
	case SquashMispredict:
		return "mispredict"
	case SquashMemOrder:
		return "mem_order"
	default:
		return fmt.Sprintf("cause(%d)", uint8(s))
	}
}

// Sides of the scheduling window: instructions are steered to the shared
// issue queue or the per-thread shelf.
const (
	SideIQ = iota
	SideShelf
	numSides
)

var sideNames = [numSides]string{"iq", "sh"}

// NumSlots bounds the dispatch/issue slot-usage histograms (per-cycle slot
// counts at or above NumSlots-1 share the last bucket).
const NumSlots = 16

// DelayStat accumulates scheduling delays for one (side, op class):
// dispatch-to-issue and issue-to-completion cycle sums over Count ops.
type DelayStat struct {
	IssueDelaySum    int64 `json:"issue_delay_sum"`
	CompleteDelaySum int64 `json:"complete_delay_sum"`
	Count            int64 `json:"count"`
}

// MeanIssueDelay is the average dispatch-to-issue delay in cycles.
func (d *DelayStat) MeanIssueDelay() float64 { return mean(d.IssueDelaySum, d.Count) }

// MeanCompleteDelay is the average issue-to-completion delay in cycles.
func (d *DelayStat) MeanCompleteDelay() float64 { return mean(d.CompleteDelaySum, d.Count) }

// Gauge integrates a per-cycle occupancy: sum and peak over Samples cycles.
type Gauge struct {
	Sum     int64 `json:"sum"`
	Max     int64 `json:"max"`
	Samples int64 `json:"samples"`
}

// Observe adds one per-cycle sample.
func (g *Gauge) Observe(v int64) {
	g.Sum += v
	if v > g.Max {
		g.Max = v
	}
	g.Samples++
}

// Mean is the average occupancy over the observed cycles.
func (g *Gauge) Mean() float64 { return mean(g.Sum, g.Samples) }

func (g *Gauge) merge(o *Gauge) {
	g.Sum += o.Sum
	if o.Max > g.Max {
		g.Max = o.Max
	}
	g.Samples += o.Samples
}

func mean(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Collector is one core's telemetry. Every field is a plain value (arrays,
// no maps or pointers), so a Collector never allocates after construction
// and copies/merges with simple arithmetic. A Collector is NOT safe for
// concurrent mutation; each simulated core owns exactly one, and sweeps
// merge the finished collectors afterwards.
type Collector struct {
	// Cycles counts occupancy samples (one per simulated cycle).
	Cycles int64
	// Steer counts dispatch steering decisions per [side][op class].
	Steer [numSides][isa.NumOpClasses]int64
	// Delays accumulates scheduling delays per [side][op class].
	Delays [numSides][isa.NumOpClasses]DelayStat
	// DispatchSlots/IssueSlots histogram per-cycle slot usage.
	DispatchSlots [NumSlots]int64
	IssueSlots    [NumSlots]int64
	// Squashes counts pipeline flushes per cause.
	Squashes [NumSquashCauses]int64
	// Stage-occupancy gauges, sampled once per cycle.
	IQ, ROB, Shelf, LQ, SQ, PRF Gauge
	// Scheduler gauges, sampled once per cycle: Ready is the wakeup–select
	// engine's ready-set occupancy, Wakeups the consumer wakeups delivered
	// that cycle (tag broadcasts plus store-sets edge resolutions).
	Ready, Wakeups Gauge
	// Chip-level telemetry (internal/chip; zero in single-core runs).
	// ChipEpochs counts allocation epochs, ChipMigrations the threads moved
	// to a different core across all of them. ChipMoved samples the moves
	// decided at each epoch (the allocator's per-epoch decision volume);
	// ChipCoreRetired and ChipCoreThreads sample, once per core per epoch,
	// that core's retired-instruction delta and resident thread count (the
	// per-core occupancy view of the chip).
	ChipEpochs      int64
	ChipMigrations  int64
	ChipMoved       Gauge
	ChipCoreRetired Gauge
	ChipCoreThreads Gauge
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

func side(toShelf bool) int {
	if toShelf {
		return SideShelf
	}
	return SideIQ
}

// Observe folds one core event into the telemetry. Kinds the collector
// does not count (store commits, retirements) are ignored.
func (c *Collector) Observe(ev Event) {
	switch ev.Kind {
	case EvSteer:
		c.Steer[side(ev.ToShelf)][ev.Op]++
	case EvIssue:
		d := &c.Delays[side(ev.ToShelf)][ev.Op]
		d.IssueDelaySum += ev.Cycle - ev.DispatchCycle
		d.CompleteDelaySum += ev.CompleteCycle - ev.Cycle
		d.Count++
	case EvSquash:
		c.Squashes[ev.Cause]++
	case EvCycle:
		s := &ev.Sample
		c.DispatchSlots[clampSlot(s.DispatchSlots)]++
		c.IssueSlots[clampSlot(s.IssueSlots)]++
		c.Cycles++
		c.IQ.Observe(s.IQ)
		c.ROB.Observe(s.ROB)
		c.Shelf.Observe(s.Shelf)
		c.LQ.Observe(s.LQ)
		c.SQ.Observe(s.SQ)
		c.PRF.Observe(s.PRF)
		c.Ready.Observe(s.Ready)
		c.Wakeups.Observe(s.Wakeups)
	}
}

func clampSlot(n int) int {
	if n < 0 {
		return 0
	}
	if n >= NumSlots {
		return NumSlots - 1
	}
	return n
}

// RecordChipEpoch counts one chip allocation epoch and the thread
// migrations it decided.
func (c *Collector) RecordChipEpoch(moved int64) {
	c.ChipEpochs++
	c.ChipMigrations += moved
	c.ChipMoved.Observe(moved)
}

// RecordChipCore samples one core's per-epoch view: the instructions it
// retired over the epoch and the threads resident on it.
func (c *Collector) RecordChipCore(retired, threads int64) {
	c.ChipCoreRetired.Observe(retired)
	c.ChipCoreThreads.Observe(threads)
}

// Merge folds another collector's telemetry into c. Merging is commutative
// and associative, so a sweep may fold per-run collectors in any order;
// gauge means stay exact (sums and sample counts add) while Max becomes the
// maximum across runs.
func (c *Collector) Merge(o *Collector) {
	if c == nil || o == nil {
		return
	}
	c.Cycles += o.Cycles
	for s := 0; s < numSides; s++ {
		for op := 0; op < int(isa.NumOpClasses); op++ {
			c.Steer[s][op] += o.Steer[s][op]
			d, od := &c.Delays[s][op], &o.Delays[s][op]
			d.IssueDelaySum += od.IssueDelaySum
			d.CompleteDelaySum += od.CompleteDelaySum
			d.Count += od.Count
		}
	}
	for i := range c.DispatchSlots {
		c.DispatchSlots[i] += o.DispatchSlots[i]
		c.IssueSlots[i] += o.IssueSlots[i]
	}
	for i := range c.Squashes {
		c.Squashes[i] += o.Squashes[i]
	}
	c.IQ.merge(&o.IQ)
	c.ROB.merge(&o.ROB)
	c.Shelf.merge(&o.Shelf)
	c.LQ.merge(&o.LQ)
	c.SQ.merge(&o.SQ)
	c.PRF.merge(&o.PRF)
	c.Ready.merge(&o.Ready)
	c.Wakeups.merge(&o.Wakeups)
	c.ChipEpochs += o.ChipEpochs
	c.ChipMigrations += o.ChipMigrations
	c.ChipMoved.merge(&o.ChipMoved)
	c.ChipCoreRetired.merge(&o.ChipCoreRetired)
	c.ChipCoreThreads.merge(&o.ChipCoreThreads)
}

// Clone returns an independent copy (a Collector is all value fields).
func (c *Collector) Clone() *Collector {
	if c == nil {
		return nil
	}
	cp := *c
	return &cp
}

// SteerCount is one op class's steer decisions in a Snapshot.
type SteerCount struct {
	Shelf int64 `json:"shelf"`
	IQ    int64 `json:"iq"`
}

// DelaySummary is one (side, op class)'s delay statistics in a Snapshot.
type DelaySummary struct {
	Count             int64   `json:"count"`
	MeanIssueDelay    float64 `json:"mean_issue_delay"`
	MeanCompleteDelay float64 `json:"mean_complete_delay"`
}

// OccupancySummary is one stage gauge in a Snapshot.
type OccupancySummary struct {
	Mean float64 `json:"mean"`
	Max  int64   `json:"max"`
}

// Snapshot is the name-keyed export view of a Collector: op classes and
// squash causes become strings, gauges become mean/max summaries. Zero
// entries are omitted from the maps.
type Snapshot struct {
	Cycles        int64                       `json:"cycles"`
	Steer         map[string]SteerCount       `json:"steer"`
	Delays        map[string]DelaySummary     `json:"delays"`
	DispatchSlots []int64                     `json:"dispatch_slots"`
	IssueSlots    []int64                     `json:"issue_slots"`
	Squashes      map[string]int64            `json:"squashes"`
	Occupancy     map[string]OccupancySummary `json:"occupancy"`
	// Chip-level counters (omitted for single-core runs).
	ChipEpochs     int64 `json:"chip_epochs,omitempty"`
	ChipMigrations int64 `json:"chip_migrations,omitempty"`
}

// Snapshot builds the exportable view. Safe on a nil collector (exports an
// empty snapshot).
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		c = &Collector{}
	}
	s := Snapshot{
		Cycles:         c.Cycles,
		ChipEpochs:     c.ChipEpochs,
		ChipMigrations: c.ChipMigrations,
		Steer:          map[string]SteerCount{},
		Delays:         map[string]DelaySummary{},
		DispatchSlots:  append([]int64(nil), c.DispatchSlots[:]...),
		IssueSlots:     append([]int64(nil), c.IssueSlots[:]...),
		Squashes:       map[string]int64{},
		Occupancy:      map[string]OccupancySummary{},
	}
	for op := 0; op < int(isa.NumOpClasses); op++ {
		name := isa.OpClass(op).String()
		if sh, iq := c.Steer[SideShelf][op], c.Steer[SideIQ][op]; sh != 0 || iq != 0 {
			s.Steer[name] = SteerCount{Shelf: sh, IQ: iq}
		}
		for sd := 0; sd < numSides; sd++ {
			if d := &c.Delays[sd][op]; d.Count != 0 {
				s.Delays[sideNames[sd]+"."+name] = DelaySummary{
					Count:             d.Count,
					MeanIssueDelay:    d.MeanIssueDelay(),
					MeanCompleteDelay: d.MeanCompleteDelay(),
				}
			}
		}
	}
	for cause := SquashCause(0); cause < NumSquashCauses; cause++ {
		if n := c.Squashes[cause]; n != 0 {
			s.Squashes[cause.String()] = n
		}
	}
	for _, g := range []struct {
		name  string
		gauge *Gauge
	}{
		{"iq", &c.IQ}, {"rob", &c.ROB}, {"shelf", &c.Shelf},
		{"lq", &c.LQ}, {"sq", &c.SQ}, {"prf", &c.PRF},
		{"ready", &c.Ready}, {"wakeups", &c.Wakeups},
		{"chip.moved", &c.ChipMoved}, {"chip.core_retired", &c.ChipCoreRetired},
		{"chip.core_threads", &c.ChipCoreThreads},
	} {
		if g.gauge.Samples != 0 {
			s.Occupancy[g.name] = OccupancySummary{Mean: g.gauge.Mean(), Max: g.gauge.Max}
		}
	}
	return s
}

// MarshalJSON exports the name-keyed snapshot view, so a Collector embedded
// in a result serializes readably.
func (c *Collector) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}

// WriteJSON writes the snapshot as indented JSON.
func (c *Collector) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}

// WriteCSV writes the snapshot as flat section,key,field,value rows, sorted
// for stable diffing.
func (c *Collector) WriteCSV(w io.Writer) error {
	s := c.Snapshot()
	cw := csv.NewWriter(w)
	rows := [][]string{{"section", "key", "field", "value"}}
	rows = append(rows, []string{"core", "cycles", "count", strconv.FormatInt(s.Cycles, 10)})
	if s.ChipEpochs != 0 || s.ChipMigrations != 0 {
		rows = append(rows,
			[]string{"chip", "epochs", "count", strconv.FormatInt(s.ChipEpochs, 10)},
			[]string{"chip", "migrations", "count", strconv.FormatInt(s.ChipMigrations, 10)})
	}
	for _, k := range sortedKeys(s.Steer) {
		v := s.Steer[k]
		rows = append(rows,
			[]string{"steer", k, "shelf", strconv.FormatInt(v.Shelf, 10)},
			[]string{"steer", k, "iq", strconv.FormatInt(v.IQ, 10)})
	}
	for _, k := range sortedKeys(s.Delays) {
		v := s.Delays[k]
		rows = append(rows,
			[]string{"delay", k, "count", strconv.FormatInt(v.Count, 10)},
			[]string{"delay", k, "mean_issue_delay", formatFloat(v.MeanIssueDelay)},
			[]string{"delay", k, "mean_complete_delay", formatFloat(v.MeanCompleteDelay)})
	}
	for i, n := range s.DispatchSlots {
		rows = append(rows, []string{"dispatch_slots", strconv.Itoa(i), "count", strconv.FormatInt(n, 10)})
	}
	for i, n := range s.IssueSlots {
		rows = append(rows, []string{"issue_slots", strconv.Itoa(i), "count", strconv.FormatInt(n, 10)})
	}
	for _, k := range sortedKeys(s.Squashes) {
		rows = append(rows, []string{"squash", k, "count", strconv.FormatInt(s.Squashes[k], 10)})
	}
	for _, k := range sortedKeys(s.Occupancy) {
		v := s.Occupancy[k]
		rows = append(rows,
			[]string{"occupancy", k, "mean", formatFloat(v.Mean)},
			[]string{"occupancy", k, "max", strconv.FormatInt(v.Max, 10)})
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteFile exports the collector to path, choosing the format by
// extension: ".csv" writes CSV, anything else indented JSON.
func WriteFile(path string, c *Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = c.WriteCSV(f)
	} else {
		err = c.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
