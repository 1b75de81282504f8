package shelfsim

import (
	"context"
	"encoding/json"
	"fmt"

	"shelfsim/internal/mem"
	"shelfsim/internal/obs"
)

// SchemaVersion is the wire schema version stamped into every exported
// Report. Bump it on any incompatible change to Report, ThreadReport or
// Request; DecodeReport rejects versions it does not understand, so served
// results are versioned from day one and a stale client fails loudly
// instead of misreading fields.
const SchemaVersion = 1

// CacheStats is one cache level's hit/miss/eviction counters.
type CacheStats = mem.CacheStats

// Telemetry is the name-keyed export view of a run's observability
// collector (steer decisions, delays, slot usage, squash causes,
// occupancies).
type Telemetry = obs.Snapshot

// SteerCount, DelaySummary and OccupancySummary are the Telemetry
// sub-records (per-op-class steer decisions, per-side delay statistics,
// per-stage occupancy summaries).
type (
	SteerCount       = obs.SteerCount
	DelaySummary     = obs.DelaySummary
	OccupancySummary = obs.OccupancySummary
)

// ThreadReport is one thread's outcome in the wire Report: the scalar
// fields of a ThreadResult, without the in-process-only series tracker, so
// a Report round-trips through JSON without loss.
type ThreadReport struct {
	Workload      string  `json:"workload"`
	Retired       int64   `json:"retired"`
	Fetched       int64   `json:"fetched"`
	FinishCycle   int64   `json:"finish_cycle"`
	CPI           float64 `json:"cpi"`
	InSeqFraction float64 `json:"in_seq_fraction"`
	ShelfFraction float64 `json:"shelf_fraction"`
	SteerShelf    int64   `json:"steer_shelf"`
	SteerIQ       int64   `json:"steer_iq"`
	Squashes      int64   `json:"squashes"`
	Mispredicts   int64   `json:"mispredicts"`
	MemViolations int64   `json:"mem_violations"`
	LoadForwards  int64   `json:"load_forwards"`
	StoreCoalesce int64   `json:"store_coalesce"`
}

// Report is the versioned JSON export of a completed run: what shelfd
// serves over the wire and what the CLIs emit with -json. It carries both
// identity fingerprints — the configuration's (what ran) and the result's
// (what came out) — so a served result can be differentially checked
// against an in-process run of the same Request by fingerprint equality
// alone.
type Report struct {
	// SchemaVersion identifies the wire schema (see SchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// Config is the configuration's display name.
	Config string `json:"config"`
	// ConfigFingerprint hashes every configuration field.
	ConfigFingerprint string `json:"config_fingerprint"`
	// ResultFingerprint hashes every deterministic outcome of the run.
	ResultFingerprint string `json:"result_fingerprint"`
	// CacheKey is the run's canonical identity (config fingerprint +
	// workload + window).
	CacheKey string `json:"cache_key,omitempty"`

	Cycles  int64          `json:"cycles"`
	Stats   Stats          `json:"stats"`
	Threads []ThreadReport `json:"threads"`
	L1I     CacheStats     `json:"l1i"`
	L1D     CacheStats     `json:"l1d"`
	L2      CacheStats     `json:"l2"`
	// Obs is the run's telemetry snapshot (present only when the request
	// enabled telemetry).
	Obs *Telemetry `json:"obs,omitempty"`
}

// NewReport builds the wire export of a finished run.
func NewReport(rv Resolved, res Result) Report {
	rep := Report{
		SchemaVersion:     SchemaVersion,
		Config:            res.Config,
		ConfigFingerprint: rv.Config.Fingerprint(),
		ResultFingerprint: res.Fingerprint(),
		Cycles:            res.Cycles,
		Stats:             res.Stats,
		Threads:           make([]ThreadReport, len(res.Threads)),
		L1I:               res.L1I,
		L1D:               res.L1D,
		L2:                res.L2,
		CacheKey:          rv.CacheKey(),
	}
	for i := range res.Threads {
		t := &res.Threads[i]
		rep.Threads[i] = ThreadReport{
			Workload:      t.Workload,
			Retired:       t.Retired,
			Fetched:       t.Fetched,
			FinishCycle:   t.FinishCycle,
			CPI:           t.CPI,
			InSeqFraction: t.InSeqFraction,
			ShelfFraction: t.ShelfFraction,
			SteerShelf:    t.SteerShelf,
			SteerIQ:       t.SteerIQ,
			Squashes:      t.Squashes,
			Mispredicts:   t.Mispredicts,
			MemViolations: t.MemViolations,
			LoadForwards:  t.LoadForwards,
			StoreCoalesce: t.StoreCoalesce,
		}
	}
	if res.Obs != nil {
		snap := res.Obs.Snapshot()
		rep.Obs = &snap
	}
	return rep
}

// RunReport runs req (see Run) and wraps the outcome in the versioned
// wire Report — the in-process equivalent of a shelfd response.
func RunReport(ctx context.Context, req Request) (Report, error) {
	rv, err := req.Resolve()
	if err != nil {
		return Report{}, err
	}
	res, err := runResolved(ctx, rv)
	if err != nil {
		return Report{}, err
	}
	return NewReport(rv, res), nil
}

// CheckResultFingerprint recomputes the result fingerprint from the
// report's own outcome fields, as NewReport computed it from the run's
// Result, and returns an error if it differs from ResultFingerprint: a
// report altered after it was made (a flipped digit at rest) fails it.
// DecodeReport does not call it; a reader that must not trust the layer
// below it (the store's Open) does.
func (r *Report) CheckResultFingerprint() error {
	res := Result{
		Config:  r.Config,
		Cycles:  r.Cycles,
		Stats:   r.Stats,
		Threads: make([]ThreadResult, len(r.Threads)),
		L1I:     r.L1I,
		L1D:     r.L1D,
		L2:      r.L2,
	}
	for i := range r.Threads {
		t := &r.Threads[i]
		res.Threads[i] = ThreadResult{
			Workload:      t.Workload,
			Retired:       t.Retired,
			Fetched:       t.Fetched,
			FinishCycle:   t.FinishCycle,
			CPI:           t.CPI,
			InSeqFraction: t.InSeqFraction,
			ShelfFraction: t.ShelfFraction,
			SteerShelf:    t.SteerShelf,
			SteerIQ:       t.SteerIQ,
			Squashes:      t.Squashes,
			Mispredicts:   t.Mispredicts,
			MemViolations: t.MemViolations,
			LoadForwards:  t.LoadForwards,
			StoreCoalesce: t.StoreCoalesce,
		}
	}
	if fp := res.Fingerprint(); fp != r.ResultFingerprint {
		return fmt.Errorf("shelfsim: report result fingerprint %s, its fields hash to %s", r.ResultFingerprint, fp)
	}
	return nil
}

// DecodeReport parses a wire Report and enforces the schema version. The
// encoding json.Marshal gives a Report is read in one pass (see
// report_decode.go); any other input is read by json.Unmarshal, which
// defines the result for every input.
func DecodeReport(data []byte) (Report, error) {
	var rep Report
	if !decodeFast(data, &rep) {
		rep = Report{}
		if err := json.Unmarshal(data, &rep); err != nil {
			return rep, fmt.Errorf("shelfsim: decoding report: %w", err)
		}
	}
	if rep.SchemaVersion != SchemaVersion {
		return rep, fmt.Errorf("shelfsim: report schema version %d, this build reads %d",
			rep.SchemaVersion, SchemaVersion)
	}
	return rep, nil
}
