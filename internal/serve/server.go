// Package serve implements shelfd's HTTP/JSON simulation service on top of
// the public request API and the supervised runner: cache-key-hashed
// single-writer execution shards with bounded ring inboxes (429 +
// Retry-After when a shard's inbox is full), deduplication of identical
// in-flight requests onto one execution (keyed by the harness cache key,
// i.e. the configuration fingerprint + mix + window), an optional
// persistent result store that serves repeat requests from disk without
// re-simulating and warm-restarts across processes, streaming NDJSON
// progress for sweeps, health and metrics endpoints exporting the merged
// observability snapshots, and graceful drain (admitted jobs finish, new
// submissions are rejected). Everything is stdlib-only.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shelfsim"
	"shelfsim/internal/obs"
	"shelfsim/internal/runner"
	"shelfsim/internal/store"
)

// Options tunes the service. The zero value is ready for production-ish
// defaults: one shard per CPU, a 64-deep inbox per shard, a 2-minute job
// timeout, no persistent store.
type Options struct {
	// Shards is the number of single-writer execution shards, i.e. the
	// number of concurrent simulations (default GOMAXPROCS). Requests are
	// routed to shards by cache-key hash, so identical requests always
	// share a shard and execute in submission order.
	Shards int
	// QueueDepth bounds each shard's ring inbox — admitted-but-unexecuted
	// jobs beyond the one executing; a full inbox rejects submissions with
	// 429 (default 64).
	QueueDepth int
	// Store, when non-nil, persists every completed report and serves
	// repeat requests from disk instead of re-simulating. The server also
	// restores its cumulative counters from the store's meta document on
	// construction and persists them on Close.
	Store *store.Store
	// JobTimeout bounds one job's wall-clock time (default 2m; negative
	// disables the limit).
	JobTimeout time.Duration
	// CyclesPerInst scales the per-job cycle budget, aborting deadlocked
	// simulations (default shelfsim.DefaultMaxCyclesPerInst).
	CyclesPerInst int64
	// RetryAfter is the backoff hint attached to 429 responses
	// (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
}

func (o *Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 64
}

func (o *Options) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return runtime.GOMAXPROCS(0)
}

func (o *Options) jobTimeout() time.Duration {
	if o.JobTimeout > 0 {
		return o.JobTimeout
	}
	if o.JobTimeout < 0 {
		return 0 // unlimited
	}
	return 2 * time.Minute
}

func (o *Options) cyclesPerInst() int64 {
	if o.CyclesPerInst > 0 {
		return o.CyclesPerInst
	}
	return shelfsim.DefaultMaxCyclesPerInst
}

func (o *Options) retryAfter() time.Duration {
	if o.RetryAfter > 0 {
		return o.RetryAfter
	}
	return time.Second
}

func (o *Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes > 0 {
		return o.MaxBodyBytes
	}
	return 1 << 20
}

// Counters is the service's cumulative accounting, exported by /metrics.
// With a persistent store attached, counters survive restarts: they are
// saved to the store's meta document on Close and restored on New.
type Counters struct {
	// Submitted counts run submissions (including rejected ones).
	Submitted int64 `json:"submitted"`
	// Executed counts simulations actually started; Submitted - Executed -
	// StoreHits - rejections = deduplicated shares.
	Executed int64 `json:"executed"`
	// DedupHits counts submissions that attached to an identical in-flight
	// job instead of executing.
	DedupHits int64 `json:"dedup_hits"`
	// StoreHits counts jobs answered from the persistent store without
	// simulating.
	StoreHits int64 `json:"store_hits"`
	// Completed and Failed count finished jobs by outcome (store hits
	// complete without executing).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Abandoned counts queued jobs failed with ErrAbandoned because the
	// server closed before they executed.
	Abandoned int64 `json:"abandoned"`
	// StorePutErrors counts results that completed but could not be
	// persisted (the response is still served).
	StorePutErrors int64 `json:"store_put_errors"`
	// RejectedQueueFull and RejectedDraining count 429 responses by cause.
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedDraining  int64 `json:"rejected_draining"`
	// BadRequests counts 400 responses (malformed or invalid requests).
	BadRequests int64 `json:"bad_requests"`
}

// counters is the atomic backing store for Counters.
type counters struct {
	submitted, executed, dedupHits   atomic.Int64
	storeHits, storePutErrs          atomic.Int64
	completed, failed, abandoned     atomic.Int64
	rejectedQueueFull, rejectedDrain atomic.Int64
	badRequests                      atomic.Int64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Submitted:         c.submitted.Load(),
		Executed:          c.executed.Load(),
		DedupHits:         c.dedupHits.Load(),
		StoreHits:         c.storeHits.Load(),
		Completed:         c.completed.Load(),
		Failed:            c.failed.Load(),
		Abandoned:         c.abandoned.Load(),
		StorePutErrors:    c.storePutErrs.Load(),
		RejectedQueueFull: c.rejectedQueueFull.Load(),
		RejectedDraining:  c.rejectedDrain.Load(),
		BadRequests:       c.badRequests.Load(),
	}
}

// restore seeds the atomic counters from a persisted snapshot (warm
// restart); only ever called before the server starts serving.
func (c *counters) restore(s Counters) {
	c.submitted.Store(s.Submitted)
	c.executed.Store(s.Executed)
	c.dedupHits.Store(s.DedupHits)
	c.storeHits.Store(s.StoreHits)
	c.completed.Store(s.Completed)
	c.failed.Store(s.Failed)
	c.abandoned.Store(s.Abandoned)
	c.storePutErrs.Store(s.StorePutErrors)
	c.rejectedQueueFull.Store(s.RejectedQueueFull)
	c.rejectedDrain.Store(s.RejectedDraining)
	c.badRequests.Store(s.BadRequests)
}

// metaDoc is the counters snapshot persisted in the store's meta document
// across restarts.
type metaDoc struct {
	Counters Counters `json:"counters"`
}

// ErrorBody is the JSON error envelope. Field carries the offending
// request/config field for 400s, so clients can attribute failures without
// parsing messages; RetryAfterMs mirrors the Retry-After header on 429s.
type ErrorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
	// Line and Col locate assembler diagnostics (1-based) when Field names
	// a program ("programs[i]"), so clients can point at the offending
	// source position without parsing the message.
	Line         int   `json:"line,omitempty"`
	Col          int   `json:"col,omitempty"`
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	// Status is "ok" while admitting and "draining" after BeginDrain.
	Status string `json:"status"`
	// QueueLen and QueueDepth describe total inbox occupancy and capacity
	// across all shards.
	QueueLen   int `json:"queue_len"`
	QueueDepth int `json:"queue_depth"`
	// InFlight counts admitted-but-unfinished jobs (queued + executing).
	InFlight int64 `json:"in_flight"`
	// Shards is the number of single-writer execution shards.
	Shards int `json:"shards"`
	// StoreEntries is the persistent store's servable entry count (absent
	// without a store).
	StoreEntries int `json:"store_entries,omitempty"`
	// UptimeMs is milliseconds since the server was created.
	UptimeMs int64 `json:"uptime_ms"`
	// SchemaVersion is the wire schema this server speaks.
	SchemaVersion int `json:"schema_version"`
}

// Metrics is the /metrics body: service counters, persistent-store
// accounting, plus the merged observability snapshot of every
// telemetry-enabled job served so far.
type Metrics struct {
	Counters  Counters            `json:"counters"`
	InFlight  int64               `json:"in_flight"`
	Store     *store.Stats        `json:"store,omitempty"`
	Telemetry *shelfsim.Telemetry `json:"telemetry,omitempty"`
}

// Server is the simulation service. Create it with New, mount it as an
// http.Handler, and stop it with BeginDrain + Wait + Close.
type Server struct {
	opts   Options
	run    *runner.Runner
	mux    *http.ServeMux
	store  *store.Store
	shards []*shard
	start  time.Time

	// draining flips once and is checked under each shard's lock during
	// admission, so drain-vs-submit transitions stay atomic per shard
	// without any global admission lock on the hot path.
	draining atomic.Bool

	// idleMu guards the in-flight count and its idle channel: idleCh is
	// allocated when the count leaves zero and closed when it returns, so
	// Wait can block on it without spawning helper goroutines (nothing to
	// leak when a drain deadline expires).
	idleMu sync.Mutex
	active int64
	idleCh chan struct{}

	owners    sync.WaitGroup
	closeOnce sync.Once

	counters counters

	telemetryMu sync.Mutex
	telemetry   *obs.Collector

	// sweepItems gauges live sweep-item goroutines (tests assert they
	// drain after a client disconnect).
	sweepItems atomic.Int64

	// execGate, when set (tests only, via setExecGate), is called by a
	// shard owner immediately before executing a job; blocking it holds
	// the job in flight.
	execGate atomic.Pointer[func(cacheKey string)]
}

// New builds the service and starts one owning goroutine per shard. With
// a store attached, previously persisted counters are restored, so
// /metrics is cumulative across restarts.
func New(opts Options) *Server {
	s := &Server{
		opts: opts,
		run: &runner.Runner{
			Timeout:       opts.jobTimeout(),
			CyclesPerInst: opts.cyclesPerInst(),
			// One attempt: a job that exceeds JobTimeout fails instead
			// of holding its shard for a second full run.
			MaxAttempts: 1,
		},
		store: opts.Store,
		start: time.Now(),
	}
	if s.store != nil {
		var meta metaDoc
		if ok, err := s.store.LoadMeta(&meta); err == nil && ok {
			s.counters.restore(meta.Counters)
		}
	}
	s.shards = make([]*shard, opts.shards())
	for i := range s.shards {
		s.shards[i] = newShard(opts.queueDepth())
		s.owners.Add(1)
		go s.shards[i].run(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/kernels", s.handleKernels)
	return s
}

// setExecGate installs the test-only execution gate; guarded by an atomic
// pointer so installing it after New never races with a shard owner's
// read.
func (s *Server) setExecGate(gate func(cacheKey string)) {
	s.execGate.Store(&gate)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// BeginDrain stops admission: every subsequent submission is rejected with
// 429 while already-admitted jobs keep executing. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	return s.draining.Load()
}

// jobBegin accounts one admitted job; called under the admitting shard's
// lock, after the admission decision.
func (s *Server) jobBegin() {
	s.idleMu.Lock()
	s.active++
	if s.active == 1 {
		s.idleCh = make(chan struct{})
	}
	s.idleMu.Unlock()
}

// jobEnd retires one admitted job, releasing Wait when the server goes
// idle.
func (s *Server) jobEnd() {
	s.idleMu.Lock()
	s.active--
	if s.active == 0 {
		close(s.idleCh)
	}
	s.idleMu.Unlock()
}

// InFlight counts admitted-but-unfinished jobs (queued + executing).
func (s *Server) InFlight() int64 {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	return s.active
}

// Wait blocks until every admitted job has finished, or ctx expires. It
// spawns nothing: an expired deadline leaves no goroutine behind, and
// Wait can be called again.
func (s *Server) Wait(ctx context.Context) error {
	for {
		s.idleMu.Lock()
		if s.active == 0 {
			s.idleMu.Unlock()
			return nil
		}
		idle := s.idleCh
		n := s.active
		s.idleMu.Unlock()
		select {
		case <-idle:
			// Re-check: a submission racing the drain may have pushed the
			// count back up before we observed zero.
		case <-ctx.Done():
			return fmt.Errorf("serve: drain incomplete: %w (jobs in flight: %d)",
				ctx.Err(), n)
		}
	}
}

// Close stops the shard owners. Call after BeginDrain + Wait for a
// graceful stop; jobs still queued at Close are abandoned unexecuted and
// their waiters receive ErrAbandoned (surfaced as 503 over HTTP). With a
// store attached, the cumulative counters are persisted for the next
// process; the returned error reports a failed persist (the server is
// stopped either way). Safe to call more than once.
func (s *Server) Close() error {
	s.BeginDrain()
	s.closeOnce.Do(func() {
		for _, sh := range s.shards {
			sh.close()
		}
	})
	s.owners.Wait()
	if s.store != nil {
		if err := s.store.SaveMeta(metaDoc{Counters: s.counters.snapshot()}); err != nil {
			return fmt.Errorf("serve: persisting counters on close: %w", err)
		}
	}
	return nil
}

// Counters returns a snapshot of the service's cumulative accounting.
func (s *Server) Counters() Counters { return s.counters.snapshot() }

// queueLen is the total inbox occupancy across shards.
func (s *Server) queueLen() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.queued()
	}
	return n
}

// writeJSON renders one JSON response body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body) //shelfvet:ignore errdrop — status and headers are already on the wire; the client detects the truncated body
}

// errorBody maps an error to its wire envelope, extracting the typed field
// attribution when present.
func errorBody(err error) ErrorBody {
	body := ErrorBody{Error: err.Error()}
	var fe *shelfsim.FieldError
	if errors.As(err, &fe) {
		body.Field = fe.Field
	}
	var ae *shelfsim.AsmError
	if errors.As(err, &ae) {
		body.Line = ae.Line
		body.Col = ae.Col
	}
	return body
}

// writeBusy emits the 429 backpressure response with its Retry-After hint.
func (s *Server) writeBusy(w http.ResponseWriter, msg string) {
	ra := s.opts.retryAfter()
	w.Header().Set("Retry-After", strconv.Itoa(int((ra+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusTooManyRequests, ErrorBody{
		Error:        msg,
		RetryAfterMs: ra.Milliseconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	h := Health{
		Status:        status,
		QueueLen:      s.queueLen(),
		QueueDepth:    len(s.shards) * s.opts.queueDepth(),
		InFlight:      s.InFlight(),
		Shards:        len(s.shards),
		UptimeMs:      time.Since(s.start).Milliseconds(),
		SchemaVersion: shelfsim.SchemaVersion,
	}
	if s.store != nil {
		h.StoreEntries = s.store.Len()
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := Metrics{
		Counters: s.counters.snapshot(),
		InFlight: s.InFlight(),
	}
	if s.store != nil {
		st := s.store.Stats()
		m.Store = &st
	}
	s.telemetryMu.Lock()
	if s.telemetry != nil {
		snap := s.telemetry.Snapshot()
		m.Telemetry = &snap
	}
	s.telemetryMu.Unlock()
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	type kernelInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	ks := shelfsim.Kernels()
	out := make([]kernelInfo, len(ks))
	for i, k := range ks {
		out[i] = kernelInfo{Name: k.Name, Description: k.Description}
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeRequest parses one Request body strictly (unknown fields are
// schema violations under the versioned wire format).
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.maxBodyBytes()))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// handleRun is POST /v1/run: decode, validate (400 with field on error),
// submit through the dedup shards (429 + Retry-After under pressure or
// drain), wait, and answer with the versioned Report as the flight's
// compact JSON bytes — the same bytes whether they came from the store or
// from a fresh run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "POST a shelfsim.Request"})
		return
	}
	s.counters.submitted.Add(1)
	var req shelfsim.Request
	if err := s.decodeRequest(w, r, &req); err != nil {
		s.counters.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("decoding request: %w", err)))
		return
	}
	f, err := s.submit(req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	select {
	case <-f.done:
	case <-r.Context().Done():
		// The client went away; the job keeps running for deduplicated
		// waiters, the persistent store and the telemetry it feeds.
		return
	}
	switch {
	case errors.Is(f.err, ErrAbandoned):
		writeJSON(w, http.StatusServiceUnavailable, errorBody(f.err))
	case f.err != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody(f.err))
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(f.body)))
		_, _ = w.Write(f.body) // a failed write is a client that went away; nobody is left to tell
	}
}

// writeSubmitError maps a submission failure onto its HTTP status.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDraining):
		s.counters.rejectedDrain.Add(1)
		s.writeBusy(w, "server draining")
	case errors.Is(err, errQueueFull):
		s.counters.rejectedQueueFull.Add(1)
		s.writeBusy(w, "job queue full")
	default:
		s.counters.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody(err))
	}
}
