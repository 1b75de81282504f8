package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"shelfsim"
	"shelfsim/client"
	"shelfsim/internal/runner"
	"shelfsim/internal/serve"
	"shelfsim/internal/store"
)

const (
	// maxConns caps the client's connections to shelfd.
	maxConns = 2
	// setupRounds is how many warm restarts (serve-*) or extra batch
	// set-ups (fig10-batch) one run times before and again after its
	// timed phase; set-up is their median.
	setupRounds = 9
	// Traced runs trace a fixed number of ops, so their counts repeat for
	// a seed. serve-cold traces the first 32 requests of its sequence, in
	// which every paper mix appears once, and its baseline sends the next
	// 32, which are made up the same way.
	tracedHotOps  = 300
	tracedAsmOps  = 40
	tracedColdOps = 4 * chipEvery
)

// served is one running shelfd: its store, the service, a loopback
// listener and the client the workload drives it through.
type served struct {
	st   *store.Store
	srv  *serve.Server
	hs   *http.Server
	done chan error
	tr   *http.Transport
	cl   *client.Client
}

// startServed is the warm restart set-up measures: store.Open over the
// fixture, serve.New, the listener coming up and the first /healthz 200.
func startServed(dir string, rec *recorder) (*served, time.Duration, error) {
	start := time.Now()
	var st *store.Store
	var err error
	rec.timed("store.open", -1, -1, func() { st, err = store.Open(dir) })
	if err != nil {
		return nil, 0, err
	}
	s := &served{st: st, srv: serve.New(serve.Options{Store: st}), done: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.srv.Close() // nothing was admitted; the listen error is the one to report
		return nil, 0, fmt.Errorf("listening: %w", err)
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxIdleConnsPerHost: maxConns, MaxConnsPerHost: maxConns}
	s.cl = client.New("http://" + ln.Addr().String())
	s.cl.SetHTTPClient(&http.Client{Transport: s.tr})
	if _, err := s.cl.Health(context.Background()); err != nil {
		_ = s.stop() // the failed health check is the error to report
		return nil, 0, fmt.Errorf("first health check: %w", err)
	}
	return s, time.Since(start), nil
}

// stop drains shelfd the way cmd/shelfd does: stop admission, wait for
// admitted jobs, shut the HTTP server down, close the service.
func (s *served) stop() error {
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Wait(ctx)
	if e := s.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.done; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	s.tr.CloseIdleConnections()
	if e := s.srv.Close(); err == nil {
		err = e
	}
	return err
}

// restart performs setupRounds warm restarts over dir and keeps the last
// server running; it returns each restart's set-up time in seconds. Each
// restart starts from a collected heap, so it does not pay for the garbage
// of the one before it.
func restart(dir string, rec *recorder) (*served, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		runtime.GC()
		s, d, err := startServed(dir, rec)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == setupRounds-1 {
			return s, setups, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// fixtureDir is where -prepare builds the workload's fixture store for the
// run's seed.
func fixtureDir(b *bench, spec serveSpec) string {
	return filepath.Join(b.work, fmt.Sprintf("store-%s-seed%d", spec.name, b.seed))
}

// openFixture returns the fixture store -prepare built for this run; the
// run removes it when it ends.
func openFixture(b *bench, spec serveSpec) (string, error) {
	dir := fixtureDir(b, spec)
	if _, err := os.Stat(dir); err != nil {
		return "", fmt.Errorf("no fixture store for this run (build it with -prepare first): %w", err)
	}
	return dir, nil
}

// serveSpec describes one serving workload.
type serveSpec struct {
	name string
	// set is the hot set the fixture store holds.
	set []item
	// clients closed-loop clients each send next(c, 0), next(c, 1), ...
	// until the run's time is used or next reports no more.
	clients int
	next    func(c, i int) (item, bool)
	// traced is the traced run's op sequence; base is the sequence its
	// untraced one-client baseline sends.
	traced []item
	base   func(i int) (item, bool)
	cold   bool
}

func hotSpec(name string, u []item, k int, seed int64) serveSpec {
	sched := newHotSchedule(u, k, 2, seed)
	draw := func(c, i int) item { return sched.Set[sched.Draws[c][i%hotDraws]] }
	n := tracedHotOps
	if name == "serve-asm" {
		n = tracedAsmOps
	}
	traced := make([]item, n)
	for i := range traced {
		traced[i] = draw(0, i)
	}
	return serveSpec{
		name: name, set: sched.Set, clients: 2,
		next:   func(c, i int) (item, bool) { return draw(c, i), true },
		traced: traced,
		base:   func(i int) (item, bool) { return draw(1, i), true },
	}
}

func coldSpec(seed int64) serveSpec {
	seq := coldSchedule(seed)
	// from serves seq[lo:hi] as a closed-loop sequence.
	from := func(lo, hi int) func(int) (item, bool) {
		return func(i int) (item, bool) {
			if lo+i >= hi {
				return item{}, false
			}
			return seq[lo+i], true
		}
	}
	all := from(0, len(seq))
	return serveSpec{
		name: "serve-cold", set: newHotSchedule(hotUniverse(), hotSetSize, 1, seed).Set, clients: 1,
		next:   func(_, i int) (item, bool) { return all(i) },
		traced: seq[:tracedColdOps],
		base:   from(tracedColdOps, 2*tracedColdOps),
		cold:   true,
	}
}

// clientStats is one client's tally.
type clientStats struct {
	lats              []float64
	attempted, failed int
	// retired sums the served reports' retired instructions; window sums
	// the requests' measured windows (threads × insts).
	retired, window int64
	firstErr        error
}

// drive runs closed-loop clients against s until the deadline. An op
// fails when the request errors (a 429 included) or its result
// fingerprint is not the expected one; only successful ops have
// latencies.
func drive(s *served, clients int, next func(c, i int) (item, bool), exp *expected, until time.Time) clientStats {
	per := make([]clientStats, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			for i := 0; time.Now().Before(until); i++ {
				it, more := next(c, i)
				if !more {
					return
				}
				start := time.Now()
				rep, err := s.cl.Run(context.Background(), it.Req)
				lat := time.Since(start)
				st.attempted++
				if err == nil && !exp.ok(it.Label, rep.ResultFingerprint) {
					err = fmt.Errorf("%s: result fingerprint %s is not the expected one", it.Label, rep.ResultFingerprint)
				}
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				st.lats = append(st.lats, ms(lat))
				st.retired += rep.Stats.Retired
				st.window += it.window()
			}
		}(c)
	}
	wg.Wait()
	var all clientStats
	for _, st := range per {
		all.lats = append(all.lats, st.lats...)
		all.attempted += st.attempted
		all.failed += st.failed
		all.retired += st.retired
		all.window += st.window
		if all.firstErr == nil {
			all.firstErr = st.firstErr
		}
	}
	if all.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failed op: %v\n", all.firstErr)
	}
	return all
}

// runServe is the untraced run of a serving workload.
func runServe(b *bench, spec serveSpec) (outcome, error) {
	o := newOutcome()
	dir, err := openFixture(b, spec)
	if err != nil {
		return o, err
	}
	defer os.RemoveAll(dir)
	s, setups, err := restart(dir, nil)
	if err != nil {
		return o, err
	}
	cpu0, start := cpuTime(), time.Now()
	st := drive(s, spec.clients, spec.next, b.exp, start.Add(b.seconds))
	wall, cpu := time.Since(start), cpuTime()-cpu0
	if err := s.stop(); err != nil {
		return o, err
	}
	// The host's speed drifts over tenths of a second, so set-up is timed
	// again after the serving phase and its median rests on two moments of
	// the run rather than one.
	s, after, err := restart(dir, nil)
	if err != nil {
		return o, err
	}
	if err := s.stop(); err != nil {
		return o, err
	}
	setups = append(setups, after...)
	o.attempted, o.failed = st.attempted, st.failed
	// Every run prints every end-to-end metric. On serve-cold the served
	// reports' instructions were simulated during the run. On the store-hit
	// workloads nothing is simulated; the figure is the rate at which shelfd
	// delivers measured windows from the store, which does not depend on
	// which hot set the seed chose.
	insts, source := st.retired, "retired instructions simulated during the run"
	if !spec.cold {
		insts, source = st.window, "measured windows delivered from the store; nothing simulated"
	}
	o.e2e(setups, st.lats, cpu, float64(insts)/wall.Seconds()/1e6)
	o.notes["sim_minst_per_s"] = source
	return o, nil
}

// traceServe is the traced run of a serving workload: set-up with
// store.Open in spans, an untraced one-client baseline for a third of the
// run, then the fixed traced op sequence, each op sent through the client
// and its layers' calls then replayed from the benchmark.
func traceServe(b *bench, spec serveSpec) (outcome, error) {
	o := newOutcome()
	rec := newRecorder()
	dir, err := openFixture(b, spec)
	if err != nil {
		return o, err
	}
	defer os.RemoveAll(dir)
	entryBytes, err := meanEntryBytes(dir)
	if err != nil {
		return o, err
	}
	o.layers["store.entry_bytes"] = entryBytes
	s, _, err := restart(dir, rec)
	if err != nil {
		return o, err
	}
	o.layers["store.open_ms"] = spanMedian(rec, "store.open")

	gc0, c0 := gcPause(), s.srv.Counters()
	base := drive(s, 1, func(_, i int) (item, bool) { return spec.base(i) }, b.exp, time.Now().Add(b.seconds/3))
	o.layers["runtime.gc_pause_ms"] = ms(gcPause() - gc0)
	c1 := s.srv.Counters()
	hits, completed := c1.StoreHits-c0.StoreHits, c1.Completed-c0.Completed
	o.layers["serve.store_hits"] = float64(hits)
	o.layers["serve.completed"] = float64(completed)
	if completed > 0 {
		o.layers["serve.store_hit_frac"] = float64(hits) / float64(completed)
	}
	o.attempted, o.failed = base.attempted, base.failed

	acc := newLayerAcc()
	var sim simAcc
	var scratch *store.Store
	if spec.cold {
		scratchDir := filepath.Join(b.work, "scratch-"+spec.name)
		defer os.RemoveAll(scratchDir)
		if err := os.RemoveAll(scratchDir); err != nil {
			return o, err
		}
		if scratch, err = store.Open(scratchDir); err != nil {
			return o, err
		}
	}
	for i, it := range spec.traced {
		var ok bool
		if spec.cold {
			ok = coldOp(rec, i, s, it, b.exp, acc, &sim, scratch)
		} else {
			ok = hotOp(rec, i, s, it, b.exp, acc)
		}
		o.attempted++
		if !ok {
			o.failed++
		}
	}
	if err := s.stop(); err != nil {
		return o, err
	}
	acc.report(o.layers)
	sim.report(o.layers)
	o.layers["trace.overhead_frac"] = median(acc.samples["client.run_ms"])/median(base.lats) - 1
	delete(o.layers, "client.run_ms")
	o.notes["layer_sum"] = acc.check()
	o.trace = rec
	return o, nil
}

// hotOp is one traced op of serve-hot or serve-asm: the request through
// the client, then the same request's server-side calls replayed from the
// benchmark (ServeHTTP on a recorder, Resolve and its assembly, CacheKey,
// the store hit, the report's encode and decode).
func hotOp(rec *recorder, op int, s *served, it item, exp *expected, acc *layerAcc) bool {
	root := rec.begin("op", -1, op)
	defer rec.end(root)
	var rep shelfsim.Report
	var err error
	e2e := rec.timed("client.run", root, op, func() { rep, err = s.cl.Run(context.Background(), it.Req) })
	ok := err == nil && exp.ok(it.Label, rep.ResultFingerprint)

	var body []byte
	clientEnc := rec.timed("client.encode", root, op, func() { body, err = json.Marshal(it.Req) })
	if err != nil {
		return false
	}
	w := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	handler := rec.timed("serve.handler", root, op, func() { s.srv.ServeHTTP(w, hreq) })
	ok = ok && w.Code == http.StatusOK

	var rv shelfsim.Resolved
	resolve := rec.timed("request.resolve", root, op, func() { rv, err = it.Req.Resolve() })
	if err != nil {
		return false
	}
	var assemble time.Duration
	sched := 0
	for _, src := range it.Req.Programs {
		var p *shelfsim.Program
		assemble += rec.timed("asm.assemble", root, op, func() {
			p, err = shelfsim.Assemble(src, shelfsim.AsmOptions{MaxSchedule: rv.Config.AsmScheduleBound})
		})
		if err != nil {
			return false
		}
		sched += p.ScheduleLen()
	}
	var key string
	cacheKey := rec.timed("request.cache_key", root, op, func() { key = rv.CacheKey() })
	var stored shelfsim.Report
	var hit bool
	get := rec.timed("store.get", root, op, func() { stored, hit = s.st.Get(key) })
	ok = ok && hit && stored.ResultFingerprint == rep.ResultFingerprint
	var blob []byte
	enc := rec.timed("report.encode", root, op, func() { blob, err = json.Marshal(stored) })
	if err != nil {
		return false
	}
	dec := rec.timed("report.decode", root, op, func() { _, err = shelfsim.DecodeReport(blob) })
	ok = ok && err == nil

	acc.add("client.run_ms", ms(e2e))
	acc.add("client.self_us", us(e2e-handler))
	acc.add("serve.handler_self_us", us(handler-resolve-cacheKey-get-enc))
	acc.add("request.resolve_us", us(resolve-assemble))
	acc.add("request.cache_key_us", us(cacheKey))
	acc.add("asm.assemble_ms", ms(assemble))
	acc.add("asm.schedule_insts", float64(sched))
	acc.add("store.get_us", us(get))
	acc.add("report.encode_us", us(enc))
	acc.add("report.decode_us", us(dec))
	acc.add("report.bytes", float64(len(blob)))
	// The work layers measured directly: the whole server-side handler
	// (Resolve, CacheKey, the store hit, encoding and serve's own glue)
	// plus the client's request encode and response decode. What is left
	// of the op is loopback HTTP transport and scheduling.
	acc.account(e2e, handler+clientEnc+dec)
	return ok
}

// coldOp is one traced op of serve-cold: the never-seen request through
// the client, then the same job replayed from the benchmark through
// Resolve, CacheKey, runner.Execute (and below it a bare core loop, the
// workload streams, or the chip's epochs), NewReport, encode, decode and
// a Put into a scratch store.
func coldOp(rec *recorder, op int, s *served, it item, exp *expected, acc *layerAcc, sim *simAcc, scratch *store.Store) bool {
	root := rec.begin("op", -1, op)
	defer rec.end(root)
	var rep shelfsim.Report
	var err error
	e2e := rec.timed("client.run", root, op, func() { rep, err = s.cl.Run(context.Background(), it.Req) })
	ok := err == nil && exp.ok(it.Label, rep.ResultFingerprint)

	clientEnc := rec.timed("client.encode", root, op, func() { _, err = json.Marshal(it.Req) })
	if err != nil {
		return false
	}
	var rv shelfsim.Resolved
	resolve := rec.timed("request.resolve", root, op, func() { rv, err = it.Req.Resolve() })
	if err != nil {
		return false
	}
	var key string
	cacheKey := rec.timed("request.cache_key", root, op, func() { key = rv.CacheKey() })
	r := &runner.Runner{CyclesPerInst: shelfsim.DefaultMaxCyclesPerInst, MaxAttempts: 1}
	job := runner.Job{Config: rv.Config, Mix: rv.Mix, Warmup: rv.Warmup, Measure: rv.Insts}
	res, exec, simOK := sim.replay(rec, root, op, r, job, exp, it.Label)
	if res == nil {
		return false
	}
	ok = ok && simOK

	var fresh shelfsim.Report
	newRep := rec.timed("report.new", root, op, func() { fresh = shelfsim.NewReport(rv, *res) })
	var blob []byte
	enc := rec.timed("report.encode", root, op, func() { blob, err = json.Marshal(fresh) })
	if err != nil {
		return false
	}
	dec := rec.timed("report.decode", root, op, func() { _, err = shelfsim.DecodeReport(blob) })
	ok = ok && err == nil
	put := rec.timed("store.put", root, op, func() { err = scratch.Put(key, fresh) })
	ok = ok && err == nil

	acc.add("client.run_ms", ms(e2e))
	acc.add("request.resolve_us", us(resolve))
	acc.add("request.cache_key_us", us(cacheKey))
	acc.add("report.new_us", us(newRep))
	acc.add("report.encode_us", us(enc))
	acc.add("report.decode_us", us(dec))
	acc.add("report.bytes", float64(len(blob)))
	acc.add("store.put_ms", ms(put))
	// The work layers measured directly; serve's glue, HTTP transport and
	// run-to-run variation between the served and the replayed simulation
	// are what remains.
	acc.account(e2e, resolve+cacheKey+exec+newRep+enc+dec+put+clientEnc)
	return ok
}

// layerAcc collects per-op layer samples and the layer-sum accounting.
type layerAcc struct {
	samples   map[string][]float64
	e2e, work time.Duration
}

func newLayerAcc() *layerAcc { return &layerAcc{samples: map[string][]float64{}} }

func (a *layerAcc) add(name string, v float64) { a.samples[name] = append(a.samples[name], v) }

// account adds one op's end-to-end time and the time the directly
// measured layers take for it.
func (a *layerAcc) account(e2e, work time.Duration) {
	a.e2e += e2e
	a.work += work
}

// report writes each layer metric's per-op median and the unaccounted
// share of the ops' end-to-end time.
func (a *layerAcc) report(layers map[string]float64) {
	for name, v := range a.samples {
		layers[name] = median(v)
	}
	if a.e2e > 0 {
		layers["trace.unaccounted_frac"] = 1 - a.work.Seconds()/a.e2e.Seconds()
	}
}

// check is the layer-sum check: do the directly measured layers explain
// the ops' end-to-end time within ±15%? Reported, not gated.
func (a *layerAcc) check() map[string]any {
	frac := 0.0
	if a.e2e > 0 {
		frac = 1 - a.work.Seconds()/a.e2e.Seconds()
	}
	return map[string]any{
		"e2e_ms": ms(a.e2e), "layers_ms": ms(a.work),
		"unaccounted_frac": frac, "within_15pct": frac <= 0.15 && frac >= -0.15,
	}
}

// meanEntryBytes is the fixture store's mean entry size.
func meanEntryBytes(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("reading fixture: %w", err)
	}
	var total int64
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".json" || e.Name() == "meta.json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, fmt.Errorf("reading fixture: %w", err)
		}
		total += info.Size()
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("fixture %s has no entries", dir)
	}
	return float64(total) / float64(n), nil
}

// spanMedian is the median duration of the spans named name, in ms.
func spanMedian(rec *recorder, name string) float64 {
	var ds []float64
	for _, s := range rec.spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return median(ds)
}
