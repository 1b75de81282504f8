package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shelfsim"
)

// newTestServer builds a Server + httptest front end. The caller must
// release any execGate it installs before the test returns, or Cleanup
// deadlocks waiting for in-flight handlers.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// smallReq builds a distinct, fast request; vary n for distinct cache keys.
func smallReq(n int64) shelfsim.Request {
	return shelfsim.Request{Preset: "base64", Kernels: []string{"stream"}, Insts: 200 + n}
}

func postRun(t *testing.T, base string, req shelfsim.Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return postRaw(t, base, string(body))
}

func postRaw(t *testing.T, base string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, out
}

func decodeReport(t *testing.T, body []byte) shelfsim.Report {
	t.Helper()
	rep, err := shelfsim.DecodeReport(body)
	if err != nil {
		t.Fatalf("decoding report: %v\nbody: %s", err, body)
	}
	return rep
}

// testGate returns a channel for execution gates to block on and an
// idempotent release, registered as a cleanup: a Fatalf while a job is
// held at the gate must not leave the teardown (httptest Close waiting on
// the handler, which waits on the gated flight) deadlocked.
func testGate(t *testing.T) (chan struct{}, func()) {
	t.Helper()
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	return release, unblock
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBurst32Concurrent is the load-shape the service is built for: 32
// concurrent distinct submissions, every one answered 200 with a
// well-formed versioned report, and the counters accounting for each.
func TestBurst32Concurrent(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	const n = 32
	var wg sync.WaitGroup
	reports := make([]shelfsim.Report, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postRun(t, ts.URL, smallReq(int64(i)))
			if code != http.StatusOK {
				t.Errorf("request %d: HTTP %d: %s", i, code, body)
				return
			}
			reports[i] = decodeReport(t, body)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, rep := range reports {
		if rep.SchemaVersion != shelfsim.SchemaVersion || rep.ResultFingerprint == "" || rep.CacheKey == "" {
			t.Errorf("request %d: incomplete report: %+v", i, rep)
		}
	}
	c := s.Counters()
	if c.Submitted != n || c.Completed != n || c.Failed != 0 {
		t.Errorf("counters after burst: %+v", c)
	}
	if c.Executed+c.DedupHits != n {
		t.Errorf("executed %d + dedup %d != %d", c.Executed, c.DedupHits, n)
	}
}

// TestDedupSharesExecution pins the dedup contract: N identical concurrent
// submissions run the simulation once, every waiter gets the same report.
// A single gated worker holds the job in flight while the duplicates
// arrive, so the dedup window is deterministic.
func TestDedupSharesExecution(t *testing.T) {
	s := New(Options{Shards: 1})
	release, unblock := testGate(t)
	s.setExecGate(func(string) { <-release })
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		unblock()
		ts.Close()
		s.Close()
	})

	const n = 8
	req := smallReq(0)
	var wg sync.WaitGroup
	fingerprints := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postRun(t, ts.URL, req)
			if code != http.StatusOK {
				t.Errorf("request %d: HTTP %d: %s", i, code, body)
				return
			}
			fingerprints[i] = decodeReport(t, body).ResultFingerprint
		}(i)
	}

	waitFor(t, "all duplicates to attach", func() bool {
		c := s.Counters()
		return c.Submitted == n && c.DedupHits == n-1
	})
	unblock()
	wg.Wait()
	if t.Failed() {
		return
	}

	c := s.Counters()
	if c.Executed != 1 || c.Completed != 1 || c.DedupHits != n-1 {
		t.Errorf("dedup counters: %+v", c)
	}
	for i := 1; i < n; i++ {
		if fingerprints[i] != fingerprints[0] {
			t.Errorf("waiter %d got fingerprint %s, waiter 0 got %s", i, fingerprints[i], fingerprints[0])
		}
	}
}

// TestQueueFullRejects429: with one gated worker and a one-deep queue, a
// third distinct submission must be rejected immediately with 429 and a
// Retry-After hint, not block.
func TestQueueFullRejects429(t *testing.T) {
	s := New(Options{Shards: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	picked := make(chan string, 4)
	release, unblock := testGate(t)
	s.setExecGate(func(key string) {
		picked <- key
		<-release
	})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		unblock()
		ts.Close()
		s.Close()
	})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code, body := postRun(t, ts.URL, smallReq(int64(i))); code != http.StatusOK {
				t.Errorf("admitted request %d: HTTP %d: %s", i, code, body)
			}
		}(i)
	}
	// The worker holds one job at the gate and the queue holds one more.
	<-picked
	waitFor(t, "queue to fill", func() bool { return s.queueLen() == 1 })

	body, _ := json.Marshal(smallReq(99))
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submission: HTTP %d: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After header %q, want %q", ra, "2")
	}
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.RetryAfterMs != 2000 {
		t.Errorf("429 body %s (err %v), want retry_after_ms 2000", raw, err)
	}
	if c := s.Counters(); c.RejectedQueueFull != 1 {
		t.Errorf("counters: %+v, want one queue-full rejection", c)
	}

	unblock()
	wg.Wait()
}

// TestDrain pins graceful shutdown: after BeginDrain, new submissions get
// 429, /healthz reports draining, the in-flight job still completes and is
// answered, and Wait returns once it has.
func TestDrain(t *testing.T) {
	s := New(Options{Shards: 1})
	release, unblock := testGate(t)
	picked := make(chan string, 1)
	s.setExecGate(func(key string) {
		picked <- key
		<-release
	})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		unblock()
		ts.Close()
		s.Close()
	})

	var wg sync.WaitGroup
	wg.Add(1)
	var inFlightCode int
	var inFlightBody []byte
	go func() {
		defer wg.Done()
		inFlightCode, inFlightBody = postRun(t, ts.URL, smallReq(0))
	}()
	<-picked

	s.BeginDrain()

	if code, body := postRun(t, ts.URL, smallReq(1)); code != http.StatusTooManyRequests {
		t.Errorf("submission while draining: HTTP %d: %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding health: %v", err)
	}
	resp.Body.Close()
	if h.Status != "draining" {
		t.Errorf("health status %q while draining", h.Status)
	}

	unblock()
	wg.Wait()
	if inFlightCode != http.StatusOK {
		t.Errorf("in-flight job answered HTTP %d: %s", inFlightCode, inFlightBody)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Errorf("Wait after drain: %v", err)
	}
	if c := s.Counters(); c.RejectedDraining != 1 || c.Completed != 1 {
		t.Errorf("counters after drain: %+v", c)
	}
}

// TestBadRequest400Field: invalid requests answer 400 with the offending
// field attributed in the error envelope.
func TestBadRequest400Field(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"unknown preset", `{"preset":"base96","kernels":["stream"],"insts":100}`, "preset"},
		{"unknown kernel", `{"preset":"base64","kernels":["nope"],"insts":100}`, "kernels"},
		{"zero insts", `{"preset":"base64","kernels":["stream"]}`, "insts"},
		{"bad steer override", `{"preset":"base64","kernels":["stream"],"insts":100,"overrides":{"steer":"sideways"}}`, "overrides.steer"},
		{"unknown wire field", `{"preset":"base64","kernels":["stream"],"insts":100,"wat":1}`, ""},
		{"not json", `{`, ""},
	}
	for _, tc := range cases {
		code, body := postRaw(t, ts.URL, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d: %s", tc.name, code, body)
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Errorf("%s: undecodable error body %s", tc.name, body)
			continue
		}
		if eb.Field != tc.field {
			t.Errorf("%s: field %q, want %q (%s)", tc.name, eb.Field, tc.field, eb.Error)
		}
	}
	if c := s.Counters(); c.BadRequests != int64(len(cases)) {
		t.Errorf("bad-request counter %d, want %d", c.BadRequests, len(cases))
	}

	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: HTTP %d", resp.StatusCode)
	}
}

// TestSplitLineSizes400Field: an embedded config whose cache levels
// disagree on the line size is a 400 naming the line size, not a
// simulation failure.
func TestSplitLineSizes400Field(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := shelfsim.Base64(1)
	cfg.Mem.L1D.LineBytes = 32
	raw, err := json.Marshal(shelfsim.Request{Config: &cfg, Kernels: []string{"stream"}, Insts: 100})
	if err != nil {
		t.Fatal(err)
	}
	code, body := postRaw(t, ts.URL, string(raw))
	var eb ErrorBody
	if code != http.StatusBadRequest || json.Unmarshal(body, &eb) != nil || eb.Field != "Mem.L1D.LineBytes" {
		t.Fatalf("HTTP %d: %s", code, body)
	}
}

// TestRemovedConfigFieldsRejected: the single-SSR and no-SSR ablations
// left config.Config, and so did the branch predictor's RASEntries, so
// an embedded config that still names one of them is a strict-decode
// schema violation (400), while the same config without it runs.
func TestRemovedConfigFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cfg := shelfsim.Shelf64(1, true)
	raw, err := json.Marshal(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := func(extra string) string {
		return `{"config":` + strings.TrimSuffix(string(raw), "}") + extra +
			`},"kernels":["stream"],"insts":100}`
	}
	if code, resp := postRaw(t, ts.URL, body("")); code != http.StatusOK {
		t.Fatalf("control config: HTTP %d: %s", code, resp)
	}
	for _, field := range []string{"SingleSSR", "AblateNoSSR"} {
		code, resp := postRaw(t, ts.URL, body(`,"`+field+`":false`))
		if code != http.StatusBadRequest || !strings.Contains(string(resp), field) {
			t.Errorf("config naming %s: HTTP %d: %s", field, code, resp)
		}
	}
	branch := fmt.Sprintf(`"Branch":{"GshareBits":%d,"BTBEntries":%d`, cfg.Branch.GshareBits, cfg.Branch.BTBEntries)
	if !strings.Contains(string(raw), branch+"}") {
		t.Fatalf("encoded config has no %s}: %s", branch, raw)
	}
	withRAS := strings.Replace(string(raw), branch+"}", branch+`,"RASEntries":16}`, 1)
	code, resp := postRaw(t, ts.URL, `{"config":`+withRAS+`,"kernels":["stream"],"insts":100}`)
	if code != http.StatusBadRequest || !strings.Contains(string(resp), "RASEntries") {
		t.Errorf("config naming Branch.RASEntries: HTTP %d: %s", code, resp)
	}
}

// TestSweepNDJSONStream drives /v1/sweep end to end: an accepted header
// event, one result per request (duplicates deduplicated against each
// other), and a done summary — all as parseable NDJSON lines.
func TestSweepNDJSONStream(t *testing.T) {
	s := New(Options{})
	release, unblock := testGate(t)
	s.setExecGate(func(string) { <-release })
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		unblock()
		ts.Close()
		s.Close()
	})

	// Four items, two identical: the pair must share one execution.
	sweep := SweepRequest{Requests: []shelfsim.Request{
		smallReq(0), smallReq(0), smallReq(1), smallReq(2),
	}}
	body, err := json.Marshal(sweep)
	if err != nil {
		t.Fatal(err)
	}
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()

	waitFor(t, "sweep items to be admitted", func() bool {
		c := s.Counters()
		return c.Submitted == 4 && c.DedupHits == 1
	})
	unblock()

	var resp *http.Response
	select {
	case resp = <-respCh:
	case err := <-errCh:
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("sweep content type %q", ct)
	}

	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("malformed NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) != 6 {
		t.Fatalf("got %d events, want accepted + 4 results + done: %+v", len(events), events)
	}
	if events[0].Type != "accepted" || events[0].Total != 4 {
		t.Errorf("first event %+v, want accepted/4", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Completed != 4 || last.Failed != 0 {
		t.Errorf("final event %+v, want done with 4 completed", last)
	}
	seen := map[int]string{}
	for _, ev := range events[1 : len(events)-1] {
		if ev.Type != "result" || ev.Report == nil {
			t.Errorf("mid-stream event %+v, want a result with report", ev)
			continue
		}
		seen[ev.Index] = ev.Report.ResultFingerprint
	}
	if len(seen) != 4 {
		t.Errorf("result indexes %v, want 0-3", seen)
	}
	if seen[0] != seen[1] {
		t.Errorf("duplicate items 0 and 1 diverged: %s vs %s", seen[0], seen[1])
	}
	if c := s.Counters(); c.Executed != 3 || c.DedupHits != 1 {
		t.Errorf("sweep counters: %+v", c)
	}

	// Degenerate sweeps are 400s attributed to the requests field.
	code, raw := func() (int, []byte) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"requests":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}()
	var eb ErrorBody
	if code != http.StatusBadRequest || json.Unmarshal(raw, &eb) != nil || eb.Field != "requests" {
		t.Errorf("empty sweep: HTTP %d body %s", code, raw)
	}
}

// TestServedResultMatchesInProcess is the acceptance differential: the
// report served over HTTP must carry the same result fingerprint, config
// fingerprint and cache key as an in-process run of the identical Request.
func TestServedResultMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := shelfsim.Request{
		Preset:  "shelf64-opt",
		Kernels: []string{"stream", "ptrchase", "branchy", "matblock"},
		Insts:   2_000,
	}
	code, body := postRun(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	served := decodeReport(t, body)

	local, err := shelfsim.RunReport(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if served.ResultFingerprint != local.ResultFingerprint {
		t.Errorf("served result fingerprint %s != in-process %s",
			served.ResultFingerprint, local.ResultFingerprint)
	}
	if served.ConfigFingerprint != local.ConfigFingerprint {
		t.Errorf("served config fingerprint %s != in-process %s",
			served.ConfigFingerprint, local.ConfigFingerprint)
	}
	if served.CacheKey != local.CacheKey || served.CacheKey == "" {
		t.Errorf("served cache key %q != in-process %q", served.CacheKey, local.CacheKey)
	}
	if served.Cycles != local.Cycles {
		t.Errorf("served cycles %d != in-process %d", served.Cycles, local.Cycles)
	}
}

// TestServedChipRequest drives an N-core chip job end to end through the
// server: a JSON request with chip overrides (cores, allocation policy)
// must resolve, simulate on the parallel chip path, serve a well-formed
// report, and fingerprint identically to the same request run in-process
// — the chip variant of the serve determinism contract.
func TestServedChipRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cores := 2
	alloc := "icount"
	req := shelfsim.Request{
		Preset:  "shelf64-opt",
		Threads: 2,
		Kernels: []string{"stream", "ptrchase", "branchy", "matblock"}, // 2 per core
		Insts:   1_500,
		Overrides: &shelfsim.Overrides{
			Cores: &cores,
			Alloc: &alloc,
		},
	}
	code, body := postRun(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	served := decodeReport(t, body)
	if n := len(served.Threads); n != 4 {
		t.Fatalf("served chip report has %d threads, want 4 (threads x cores)", n)
	}

	local, err := shelfsim.RunReport(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if served.ResultFingerprint != local.ResultFingerprint {
		t.Errorf("served chip result fingerprint %s != in-process %s",
			served.ResultFingerprint, local.ResultFingerprint)
	}
	if served.CacheKey != local.CacheKey || served.CacheKey == "" {
		t.Errorf("served chip cache key %q != in-process %q", served.CacheKey, local.CacheKey)
	}

	// A chip request with a mismatched workload count must be a 400 field
	// error, not a simulation failure.
	bad := req
	bad.Kernels = bad.Kernels[:3]
	bad.Threads = 0
	if code, body := postRun(t, ts.URL, bad); code != http.StatusBadRequest {
		t.Errorf("mismatched chip workload: HTTP %d, want 400: %s", code, body)
	}
}

// TestMetricsTelemetry: a telemetry-enabled job's snapshot is merged into
// /metrics, alongside the live counters and health identity fields.
func TestMetricsTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Options{Shards: 2})
	tele := true
	req := shelfsim.Request{
		Preset:    "base64",
		Kernels:   []string{"branchy"},
		Insts:     500,
		Overrides: &shelfsim.Overrides{Telemetry: &tele},
	}
	if code, body := postRun(t, ts.URL, req); code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	if m.Counters.Completed != 1 || m.Counters.Submitted != 1 {
		t.Errorf("metrics counters: %+v", m.Counters)
	}
	if m.Telemetry == nil || m.Telemetry.Cycles == 0 {
		t.Errorf("telemetry snapshot missing from metrics: %+v", m.Telemetry)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatalf("decoding health: %v", err)
	}
	if h.Status != "ok" || h.Shards != 2 || h.SchemaVersion != shelfsim.SchemaVersion {
		t.Errorf("health: %+v", h)
	}
}
