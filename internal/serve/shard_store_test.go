package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"shelfsim"
	"shelfsim/internal/store"
)

// TestCloseAbandonsQueued pins the Close contract: jobs still queued when
// the server closes are abandoned unexecuted — their waiters receive
// ErrAbandoned (503 over HTTP) — while the job already executing finishes
// and is answered. This is Close-without-Wait: no drain precedes it.
func TestCloseAbandonsQueued(t *testing.T) {
	s := New(Options{Shards: 1, QueueDepth: 4})
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
	})

	var wg sync.WaitGroup
	var executingCode, queuedCode int
	var queuedBody []byte
	wg.Add(2)
	go func() {
		defer wg.Done()
		executingCode, _ = postRun(t, ts.URL, smallReq(0))
	}()
	<-picked // job 0 is executing, held at the gate
	go func() {
		defer wg.Done()
		queuedCode, queuedBody = postRun(t, ts.URL, smallReq(1))
	}()
	waitFor(t, "second job to queue", func() bool { return s.queueLen() == 1 })

	closed := make(chan struct{})
	go func() {
		s.Close() // no Wait first: queued work must be abandoned, not run
		close(closed)
	}()
	// Close blocks on the owner, which is blocked at the gate. Only
	// release the gate once the shard is marked closed, so the owner's
	// next loop iteration must observe the abandonment contract.
	waitFor(t, "shard to close", func() bool {
		sh := s.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.closed
	})
	unblock()
	<-closed
	wg.Wait()

	if executingCode != http.StatusOK {
		t.Errorf("executing job answered HTTP %d, want 200", executingCode)
	}
	if queuedCode != http.StatusServiceUnavailable {
		t.Errorf("abandoned job answered HTTP %d: %s, want 503", queuedCode, queuedBody)
	}
	var eb ErrorBody
	if err := json.Unmarshal(queuedBody, &eb); err != nil || eb.Error != ErrAbandoned.Error() {
		t.Errorf("abandoned error body %s, want %q", queuedBody, ErrAbandoned)
	}
	c := s.Counters()
	if c.Completed != 1 || c.Abandoned != 1 || c.Executed != 1 {
		t.Errorf("counters after close: %+v", c)
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("%d jobs still in flight after Close", n)
	}
}

// TestWaitExpiryLeaksNothing pins the Wait fix: a Wait whose context
// expires must return the deadline error without leaving a goroutine
// behind, and a later Wait must still succeed once the work drains.
func TestWaitExpiryLeaksNothing(t *testing.T) {
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
	go func() {
		defer wg.Done()
		postRun(t, ts.URL, smallReq(0))
	}()
	<-picked

	before := runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		if err := s.Wait(ctx); err == nil {
			t.Fatal("Wait returned nil with a job in flight")
		}
		cancel()
	}
	// The old implementation spawned one helper per Wait call; 64 expired
	// Waits would show up as 64 stuck goroutines here.
	runtime.GC()
	if after := runtime.NumGoroutine(); after > before+8 {
		t.Errorf("goroutines grew from %d to %d across expired Waits", before, after)
	}

	unblock()
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Errorf("Wait after drain: %v", err)
	}
}

// TestSweepBoundedFanout pins the sweep semaphore: a one-shard server
// bounds a sweep to four simultaneous item submissions, so an 8-item
// sweep with executions gated must sit at exactly 4 submissions until
// released, then complete all 8.
func TestSweepBoundedFanout(t *testing.T) {
	s := New(Options{Shards: 1})
	release, unblock := testGate(t)
	s.setExecGate(func(string) { <-release })
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		unblock()
		ts.Close()
		s.Close()
	})
	if got := s.sweepConcurrency(); got != 4 {
		t.Fatalf("one-shard sweep concurrency %d, want 4", got)
	}

	reqs := make([]shelfsim.Request, 8)
	for i := range reqs {
		reqs[i] = smallReq(int64(i))
	}
	body, err := json.Marshal(SweepRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err == nil {
			respCh <- resp
		}
	}()

	waitFor(t, "the fan-out to reach the bound", func() bool {
		return s.Counters().Submitted == 4
	})
	time.Sleep(50 * time.Millisecond)
	if got := s.Counters().Submitted; got != 4 {
		t.Errorf("submissions grew past the semaphore bound: %d", got)
	}

	unblock()
	resp := <-respCh
	defer resp.Body.Close()
	var done StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(bytes.TrimSpace(sc.Bytes()), &ev); err != nil {
			t.Fatalf("malformed event %q: %v", sc.Bytes(), err)
		}
		if ev.Type == "done" {
			done = ev
		}
	}
	if done.Completed != 8 || done.Failed != 0 {
		t.Errorf("done event %+v, want 8 completed", done)
	}
	if c := s.Counters(); c.Submitted != 8 {
		t.Errorf("final submissions %d, want 8", c.Submitted)
	}
}

// TestSweepClientDisconnect pins the dead-connection fix: when the sweep
// client goes away, every item goroutine exits — waiting items are
// released by the context, unsubmitted items are never submitted — and
// nothing keeps encoding into the dead connection.
func TestSweepClientDisconnect(t *testing.T) {
	s := New(Options{Shards: 1})
	release, unblock := testGate(t)
	s.setExecGate(func(string) { <-release })
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		unblock()
		ts.Close()
		s.Close()
	})

	reqs := make([]shelfsim.Request, 8)
	for i := range reqs {
		reqs[i] = smallReq(int64(i))
	}
	body, err := json.Marshal(SweepRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	// Read the accepted event so the stream is known to be live, then
	// hang up with executions still gated.
	rd := bufio.NewReader(resp.Body)
	if _, err := rd.ReadString('\n'); err != nil {
		t.Fatalf("reading accepted event: %v", err)
	}
	waitFor(t, "items to start fanning out", func() bool { return s.sweepItems.Load() > 0 })
	cancel()
	resp.Body.Close()

	// Every sweep-item goroutine must drain with the gate still held: the
	// four submitted items abandon their waits, the four unsubmitted ones
	// never submit.
	waitFor(t, "sweep item goroutines to drain", func() bool { return s.sweepItems.Load() == 0 })
	if got := s.Counters().Submitted; got > 4 {
		t.Errorf("disconnect did not stop the fan-out: %d submissions", got)
	}

	// The gated flights themselves are still in flight by design (dedup
	// waiters and the store may want them); release and drain.
	unblock()
	waitFor(t, "in-flight jobs to finish", func() bool { return s.InFlight() == 0 })
}

// TestStoreRestartDifferential is the acceptance differential for the
// persistent store: a request served from the warm store after a process
// restart must produce a byte-identical response body — same result
// fingerprint, same wire bytes — as the fresh run that first computed it,
// and the cumulative counters must survive the restart via the store's
// meta document.
func TestStoreRestartDifferential(t *testing.T) {
	dir := t.TempDir()
	req := shelfsim.Request{
		Preset:  "shelf64-opt",
		Kernels: []string{"stream", "ptrchase", "branchy", "matblock"},
		Insts:   1_500,
	}

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Shards: 2, Store: st1})
	ts1 := httptest.NewServer(s1)
	code, body := postRun(t, ts1.URL, req)
	if code != http.StatusOK {
		t.Fatalf("fresh run: HTTP %d: %s", code, body)
	}
	fresh := decodeReport(t, body)
	freshBody := body

	// Second submission in the same process: a store hit, not a re-run.
	code, body = postRun(t, ts1.URL, req)
	if code != http.StatusOK {
		t.Fatalf("warm run: HTTP %d: %s", code, body)
	}
	if !bytes.Equal(body, freshBody) {
		t.Errorf("store-hit body differs from the fresh run's:\nfresh: %s\nhit:   %s", freshBody, body)
	}
	if c := s1.Counters(); c.Executed != 1 || c.StoreHits != 1 {
		t.Errorf("first-process counters: %+v, want 1 executed + 1 store hit", c)
	}
	ts1.Close()
	s1.Close() // persists counters into the store meta

	// "Restart": a brand-new server over the same directory.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("store has %d entries after restart, want 1", st2.Len())
	}
	s2 := New(Options{Shards: 2, Store: st2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	code, body = postRun(t, ts2.URL, req)
	if code != http.StatusOK {
		t.Fatalf("post-restart run: HTTP %d: %s", code, body)
	}
	warm := decodeReport(t, body)

	if warm.ResultFingerprint != fresh.ResultFingerprint {
		t.Errorf("post-restart fingerprint %s != fresh %s", warm.ResultFingerprint, fresh.ResultFingerprint)
	}
	if !bytes.Equal(body, freshBody) {
		t.Errorf("post-restart body differs from the fresh run's:\nfresh: %s\nwarm:  %s", freshBody, body)
	}
	c := s2.Counters()
	if c.Executed != 1 {
		t.Errorf("post-restart executed %d, want the restored 1 (nothing re-simulated)", c.Executed)
	}
	if c.StoreHits != 2 || c.Completed != 3 {
		t.Errorf("cumulative counters did not survive the restart: %+v", c)
	}

	// And the stored answer equals a from-scratch in-process run.
	local, err := shelfsim.RunReport(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if local.ResultFingerprint != warm.ResultFingerprint {
		t.Errorf("in-process fingerprint %s != store-served %s", local.ResultFingerprint, warm.ResultFingerprint)
	}

	// The restart must also be visible in /healthz.
	resp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.StoreEntries != 1 || h.Shards != 2 {
		t.Errorf("health after restart: %+v", h)
	}
}

// TestShardOrderingUnderRace proves per-shard ordering: on a one-shard
// server, flights execute in exact submission order even while concurrent
// duplicate submitters hammer the dedup map. Run under -race in CI.
func TestShardOrderingUnderRace(t *testing.T) {
	s := New(Options{Shards: 1, QueueDepth: 32})
	t.Cleanup(func() { s.Close() })

	var mu sync.Mutex
	var executed []string
	release, unblock := testGate(t)
	s.setExecGate(func(key string) {
		mu.Lock()
		executed = append(executed, key)
		mu.Unlock()
		<-release
	})

	// Sequential distinct submissions define the expected ring order.
	const n = 12
	flights := make([]*flight, n)
	want := make([]string, n)
	for i := 0; i < n; i++ {
		f, err := s.submit(smallReq(int64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		flights[i] = f
		want[i] = f.key
	}

	// Concurrent duplicates attach to in-flight entries; none may execute
	// or perturb the order.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.submit(smallReq(int64((w + i) % n))); err != nil {
					t.Errorf("duplicate submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	unblock()
	for _, f := range flights {
		<-f.done
	}

	mu.Lock()
	defer mu.Unlock()
	if len(executed) != n {
		t.Fatalf("%d executions, want %d (duplicates must not execute)", len(executed), n)
	}
	for i := range want {
		if executed[i] != want[i] {
			t.Fatalf("execution order diverged at %d:\ngot  %v\nwant %v", i, executed, want)
		}
	}
	if c := s.Counters(); c.DedupHits != 4*50 || c.Executed != n {
		t.Errorf("counters: %+v", c)
	}
}

// TestStoreHitServesFailedFreshly: simulation failures are never stored —
// only completed reports land on disk — so a store-backed server keeps
// the failure semantics of a fresh one.
func TestStoreHitsOnlyCompletedRuns(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Shards: 1, Store: st})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	code, body := postRun(t, ts.URL, smallReq(0))
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	if st.Len() != 1 {
		t.Errorf("store has %d entries, want 1", st.Len())
	}
	// A distinct request is a store miss and a fresh execution.
	code, _ = postRun(t, ts.URL, smallReq(1))
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	c := s.Counters()
	if c.Executed != 2 || c.StoreHits != 0 {
		t.Errorf("distinct requests shared a store entry: %+v", c)
	}
	stats := st.Stats()
	if stats.Puts != 2 || stats.Misses != 2 {
		t.Errorf("store stats: %+v", stats)
	}
}

// entryPath is where a store rooted at dir files key's entry.
func entryPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:])+".json")
}

// TestAlteredStoreEntryResimulates: a stored entry whose bytes change on
// disk after the server indexed it (here one digit of "cycles") is never
// served. The next request re-simulates and answers with what an
// in-process run of the request computes, and the rewritten entry is
// served again afterwards.
func TestAlteredStoreEntryResimulates(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Shards: 1, Store: st})
	req := smallReq(3)
	local, err := shelfsim.RunReport(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	code, fresh := postRun(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("fresh run: HTTP %d: %s", code, fresh)
	}

	path := entryPath(dir, local.CacheKey)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"cycles":`))
	if i < 0 {
		t.Fatalf("entry %s has no cycles field", path)
	}
	i += len(`"cycles":`)
	if data[i] == '9' {
		data[i] = '1'
	} else {
		data[i]++
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, stage := range []string{"after the alteration", "from the rewritten entry"} {
		code, body := postRun(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", stage, code, body)
		}
		got := decodeReport(t, body)
		if got.ResultFingerprint != local.ResultFingerprint || got.Cycles != local.Cycles {
			t.Errorf("%s: served %s/%d cycles, in-process run %s/%d",
				stage, got.ResultFingerprint, got.Cycles, local.ResultFingerprint, local.Cycles)
		}
		if !bytes.Equal(body, fresh) {
			t.Errorf("%s: body differs from the fresh run's", stage)
		}
	}
	if s := st.Stats(); s.Puts != 2 || s.Hits != 1 || s.Misses != 2 {
		t.Errorf("store stats %+v, want the altered entry missed, re-put and then hit", s)
	}
}

// TestSweepFromWarmStore: a sweep answered from the store streams the same
// result events as the cold sweep that simulated and stored them, each
// carrying the report an in-process run of its request computes.
func TestSweepFromWarmStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Shards: 2, Store: st})
	reqs := []shelfsim.Request{smallReq(0), smallReq(1), smallReq(2)}
	body, err := json.Marshal(SweepRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() map[int]StreamEvent {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		results := map[int]StreamEvent{}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			var ev StreamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("malformed NDJSON line %q: %v", sc.Bytes(), err)
			}
			if ev.Type == "error" {
				t.Fatalf("sweep item failed: %+v", ev)
			}
			if ev.Type == "result" {
				results[ev.Index] = ev
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return results
	}
	cold := sweep()
	warm := sweep()
	if c := s.Counters(); c.Executed != int64(len(reqs)) || c.StoreHits != int64(len(reqs)) {
		t.Fatalf("counters %+v, want the cold sweep executed and the warm one served from the store", c)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm sweep results differ from the cold sweep's:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	for i, req := range reqs {
		local, err := shelfsim.RunReport(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if rep := warm[i].Report; rep == nil || rep.ResultFingerprint != local.ResultFingerprint || rep.Cycles != local.Cycles {
			t.Errorf("warm sweep item %d carried %+v, want the in-process report %s/%d cycles",
				i, rep, local.ResultFingerprint, local.Cycles)
		}
	}
}
