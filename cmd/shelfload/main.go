// Command shelfload is the in-repo load harness for shelfd: it drives a
// running server through the typed client with a deterministic mixed
// hot/cold request sweep — a small hot set of requests submitted over and
// over (exercising in-flight dedup and the persistent store) interleaved
// with cold, never-repeated requests (forcing fresh simulations) — and
// publishes the serving-layer benchmark document consumed by CI's
// BENCH_serve.json gate: p50/p99 latency, throughput, store hit rate and
// dedup hit rate, measured as /metrics deltas so a warm server or a CI
// rerun does not skew the rates.
//
//	shelfload -addr 127.0.0.1:8080 -n 200 -conc 8 -hot 0.8 -out BENCH_serve.json
//
// Every pair of identical requests is also checked for result-fingerprint
// identity (the determinism contract must survive load). -warmup-frac
// excludes the schedule's cold leading fraction from the latency
// percentiles (those requests still run and count for errors, determinism
// and hit rates), and -differential
// re-runs one hot request in-process and requires the served fingerprint
// to match — the restart differential when pointed at a warm store.
// -min-store-hits and -min-store-hit-rate turn the run into a smoke gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"shelfsim"
	"shelfsim/client"
)

// result is one completed request's measurement.
type result struct {
	insts       int64
	hot         bool
	warmup      bool
	latency     time.Duration
	fingerprint string
	err         error
}

// Bench is the BENCH_serve.json document.
type Bench struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	HotFraction float64 `json:"hot_fraction"`
	HotSet      int     `json:"hot_set"`
	Insts       int64   `json:"insts"`
	// WarmupFrac is the leading fraction of the schedule excluded from the
	// latency percentiles; Measured is the request count they cover.
	WarmupFrac float64 `json:"warmup_frac,omitempty"`
	Measured   int     `json:"measured"`

	WallMs        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`

	StoreHits    int64   `json:"store_hits"`
	StoreHitRate float64 `json:"store_hit_rate"`
	DedupHits    int64   `json:"dedup_hits"`
	DedupHitRate float64 `json:"dedup_hit_rate"`
	Executed     int64   `json:"executed"`
	Errors       int     `json:"errors"`
}

func main() {
	var (
		addr     = flag.String("addr", "", "shelfd address (host:port, required)")
		n        = flag.Int("n", 200, "total requests")
		conc     = flag.Int("conc", 8, "concurrent clients")
		hotFrac  = flag.Float64("hot", 0.8, "fraction of requests drawn from the hot set")
		hotSet   = flag.Int("hotset", 4, "distinct requests in the hot set")
		insts    = flag.Int64("insts", 2000, "measured instructions per request (hot/cold windows derive from it)")
		preset   = flag.String("preset", "base64", "configuration preset for every request")
		kernel   = flag.String("kernel", "stream", "kernel for every request (single-thread workloads)")
		seed     = flag.Int64("seed", 1, "schedule RNG seed")
		out      = flag.String("out", "", "write the benchmark JSON here (default stdout only)")
		timeout  = flag.Duration("timeout", 5*time.Minute, "whole-run deadline")
		diff     = flag.Bool("differential", false, "re-run one hot request in-process and require fingerprint identity with the served result")
		minHits  = flag.Int64("min-store-hits", -1, "fail unless the run produced at least this many store hits (-1 disables)")
		minRate  = flag.Float64("min-store-hit-rate", -1, "fail unless the store hit rate reaches this (-1 disables)")
		warmFrac = flag.Float64("warmup-frac", 0, "exclude this leading fraction of the schedule from the latency percentiles (cold server ramp-up; the requests still count for errors and hit rates)")
	)
	flag.Parse()
	if *addr == "" {
		log.Fatal("shelfload: -addr is required")
	}
	if *hotSet < 1 || *n < 1 || *conc < 1 {
		log.Fatal("shelfload: -n, -conc and -hotset must be positive")
	}
	if *warmFrac < 0 || *warmFrac >= 1 {
		log.Fatal("shelfload: -warmup-frac must be in [0, 1)")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New("http://" + *addr)

	// The deterministic schedule: request i is hot with probability
	// -hot (drawn from -hotset distinct windows) and otherwise a cold,
	// never-repeated window. Windows, not workloads, vary: insts is part
	// of the cache key, so distinct windows are distinct jobs.
	rng := rand.New(rand.NewSource(*seed))
	type item struct {
		req    shelfsim.Request
		hot    bool
		warmup bool
	}
	// The leading -warmup-frac of the schedule is the measurement warmup:
	// those requests run (and count for errors, determinism and hit rates)
	// but their latencies — dominated by cold store, cold dedup table and
	// scheduler ramp-up — stay out of the percentiles.
	warmupCount := int(*warmFrac * float64(*n))
	schedule := make([]item, *n)
	for i := range schedule {
		req := shelfsim.Request{Preset: *preset, Kernels: []string{*kernel}}
		if rng.Float64() < *hotFrac {
			req.Insts = *insts + int64(rng.Intn(*hotSet))
			schedule[i] = item{req: req, hot: true}
		} else {
			req.Insts = *insts + 10_000 + int64(i)
			schedule[i] = item{req: req, hot: false}
		}
		schedule[i].warmup = i < warmupCount
	}

	before, err := c.Metrics(ctx)
	if err != nil {
		log.Fatalf("shelfload: reading /metrics before the run: %v", err)
	}

	// Drive the schedule through a bounded worker pool; 429s ride the
	// retry policy instead of failing the run.
	work := make(chan item)
	results := make([]result, 0, *n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	startAll := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			policy := client.NewRetryPolicy()
			for it := range work {
				start := time.Now()
				rep, err := policy.Run(ctx, c, it.req)
				r := result{insts: it.req.Insts, hot: it.hot, warmup: it.warmup, latency: time.Since(start), err: err}
				if err == nil {
					r.fingerprint = rep.ResultFingerprint
				}
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	for _, it := range schedule {
		work <- it
	}
	close(work)
	wg.Wait()
	wall := time.Since(startAll)

	after, err := c.Metrics(ctx)
	if err != nil {
		log.Fatalf("shelfload: reading /metrics after the run: %v", err)
	}

	// Determinism under load: identical requests must fingerprint
	// identically, whether they were simulated, deduplicated or served
	// from the store.
	fps := make(map[int64]string)
	errs := 0
	for _, r := range results {
		if r.err != nil {
			errs++
			log.Printf("shelfload: request insts=%d failed: %v", r.insts, r.err)
			continue
		}
		if prev, ok := fps[r.insts]; ok && prev != r.fingerprint {
			log.Fatalf("shelfload: request insts=%d fingerprint diverged: %s vs %s", r.insts, prev, r.fingerprint)
		}
		fps[r.insts] = r.fingerprint
	}

	lat := make([]time.Duration, 0, len(results))
	succeeded := 0
	for _, r := range results {
		if r.err != nil {
			continue
		}
		succeeded++
		if !r.warmup {
			lat = append(lat, r.latency)
		}
	}
	if succeeded == 0 {
		log.Fatal("shelfload: no request succeeded")
	}
	if len(lat) == 0 {
		log.Fatal("shelfload: -warmup-frac excluded every successful request from measurement")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lat)-1))
		return float64(lat[idx].Microseconds()) / 1000
	}

	dc := after.Counters
	bc := before.Counters
	served := dc.Completed - bc.Completed
	submitted := dc.Submitted - bc.Submitted
	bench := Bench{
		Requests:    *n,
		Concurrency: *conc,
		HotFraction: *hotFrac,
		HotSet:      *hotSet,
		Insts:       *insts,
		WarmupFrac:  *warmFrac,
		Measured:    len(lat),

		WallMs:        float64(wall.Microseconds()) / 1000,
		ThroughputRPS: float64(succeeded) / wall.Seconds(),
		P50Ms:         pct(0.50),
		P99Ms:         pct(0.99),
		MaxMs:         float64(lat[len(lat)-1].Microseconds()) / 1000,

		StoreHits: dc.StoreHits - bc.StoreHits,
		DedupHits: dc.DedupHits - bc.DedupHits,
		Executed:  dc.Executed - bc.Executed,
		Errors:    errs,
	}
	if served > 0 {
		bench.StoreHitRate = float64(bench.StoreHits) / float64(served)
	}
	if submitted > 0 {
		bench.DedupHitRate = float64(bench.DedupHits) / float64(submitted)
	}

	doc, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		log.Fatalf("shelfload: encoding benchmark: %v", err)
	}
	fmt.Println(string(doc))
	if *out != "" {
		if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
			log.Fatalf("shelfload: writing %s: %v", *out, err)
		}
	}

	if *diff {
		// The served-vs-in-process differential on one hot request: when
		// the server answered from a warm store, this proves a restart
		// lost no determinism.
		req := shelfsim.Request{Preset: *preset, Kernels: []string{*kernel}, Insts: *insts}
		local, err := shelfsim.RunReport(ctx, req)
		if err != nil {
			log.Fatalf("shelfload: in-process differential run: %v", err)
		}
		servedFP, ok := fps[req.Insts]
		if !ok {
			// The schedule may not have drawn hot window 0; fetch it now.
			rep, err := c.Run(ctx, req)
			if err != nil {
				log.Fatalf("shelfload: fetching differential request: %v", err)
			}
			servedFP = rep.ResultFingerprint
		}
		if servedFP != local.ResultFingerprint {
			log.Fatalf("shelfload: differential failed: served fingerprint %s != in-process %s",
				servedFP, local.ResultFingerprint)
		}
		log.Printf("shelfload: differential ok (%s)", servedFP)
	}

	if errs > 0 {
		log.Fatalf("shelfload: %d requests failed", errs)
	}
	if *minHits >= 0 && bench.StoreHits < *minHits {
		log.Fatalf("shelfload: %d store hits, want >= %d", bench.StoreHits, *minHits)
	}
	if *minRate >= 0 && bench.StoreHitRate < *minRate {
		log.Fatalf("shelfload: store hit rate %.3f, want >= %.3f", bench.StoreHitRate, *minRate)
	}
}
