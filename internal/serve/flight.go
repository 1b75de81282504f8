package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"shelfsim"
	"shelfsim/internal/obs"
	"shelfsim/internal/runner"
)

// errQueueFull and errDraining are the two backpressure rejections; both
// surface as 429 + Retry-After.
var (
	errQueueFull = errors.New("serve: job queue full")
	errDraining  = errors.New("serve: draining, not admitting jobs")
)

// ErrAbandoned is the typed failure delivered to waiters of jobs that
// were still queued when the server closed: the job was never executed
// and never will be. Over HTTP it surfaces as 503.
var ErrAbandoned = errors.New("serve: server closed before the job executed")

// flight is one admitted simulation and everyone waiting on it. Duplicate
// submissions with the same cache key attach to the existing flight
// instead of queueing a second execution; the shard owner publishes the
// report (or error) and closes done, releasing every waiter at once.
type flight struct {
	key  string
	rv   shelfsim.Resolved
	done chan struct{}

	// body (the report's compact wire JSON) and err are written by the
	// executing shard owner before done is closed; waiters read them only
	// after <-done.
	body []byte
	err  error
}

// submit validates and admits one request: it either attaches to an
// identical in-flight job (dedup), enqueues a new flight on the cache
// key's shard, or rejects with errDraining / errQueueFull / a
// *FieldError. The hot path takes exactly one lock — the owning shard's.
func (s *Server) submit(req shelfsim.Request) (*flight, error) {
	rv, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	key := rv.CacheKey()
	sh := s.shardFor(key)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.draining.Load() || sh.closed {
		return nil, errDraining
	}
	if f, ok := sh.flights[key]; ok {
		s.counters.dedupHits.Add(1)
		return f, nil
	}
	if sh.full() {
		return nil, errQueueFull
	}
	f := &flight{key: key, rv: rv, done: make(chan struct{})}
	sh.push(f)
	sh.flights[key] = f
	s.jobBegin()
	sh.cond.Signal()
	return f, nil
}

// submitRetry is submit with bounded retry on queue-full, for sweep
// submissions that should ride out transient pressure instead of failing
// items. Drain and validation failures are returned immediately.
func (s *Server) submitRetry(ctx context.Context, req shelfsim.Request) (*flight, error) {
	backoff := 5 * time.Millisecond
	for {
		f, err := s.submit(req)
		if !errors.Is(err, errQueueFull) {
			return f, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 80*time.Millisecond {
			backoff *= 2
		}
	}
}

// unregister removes a finished (or abandoned) flight from its shard's
// dedup map. It must happen before the result is published: a duplicate
// arriving after this point starts a fresh submission — which the
// persistent store, if attached, answers from disk — instead of attaching
// to a finished flight.
func (s *Server) unregister(sh *shard, f *flight) {
	sh.mu.Lock()
	delete(sh.flights, f.key)
	sh.mu.Unlock()
}

// publish releases a flight's waiters and retires its accounting.
func (s *Server) publish(f *flight) {
	close(f.done)
	s.jobEnd()
}

// abandon fails a never-executed flight with ErrAbandoned (its shard has
// already unregistered it) so every waiter is released.
func (s *Server) abandon(f *flight) {
	f.err = ErrAbandoned
	s.counters.abandoned.Add(1)
	s.publish(f)
}

// execute runs one flight to completion and releases its waiters: a
// persistent-store hit is answered with the entry's digest-checked bytes
// without simulating or decoding; otherwise the job runs under a
// background context — a deduplicated flight may outlive any single
// submitter, so its lifetime is bounded by the runner's wall-clock timeout
// and cycle budget, not by client disconnects — and the fresh report is
// encoded once, the same bytes going to the store and to every waiter.
func (s *Server) execute(sh *shard, f *flight) {
	if gate := s.execGate.Load(); gate != nil {
		(*gate)(f.key)
	}
	if s.store != nil {
		if body, ok := s.store.GetBytes(f.key); ok {
			f.body = body
			s.counters.storeHits.Add(1)
			s.counters.completed.Add(1)
			s.unregister(sh, f)
			s.publish(f)
			return
		}
	}
	s.counters.executed.Add(1)
	res, simErr := s.run.Execute(context.Background(), runner.Job{
		Config:   f.rv.Config,
		Mix:      f.rv.Mix,
		Programs: f.rv.Programs,
		Warmup:   f.rv.Warmup,
		Measure:  f.rv.Insts,
	})

	var err error
	if simErr != nil {
		err = simErr
	} else if f.body, err = json.Marshal(shelfsim.NewReport(f.rv, *res)); err != nil {
		err = fmt.Errorf("serve: encoding report: %w", err)
	}
	if err != nil {
		f.err = err
		s.counters.failed.Add(1)
	} else {
		s.counters.completed.Add(1)
		if s.store != nil {
			if err := s.store.PutBytes(f.key, f.body); err != nil {
				s.counters.storePutErrs.Add(1)
			}
		}
		if res.Obs != nil {
			s.telemetryMu.Lock()
			if s.telemetry == nil {
				s.telemetry = obs.New()
			}
			s.telemetry.Merge(res.Obs)
			s.telemetryMu.Unlock()
		}
	}
	s.unregister(sh, f)
	s.publish(f)
}
