package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"shelfsim"
)

// SweepRequest is the /v1/sweep body: a batch of simulation requests
// executed through the same shard/dedup machinery as /v1/run, with
// results streamed back as they complete.
type SweepRequest struct {
	Requests []shelfsim.Request `json:"requests"`
}

// maxSweepItems bounds one sweep submission.
const maxSweepItems = 4096

// sweepConcurrency bounds one sweep's simultaneous item submissions: a
// 4096-item sweep must not spawn 4096 goroutines all camping on the
// shards at once. Scaled to the shard count so a big server still fans
// out, clamped so a one-shard test server stays deterministic.
func (s *Server) sweepConcurrency() int {
	n := 2 * len(s.shards)
	if n < 4 {
		n = 4
	}
	if n > 64 {
		n = 64
	}
	return n
}

// StreamEvent is one NDJSON line of a /v1/sweep response. The stream opens
// with an "accepted" event (Total set), carries one "result" or "error"
// event per request in completion order (Index identifies the request in
// the submitted batch), and closes with a "done" summary.
type StreamEvent struct {
	Type      string           `json:"type"`
	Index     int              `json:"index"`
	Total     int              `json:"total,omitempty"`
	Completed int              `json:"completed,omitempty"`
	Failed    int              `json:"failed,omitempty"`
	Report    *shelfsim.Report `json:"report,omitempty"`
	Error     string           `json:"error,omitempty"`
	Field     string           `json:"field,omitempty"`
	// Line and Col locate assembler diagnostics (1-based) when Field names
	// a program in the failed item.
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
}

// handleSweep is POST /v1/sweep: NDJSON progress streaming for long
// sweeps. Items share in-flight executions with each other and with
// concurrent /v1/run submissions (the dedup layer is common), a full
// inbox delays items instead of failing them, and the fan-out is bounded
// by a semaphore. A client disconnect (or any write failure) cancels the
// sweep: waiting items are released, unsubmitted items are never
// submitted, and the event loop stops encoding into a dead connection.
// Simulations already executing keep running — deduplicated waiters and
// the persistent store still want their results.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "POST a serve.SweepRequest"})
		return
	}
	var sweep SweepRequest
	if err := s.decodeRequest(w, r, &sweep); err != nil {
		s.counters.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody(fmt.Errorf("decoding sweep: %w", err)))
		return
	}
	if len(sweep.Requests) == 0 {
		s.counters.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "empty sweep", Field: "requests"})
		return
	}
	if len(sweep.Requests) > maxSweepItems {
		s.counters.badRequests.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorBody{
			Error: fmt.Sprintf("sweep of %d requests exceeds the %d-item limit", len(sweep.Requests), maxSweepItems),
			Field: "requests",
		})
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	// events is buffered to the full batch size so item goroutines can
	// always deliver their outcome and exit, even after the consumer below
	// has stopped reading on a dead connection.
	events := make(chan StreamEvent, len(sweep.Requests))
	sem := make(chan struct{}, s.sweepConcurrency())
	var wg sync.WaitGroup
	for i := range sweep.Requests {
		wg.Add(1)
		s.sweepItems.Add(1)
		go func(idx int, req shelfsim.Request) {
			defer wg.Done()
			defer s.sweepItems.Add(-1)
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				events <- StreamEvent{Type: "error", Index: idx, Error: ctx.Err().Error()}
				return
			}
			// A canceled waiter releasing its slot can make the acquire
			// above win a race against ctx.Done; never submit after cancel.
			if err := ctx.Err(); err != nil {
				events <- StreamEvent{Type: "error", Index: idx, Error: err.Error()}
				return
			}
			events <- s.runSweepItem(ctx, idx, req)
		}(i, sweep.Requests[i])
	}
	go func() {
		wg.Wait()
		close(events)
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	writeEvent := func(ev StreamEvent) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	if writeEvent(StreamEvent{Type: "accepted", Total: len(sweep.Requests)}) != nil {
		return
	}
	completed, failed := 0, 0
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				_ = writeEvent(StreamEvent{
					Type: "done", Total: len(sweep.Requests),
					Completed: completed, Failed: failed,
				})
				return
			}
			if ev.Type == "result" {
				completed++
			} else {
				failed++
			}
			if writeEvent(ev) != nil {
				// Dead connection: stop encoding and cancel the rest of
				// the sweep. Item goroutines drain into the buffered
				// channel and exit on their own.
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// runSweepItem submits one sweep item and waits for its outcome.
func (s *Server) runSweepItem(ctx context.Context, idx int, req shelfsim.Request) StreamEvent {
	s.counters.submitted.Add(1)
	f, err := s.submitRetry(ctx, req)
	if err != nil {
		body := errorBody(err)
		return StreamEvent{Type: "error", Index: idx, Error: body.Error, Field: body.Field, Line: body.Line, Col: body.Col}
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		return StreamEvent{Type: "error", Index: idx, Error: ctx.Err().Error()}
	}
	err = f.err
	var rep shelfsim.Report
	if err == nil {
		rep, err = shelfsim.DecodeReport(f.body)
	}
	if err != nil {
		body := errorBody(err)
		return StreamEvent{Type: "error", Index: idx, Error: body.Error, Field: body.Field, Line: body.Line, Col: body.Col}
	}
	return StreamEvent{Type: "result", Index: idx, Report: &rep}
}
