package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer: its name
// ("layer.call"), start and end in nanoseconds since the recorder started,
// the index of the span that caused it (-1 for an op's root) and the op
// it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. Only the benchmark's
// own goroutine records, so it needs no locking. A nil *recorder records
// nothing, which is how untraced runs pay no tracing cost.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	s := &r.spans[id]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span and returns its duration; with a nil
// recorder it only times fn.
func (r *recorder) timed(name string, parent, op int, fn func()) time.Duration {
	if r == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := r.begin(name, parent, op)
	fn()
	return r.end(id)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children count
// once; parts of a child outside the parent do not count).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type interval struct{ a, b int64 }
	ivs := make([]interval, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if b > a {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	var cur interval
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a > cur.b:
			total += cur.b - cur.a
			cur = v
		case v.b > cur.b:
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// selfTable sums self time by span name, in milliseconds.
func selfTable(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e6
	}
	return out
}

// maxSpansWritten caps the spans written to the trace artifact; the
// self-time table always covers every span recorded.
const maxSpansWritten = 200_000

// writeTrace writes the run's spans, the self-time table by span name and
// the run's layer accounting as one JSON document.
func writeTrace(path string, spans []span, doc map[string]any) error {
	kept := spans
	if len(kept) > maxSpansWritten {
		kept = kept[:maxSpansWritten]
	}
	doc["spans_total"] = len(spans)
	doc["spans_written"] = len(kept)
	doc["self_ms"] = selfTable(spans)
	doc["spans"] = kept
	blob, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
