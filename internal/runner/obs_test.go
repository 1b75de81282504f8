package runner

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/obs"
	"shelfsim/internal/workload"
)

// telemetryHash executes job and returns an FNV-1a hash over its
// telemetry's JSON export followed by its CSV export, with the result.
func telemetryHash(t *testing.T, job Job) (string, *core.Result) {
	t.Helper()
	res, simErr := (&Runner{}).Execute(context.Background(), job)
	if simErr != nil {
		t.Fatal(simErr)
	}
	var buf bytes.Buffer
	if err := res.Obs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.Obs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64()), res
}

// TestTelemetryPinned pins the exported telemetry bytes of three runs on
// mix00: a 4-thread shelf64-opt core; a 2-core ICOUNT chip whose threads
// migrate, so the chip's closed-segment merge is covered; and the first
// run again with an event-stream observer attached, which must not change
// what the collector sees. The pins predate the collector reading the
// core's event stream.
func TestTelemetryPinned(t *testing.T) {
	const (
		pinCore = "413d7f90f63d6bbb"
		pinChip = "2eff7980dc80b641"
	)
	mix := workload.PaperMixes(4)[0]
	cfg := config.Shelf64(4, true)
	cfg.Telemetry = true
	job := Job{Config: cfg, Mix: mix, Warmup: 500, Measure: 1500}
	if got, _ := telemetryHash(t, job); got != pinCore {
		t.Errorf("core telemetry hash %s, pinned %s", got, pinCore)
	}

	chipCfg := chipTestCfg()
	chipCfg.Telemetry = true
	got, res := telemetryHash(t, Job{Config: chipCfg, Mix: mix, Warmup: 500, Measure: 1500})
	if res.Obs.ChipMigrations == 0 {
		t.Error("chip run migrated no thread; the closed-segment merge went untested")
	}
	if got != pinChip {
		t.Errorf("chip telemetry hash %s, pinned %s", got, pinChip)
	}

	var events int
	job.Attach = func(c *core.Core) { c.SetObserver(func(obs.Event) { events++ }) }
	if got, _ := telemetryHash(t, job); got != pinCore {
		t.Errorf("core telemetry hash with an observer attached %s, pinned %s", got, pinCore)
	}
	if events == 0 {
		t.Error("attached observer received no events")
	}
}

// TestTelemetryOffNoCollector checks the default path stays telemetry-free:
// no collector on the result.
func TestTelemetryOffNoCollector(t *testing.T) {
	job := Job{Config: config.Shelf64(2, true), Mix: testMixes(2, 1)[0], Warmup: 100, Measure: 500}
	res, simErr := (&Runner{}).Execute(context.Background(), job)
	if simErr != nil {
		t.Fatalf("run failed: %v", simErr)
	}
	if res.Obs != nil {
		t.Error("telemetry collected with Config.Telemetry unset")
	}
}
