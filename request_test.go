package shelfsim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// intp/i64p/boolp/strp build override pointers.
func intp(v int) *int       { return &v }
func i64p(v int64) *int64   { return &v }
func boolp(v bool) *bool    { return &v }
func strp(v string) *string { return &v }

// TestRequestJSONRoundTripFingerprint is the wire-identity guarantee: a
// Request that travels through JSON (as it does to shelfd and back)
// resolves to the identical configuration fingerprint and harness cache
// key as the original, so server-side dedup and the in-process run cache
// agree on what "the same run" means.
func TestRequestJSONRoundTripFingerprint(t *testing.T) {
	cfgBase := Shelf64(2, true)
	reqs := []Request{
		{
			Preset:  "shelf64-opt",
			Kernels: []string{"stream", "ptrchase", "branchy", "matblock"},
			Insts:   50_000,
		},
		{
			Preset:  "base64",
			Threads: 2,
			Kernels: []string{"ilpmax", "fpdense"},
			Insts:   10_000,
			Warmup:  i64p(1_000),
			Overrides: &Overrides{
				Steer:     strp("all-shelf"),
				Shelf:     intp(64),
				IQ:        intp(16),
				Telemetry: boolp(true),
				Name:      strp("ablated"),
			},
		},
		{
			Preset:    "coarse64",
			Kernels:   []string{"matblock"},
			Insts:     5_000,
			Overrides: &Overrides{CoarseInterval: i64p(500)},
		},
		{
			Config:  &cfgBase,
			Kernels: []string{"stream", "branchy"},
			Insts:   7_000,
			Warmup:  i64p(0),
		},
	}
	for i, req := range reqs {
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("req %d: marshal: %v", i, err)
		}
		var back Request
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("req %d: unmarshal: %v", i, err)
		}
		key, err := req.CacheKey()
		if err != nil {
			t.Fatalf("req %d: cache key: %v", i, err)
		}
		backKey, err := back.CacheKey()
		if err != nil {
			t.Fatalf("req %d: round-tripped cache key: %v", i, err)
		}
		if key != backKey {
			t.Errorf("req %d: cache key drifted through JSON:\n  %s\n  %s", i, key, backKey)
		}
		rv, err := req.Resolve()
		if err != nil {
			t.Fatalf("req %d: resolve: %v", i, err)
		}
		rvBack, err := back.Resolve()
		if err != nil {
			t.Fatalf("req %d: round-tripped resolve: %v", i, err)
		}
		if fp, fpBack := rv.Config.Fingerprint(), rvBack.Config.Fingerprint(); fp != fpBack {
			t.Errorf("req %d: config fingerprint drifted: %s vs %s", i, fp, fpBack)
		}
	}
}

// TestRequestResolveFieldErrors checks that every invalid request is
// rejected with a typed *FieldError naming the offending field — the
// contract shelfd relies on to map bad requests to 400s.
func TestRequestResolveFieldErrors(t *testing.T) {
	cfg := Base64(2)
	cases := []struct {
		name  string
		req   Request
		field string
	}{
		{"no preset or config", Request{Kernels: []string{"stream"}, Insts: 100}, "preset"},
		{"unknown preset", Request{Preset: "base96", Kernels: []string{"stream"}, Insts: 100}, "preset"},
		{"preset and config", Request{Preset: "base64", Config: &cfg, Kernels: []string{"stream", "branchy"}, Insts: 100}, "preset"},
		{"no workload", Request{Preset: "base64", Threads: 2, Insts: 100}, "kernels"},
		{"kernel count mismatch", Request{Preset: "base64", Threads: 2, Kernels: []string{"stream"}, Insts: 100}, "kernels"},
		{"unknown kernel", Request{Preset: "base64", Kernels: []string{"nope"}, Insts: 100}, "kernels"},
		{"thread contradiction", Request{Config: &cfg, Threads: 3, Kernels: []string{"a", "b", "c"}, Insts: 100}, "threads"},
		{"zero insts", Request{Preset: "base64", Kernels: []string{"stream"}}, "insts"},
		{"negative warmup", Request{Preset: "base64", Kernels: []string{"stream"}, Insts: 100, Warmup: i64p(-1)}, "warmup"},
		{"bad steer override", Request{Preset: "base64", Kernels: []string{"stream"}, Insts: 100,
			Overrides: &Overrides{Steer: strp("sideways")}}, "overrides.steer"},
		{"invalid config after override", Request{Preset: "base64", Kernels: []string{"stream"}, Insts: 100,
			Overrides: &Overrides{ROB: intp(-4)}}, "ROB"},
	}
	for _, tc := range cases {
		_, err := tc.req.Resolve()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: field %q, want %q (%v)", tc.name, fe.Field, tc.field, err)
		}
	}
}

// TestResolveRejectsSplitLineSizes: a config whose cache levels disagree
// on the line size is a *FieldError naming the line size at Resolve,
// not a memory-hierarchy panic at Run.
func TestResolveRejectsSplitLineSizes(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Mem.L1D.LineBytes", func(c *Config) { c.Mem.L1D.LineBytes = 32 }},
		{"Mem.L2.LineBytes", func(c *Config) { c.Mem.L2.LineBytes = 128 }},
	} {
		cfg := Base64(1)
		tc.mutate(&cfg)
		_, err := Request{Config: &cfg, Kernels: []string{"stream"}, Insts: 100}.Resolve()
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("want a *FieldError naming %s, got %v", tc.field, err)
		}
	}
}

// TestRunPresetMatchesEmbeddedConfig checks the two ways of naming a
// configuration are one run: a preset and the embedded config it resolves
// to produce bit-identical results for the same workload.
func TestRunPresetMatchesEmbeddedConfig(t *testing.T) {
	cfg := Shelf64(2, true)
	kernels := []string{"matblock", "branchy"}
	embedded, err := Run(context.Background(), Request{
		Config: &cfg, Kernels: kernels, Warmup: i64p(200), Insts: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	preset, err := Run(context.Background(), Request{
		Preset: "shelf64-opt", Kernels: kernels, Warmup: i64p(200), Insts: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if embedded.Fingerprint() != preset.Fingerprint() {
		t.Errorf("embedded config and preset diverge: %s vs %s", embedded.Fingerprint(), preset.Fingerprint())
	}
}

// TestRunContextCancel: an already-cancelled context aborts the run with a
// structured *SimError instead of hanging.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Request{Preset: "base64", Kernels: []string{"stream"}, Insts: 1_000_000})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SimError", err)
	}
}
