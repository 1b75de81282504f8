package shelfsim

import (
	"context"
	"errors"
	"testing"
)

func TestRunKernelsQuick(t *testing.T) {
	cfg := Shelf64(2, true)
	res, err := Run(context.Background(), Request{
		Config: &cfg, Kernels: []string{"matblock", "branchy"}, Warmup: i64p(200), Insts: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("threads: %d", len(res.Threads))
	}
	for i, tr := range res.Threads {
		if tr.Retired != 500 || tr.CPI <= 0 {
			t.Errorf("thread %d: %+v", i, tr)
		}
	}
	if res.Stats.ShelfIssues == 0 {
		t.Error("practical steering should use the shelf")
	}
}

func TestRunKernelsByName(t *testing.T) {
	res, err := Run(context.Background(), Request{
		Preset: "base64", Kernels: []string{"ilpmax", "fpdense"}, Insts: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "base64" {
		t.Errorf("config = %q", res.Config)
	}
}

// TestRunSingle runs one kernel alone on a single-threaded core (full,
// unpartitioned resources), the normalization point for STP.
func TestRunSingle(t *testing.T) {
	res, err := Run(context.Background(), Request{
		Preset: "base64", Kernels: []string{"matblock"}, Insts: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 1 {
		t.Fatalf("single run has %d threads", len(res.Threads))
	}
	if res.Threads[0].Retired != 500 {
		t.Errorf("single thread retired %d, want 500", res.Threads[0].Retired)
	}
}

func TestRunMixErrors(t *testing.T) {
	one, two := Base64(1), Base64(2)
	cases := []struct {
		name  string
		req   Request
		field string
	}{
		{"kernel count mismatch", Request{Config: &two, Kernels: []string{"matblock"}, Insts: 100}, "kernels"},
		{"unknown kernel", Request{Config: &one, Kernels: []string{"nope"}, Insts: 100}, "kernels"},
		{"zero insts", Request{Config: &one, Kernels: []string{"matblock"}}, "insts"},
		{"negative warmup", Request{Config: &one, Kernels: []string{"matblock"}, Warmup: i64p(-1), Insts: 100}, "warmup"},
	}
	for _, tc := range cases {
		_, err := Run(context.Background(), tc.req)
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: got %v, want a *FieldError on %q", tc.name, err, tc.field)
		}
	}
}

func TestPresetAccessors(t *testing.T) {
	if len(Kernels()) < 10 {
		t.Error("kernel suite missing")
	}
	if len(PaperMixes(4)) != 28 {
		t.Error("paper mixes missing")
	}
	for _, cfg := range []Config{Base64(4), Base128(4), Shelf64(4, true), Shelf64(4, false)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}
