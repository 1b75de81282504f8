package shelfsim_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"shelfsim"
	"shelfsim/client"
	"shelfsim/internal/runner"
	"shelfsim/internal/serve"
)

// TestWindowFidelity is the window property every result path keeps: a
// result covers the warmup and measurement window its request names. The
// same request runs through runner.Execute (single-core and 2-core chip),
// shelfsim.Run and a served client.Run, over several windows; every thread
// must retire at least the requested window, and a served report's cache
// key must name the requested window.
func TestWindowFidelity(t *testing.T) {
	s := serve.New(serve.Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := client.New(ts.URL)
	r := &runner.Runner{}

	kernels := []string{"stream", "ptrchase", "branchy", "matblock"}
	cores := 2
	shapes := map[string]shelfsim.Request{
		"single-core": {Preset: "shelf64-opt", Kernels: kernels},
		"chip":        {Preset: "shelf64-opt", Kernels: kernels, Overrides: &shelfsim.Overrides{Cores: &cores}},
	}
	for _, w := range []struct{ warmup, insts int64 }{{0, 300}, {150, 300}, {400, 1000}, {1000, 1500}} {
		for shape, req := range shapes {
			warmup := w.warmup
			req.Warmup, req.Insts = &warmup, w.insts
			name := fmt.Sprintf("%s/%d/%d", shape, w.warmup, w.insts)

			rv, err := req.Resolve()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, simErr := r.Execute(context.Background(), runner.Job{
				Config: rv.Config, Mix: rv.Mix, Warmup: rv.Warmup, Measure: rv.Insts,
			})
			if simErr != nil {
				t.Fatalf("%s: Execute: %v", name, simErr)
			}
			checkWindow(t, name+" Execute", retired(res.Threads), w.insts)

			inProc, err := shelfsim.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
			checkWindow(t, name+" Run", retired(inProc.Threads), w.insts)

			rep, err := c.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: served: %v", name, err)
			}
			var served []int64
			for _, tr := range rep.Threads {
				served = append(served, tr.Retired)
			}
			checkWindow(t, name+" served", served, w.insts)
			if suffix := fmt.Sprintf("/%d/%d", w.warmup, w.insts); !strings.HasSuffix(rep.CacheKey, suffix) {
				t.Errorf("%s served: cache key %q does not end in the requested window %s", name, rep.CacheKey, suffix)
			}
		}
	}
}

func retired(threads []shelfsim.ThreadResult) []int64 {
	out := make([]int64, len(threads))
	for i, tr := range threads {
		out[i] = tr.Retired
	}
	return out
}

// checkWindow fails unless every thread retired at least the window.
func checkWindow(t *testing.T, path string, retired []int64, insts int64) {
	t.Helper()
	if len(retired) == 0 {
		t.Errorf("%s: no thread results", path)
	}
	for i, n := range retired {
		if n < insts {
			t.Errorf("%s: thread %d retired %d of a %d window", path, i, n, insts)
		}
	}
}
