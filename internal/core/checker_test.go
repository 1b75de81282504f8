package core_test

import (
	"testing"

	"shelfsim/internal/core"
	"shelfsim/internal/litmus"
)

// TestLoadToLoadStreamPassesChecker runs the litmus checker over the
// event stream of the load-to-load forwarding workload: the axioms accept
// the shelf load's forward from a younger IQ load, and the checker counts
// exactly one such forward.
func TestLoadToLoadStreamPassesChecker(t *testing.T) {
	cfg, streams := core.LoadToLoadWorkload()
	c, err := core.New(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	ch := litmus.NewChecker(cfg.Threads)
	c.SetObserver(ch.Observe)
	if _, ok := c.Run(10_000); !ok {
		t.Fatal("run did not finish")
	}
	if v := ch.Violations(); len(v) != 0 {
		t.Fatalf("checker rejected the stream: %v", v)
	}
	if st := ch.Stats(); st.LoadFwdLoad != 1 {
		t.Fatalf("checker saw %d load-to-load forwards, want 1 (stats %+v)", st.LoadFwdLoad, st)
	}
}
