package core_test

import (
	"testing"

	"shelfsim/internal/chip"
	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/isa"
	"shelfsim/internal/workload"
)

// TestSteadyStateAllocationFree pins down the allocation-free cycle loop:
// once the uop freelist, replay rings and scratch buffers have grown to
// steady state, stepping must not allocate at all. It covers every
// steering kind, whose per-decision state lives on the thread, and a
// 2-core lockstep chip stepped by whole epochs, Rebalance included. The
// retire targets freeze the per-thread series trackers (whose histogram
// maps are the one legitimately growing structure) before measurement.
// The chip row uses round-robin allocation: a migration rebuilds a core,
// which allocates by design.
func TestSteadyStateAllocationFree(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	withSteer := func(kind config.SteerKind) config.Config {
		cfg := config.Shelf64(2, true)
		cfg.Steer = kind
		return cfg
	}
	chipCfg := config.Shelf64(2, true)
	chipCfg.NumCores = 2
	chipCfg.ChipLockstep = true
	chipCfg.ChipEpoch = 100
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"practical", config.Shelf64(2, true)},
		{"oracle", withSteer(config.SteerOracle)},
		{"all-shelf", withSteer(config.SteerAllShelf)},
		{"all-iq", config.Base64(2)},
		{"coarse", config.Coarse64(2, 500)},
		{"chip-lockstep", chipCfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := []string{"gups", "stencil", "branchy", "callret"}
			streams := make([]isa.Stream, tc.cfg.Threads*max(tc.cfg.NumCores, 1))
			for i := range streams {
				k, err := workload.ByName(names[i])
				if err != nil {
					t.Fatal(err)
				}
				streams[i] = k.NewStream(uint64(i+1)<<32, uint64(i)+1, -1)
			}
			// Each step advances 100 cycles.
			var step func()
			if tc.cfg.NumCores >= 2 {
				ch, err := chip.New(tc.cfg, streams)
				if err != nil {
					t.Fatal(err)
				}
				ch.SetRetireTargets(1000, 1000)
				step = func() { ch.Step(); ch.Rebalance() }
			} else {
				c, err := core.New(tc.cfg, streams)
				if err != nil {
					t.Fatal(err)
				}
				c.SetRetireTargets(1000, 1000)
				step = func() {
					for i := 0; i < 100; i++ {
						c.Step()
					}
				}
			}
			for i := 0; i < 200; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(50, step); avg > 0 {
				t.Errorf("steady-state cycle loop allocates: %.2f allocs per 100 cycles", avg)
			}
		})
	}
}
