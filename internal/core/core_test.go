package core

import (
	"testing"

	"shelfsim/internal/config"
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
	"shelfsim/internal/workload"
)

// sliceStream replays a fixed instruction slice (micro-test workloads).
type sliceStream struct {
	name  string
	insts []isa.Inst
	pos   int
}

func (s *sliceStream) Name() string { return s.name }
func (s *sliceStream) Next(out *isa.Inst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*out = s.insts[s.pos]
	s.pos++
	return true
}

func noSrcs() [isa.MaxSrcs]int16 {
	return [isa.MaxSrcs]int16{isa.RegInvalid, isa.RegInvalid, isa.RegInvalid}
}

func srcs(rs ...int16) [isa.MaxSrcs]int16 {
	out := noSrcs()
	copy(out[:], rs)
	return out
}

// program builds a PC-sequenced instruction list.
type program struct {
	insts []isa.Inst
	pc    uint64
}

func newProgram() *program { return &program{pc: 0x1000} }

func (p *program) add(in isa.Inst) *program {
	in.PC = p.pc
	p.pc += 4
	p.insts = append(p.insts, in)
	return p
}

func (p *program) alu(dest int16, from ...int16) *program {
	return p.add(isa.Inst{Op: isa.OpIntAlu, Dest: dest, Srcs: srcs(from...)})
}

func (p *program) div(dest int16, from ...int16) *program {
	return p.add(isa.Inst{Op: isa.OpIntDiv, Dest: dest, Srcs: srcs(from...)})
}

func (p *program) load(dest int16, addr uint64) *program {
	return p.add(isa.Inst{Op: isa.OpLoad, Dest: dest, Srcs: noSrcs(), Addr: addr, Size: 8})
}

func (p *program) store(data int16, addr uint64) *program {
	return p.add(isa.Inst{Op: isa.OpStore, Dest: isa.RegInvalid, Srcs: srcs(data), Addr: addr, Size: 8})
}

func (p *program) barrier() *program {
	return p.add(isa.Inst{Op: isa.OpBarrier, Dest: isa.RegInvalid, Srcs: noSrcs()})
}

func (p *program) stream(name string) isa.Stream {
	return &sliceStream{name: name, insts: p.insts}
}

// run executes a core until done with periodic invariant checks.
func run(t *testing.T, c *Core, maxCycles int64) {
	t.Helper()
	for !c.Done() {
		c.Step()
		if c.Cycle()%64 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c.Cycle(), err)
			}
		}
		if c.Cycle() > maxCycles {
			t.Fatalf("did not finish in %d cycles\n%s", maxCycles, c.DebugDump())
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("final: %v", err)
	}
}

// kernelStreams instantiates workload kernels with bounded length.
func kernelStreams(t *testing.T, names []string, n int64) []isa.Stream {
	t.Helper()
	out := make([]isa.Stream, len(names))
	for i, name := range names {
		k, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = k.NewStream(uint64(i+1)<<32, uint64(i)+1, n)
	}
	return out
}

func allConfigs(threads int) []config.Config {
	shelfOracle := config.Shelf64(threads, true)
	shelfOracle.Steer = config.SteerOracle
	shelfOracle.Name = "shelf64-oracle"
	shelfAll := config.Shelf64(threads, true)
	shelfAll.Steer = config.SteerAllShelf
	shelfAll.Name = "shelf64-allshelf"
	return []config.Config{
		config.Base64(threads),
		config.Base128(threads),
		config.Shelf64(threads, false),
		config.Shelf64(threads, true),
		shelfOracle,
		shelfAll,
	}
}

func TestAllConfigsRunToCompletion(t *testing.T) {
	names := []string{"branchy", "gups", "matblock", "prodcons"}
	for _, cfg := range allConfigs(4) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			c, err := New(cfg, kernelStreams(t, names, 1500))
			if err != nil {
				t.Fatal(err)
			}
			run(t, c, 2_000_000)
			for i := range names {
				if got := c.RetiredOf(i); got != 1500 {
					t.Errorf("thread %d retired %d, want 1500", i, got)
				}
			}
			if !c.WindowEmpty() {
				t.Error("window not drained at completion")
			}
			// Conservation: every pool register / extension tag is either
			// free or held by a drained architectural mapping.
			pri, ext := c.FreeListSizes()
			heldPri, heldExt := c.HeldByRAT()
			capPri, capExt := c.FreeListCapacities()
			if pri+heldPri != capPri {
				t.Errorf("physical registers leaked: free %d + held %d != %d",
					pri, heldPri, capPri)
			}
			if ext+heldExt != capExt {
				t.Errorf("extension tags leaked: free %d + held %d != %d",
					ext, heldExt, capExt)
			}
		})
	}
}

func TestSingleThreadConfigs(t *testing.T) {
	for _, cfg := range allConfigs(1) {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			c, err := New(cfg, kernelStreams(t, []string{"stencil"}, 2000))
			if err != nil {
				t.Fatal(err)
			}
			run(t, c, 2_000_000)
			if c.RetiredOf(0) != 2000 {
				t.Errorf("retired %d", c.RetiredOf(0))
			}
		})
	}
}

// TestAllIQEquivalence: a shelf-equipped core that steers everything to
// the IQ must behave cycle-identically to the baseline.
func TestAllIQEquivalence(t *testing.T) {
	names := []string{"branchy", "stream", "matblock", "hashprobe"}
	base, err := New(config.Base64(4), kernelStreams(t, names, 1200))
	if err != nil {
		t.Fatal(err)
	}
	run(t, base, 2_000_000)

	cfg := config.Shelf64(4, true)
	cfg.Steer = config.SteerAllIQ
	cfg.Name = "shelf-alliq"
	hybrid, err := New(cfg, kernelStreams(t, names, 1200))
	if err != nil {
		t.Fatal(err)
	}
	run(t, hybrid, 2_000_000)

	if base.Cycle() != hybrid.Cycle() {
		t.Errorf("all-IQ steering must match baseline cycles: %d vs %d",
			base.Cycle(), hybrid.Cycle())
	}
	bs, hs := base.Stats(), hybrid.Stats()
	if bs.Issues != hs.Issues || bs.Squashes != hs.Squashes {
		t.Errorf("stats diverge: issues %d/%d squashes %d/%d",
			bs.Issues, hs.Issues, bs.Squashes, hs.Squashes)
	}
}

func TestDeterminism(t *testing.T) {
	names := []string{"gups", "branchy", "ilpmax", "sortish"}
	cycles := make([]int64, 2)
	for i := range cycles {
		c, err := New(config.Shelf64(4, true), kernelStreams(t, names, 1000))
		if err != nil {
			t.Fatal(err)
		}
		run(t, c, 2_000_000)
		cycles[i] = c.Cycle()
	}
	if cycles[0] != cycles[1] {
		t.Errorf("non-deterministic: %d vs %d cycles", cycles[0], cycles[1])
	}
}

// TestAllShelfIssuesInOrder: with everything shelved, each thread must
// issue strictly in program order.
func TestAllShelfIssuesInOrder(t *testing.T) {
	cfg := config.Shelf64(2, true)
	cfg.Steer = config.SteerAllShelf
	cfg.Name = "allshelf"
	lastSeq := map[int]int64{}
	c, err := New(cfg, kernelStreams(t, []string{"matblock", "reduce"}, 1000))
	if err != nil {
		t.Fatal(err)
	}
	c.SetObserver(func(ev obs.Event) {
		if ev.Kind != obs.EvIssue {
			return
		}
		if !ev.ToShelf {
			t.Errorf("IQ issue under all-shelf steering (t%d seq %d)", ev.Tid, ev.Seq)
		}
		if prev, ok := lastSeq[ev.Tid]; ok && ev.Seq <= prev {
			t.Errorf("thread %d issued seq %d after %d", ev.Tid, ev.Seq, prev)
		}
		lastSeq[ev.Tid] = ev.Seq
	})
	run(t, c, 2_000_000)
}

// TestAllShelfNotFasterThanOOO: in-order issue can never beat the
// out-of-order baseline on a reorder-friendly workload.
func TestAllShelfNotFasterThanOOO(t *testing.T) {
	names := []string{"stencil"}
	base, err := New(config.Base64(1), kernelStreams(t, names, 2000))
	if err != nil {
		t.Fatal(err)
	}
	run(t, base, 2_000_000)

	cfg := config.Shelf64(1, true)
	cfg.Steer = config.SteerAllShelf
	cfg.Name = "allshelf"
	ino, err := New(cfg, kernelStreams(t, names, 2000))
	if err != nil {
		t.Fatal(err)
	}
	run(t, ino, 2_000_000)

	if ino.Cycle() < base.Cycle() {
		t.Errorf("all-shelf (%d cycles) beat OOO (%d cycles)", ino.Cycle(), base.Cycle())
	}
}

func TestBase128NotSlowerOnWindowBound(t *testing.T) {
	names := []string{"gups", "gups", "gups", "gups"}
	b64, err := New(config.Base64(4), kernelStreams(t, names, 1500))
	if err != nil {
		t.Fatal(err)
	}
	run(t, b64, 4_000_000)
	b128, err := New(config.Base128(4), kernelStreams(t, names, 1500))
	if err != nil {
		t.Fatal(err)
	}
	run(t, b128, 4_000_000)
	if b128.Cycle() > b64.Cycle()*11/10 {
		t.Errorf("doubled core much slower on window-bound code: %d vs %d",
			b128.Cycle(), b64.Cycle())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(config.Config{}, nil); err == nil {
		t.Error("invalid config accepted")
	}
	cfg := config.Base64(2)
	if _, err := New(cfg, kernelStreams(t, []string{"gups"}, 10)); err == nil {
		t.Error("stream count mismatch accepted")
	}
	if _, err := New(cfg, []isa.Stream{nil, nil}); err == nil {
		t.Error("nil streams accepted")
	}
	bad := config.Base64(1)
	bad.Steer = config.SteerPractical // no shelf
	if _, err := New(bad, kernelStreams(t, []string{"gups"}, 10)); err == nil {
		t.Error("practical steering without a shelf accepted")
	}
}

func TestRetireTargetsAndWarmup(t *testing.T) {
	c, err := New(config.Base64(1), kernelStreams(t, []string{"matblock"}, -1)[:1])
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetireTargets(500, 1000)
	if _, finished := c.Run(2_000_000); !finished {
		t.Fatal("run did not finish")
	}
	res := c.Result()
	tr := res.Threads[0]
	if tr.Retired != 1000 {
		t.Errorf("measured retired = %d, want 1000", tr.Retired)
	}
	if tr.CPI <= 0 {
		t.Errorf("CPI = %g", tr.CPI)
	}
}

func TestResultFields(t *testing.T) {
	c, err := New(config.Shelf64(2, true), kernelStreams(t, []string{"matblock", "branchy"}, 800))
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, 2_000_000)
	res := c.Result()
	if res.Config != "shelf64-opt" {
		t.Errorf("config name %q", res.Config)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("thread results: %d", len(res.Threads))
	}
	for i, tr := range res.Threads {
		if tr.Workload == "" || tr.Retired == 0 || tr.CPI <= 0 {
			t.Errorf("thread %d result incomplete: %+v", i, tr)
		}
		if tr.InSeqFraction < 0 || tr.InSeqFraction > 1 {
			t.Errorf("thread %d in-seq fraction %g", i, tr.InSeqFraction)
		}
		if tr.Series == nil {
			t.Errorf("thread %d missing series tracker", i)
		}
	}
	if res.Stats.IPC() <= 0 {
		t.Error("IPC not positive")
	}
	if res.Stats.AvgOccupancy(res.Stats.ROBOccupancy) <= 0 {
		t.Error("ROB occupancy not positive")
	}
}
