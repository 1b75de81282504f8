package branch

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bads := []Config{
		{GshareBits: 0, BTBEntries: 8},
		{GshareBits: 30, BTBEntries: 8},
		{GshareBits: 10, BTBEntries: 0},
	}
	for i, cfg := range bads {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLearnsAlwaysTakenLoop(t *testing.T) {
	p := New(DefaultConfig())
	const pc, target = 0x1000, 0x800
	lateMisses := 0
	for i := 0; i < 100; i++ {
		_, misp, tok := p.Predict(pc, true, target)
		p.Resolve(pc, true, target, misp, tok)
		// The global history needs GshareBits iterations to saturate to
		// its steady pattern before the PHT index stabilizes.
		if i >= 2*int(p.cfg.GshareBits) && misp {
			lateMisses++
		}
	}
	if lateMisses != 0 {
		t.Errorf("predictor failed to learn an always-taken branch: %d late misses", lateMisses)
	}
}

func TestLearnsAlternatingPattern(t *testing.T) {
	p := New(DefaultConfig())
	const pc, target = 0x2000, 0x400
	lateMisses := 0
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		_, misp, tok := p.Predict(pc, taken, target)
		p.Resolve(pc, taken, target, misp, tok)
		if i >= 200 && misp {
			lateMisses++
		}
	}
	// Gshare resolves alternation through history; allow a small tail.
	if lateMisses > 10 {
		t.Errorf("alternating pattern not learned: %d late misses", lateMisses)
	}
}

func TestTokenTrainsCorrectEntryUnderSpeculativeShifts(t *testing.T) {
	p := New(DefaultConfig())
	const pc, target = 0x3000, 0x100
	// Interleave extra speculative predictions (other branches) between
	// this branch's prediction and its resolution; training must still
	// converge because resolution uses the history token.
	lateMisses := 0
	for i := 0; i < 200; i++ {
		_, misp, tok := p.Predict(pc, true, target)
		for j := 0; j < 3; j++ {
			p.Predict(uint64(0x9000+16*j), j%2 == 0, 0x50)
		}
		p.Resolve(pc, true, target, misp, tok)
		if i >= 50 && misp {
			lateMisses++
		}
	}
	if lateMisses > 150 {
		t.Errorf("token-based training ineffective: %d late misses", lateMisses)
	}
}

func TestBTBAliasingCausesTargetMisses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BTBEntries = 16 // force aliasing
	p := New(cfg)
	pcA, pcB := uint64(0x4000), uint64(0x4000+4*16) // same BTB slot
	for i := 0; i < 100; i++ {
		_, mA, tA := p.Predict(pcA, true, 0x111)
		p.Resolve(pcA, true, 0x111, mA, tA)
		_, mB, tB := p.Predict(pcB, true, 0x222)
		p.Resolve(pcB, true, 0x222, mB, tB)
	}
	if p.Stats.BTBMisses == 0 {
		t.Error("aliasing branches should produce BTB target misses")
	}
}

func TestRandomOutcomesMispredictHeavily(t *testing.T) {
	p := New(DefaultConfig())
	const pc = 0x5000
	seed := uint64(12345)
	misses := 0
	const n = 2000
	for i := 0; i < n; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		taken := seed>>63 == 1
		_, misp, tok := p.Predict(pc, taken, 0x10)
		p.Resolve(pc, taken, 0x10, misp, tok)
		if misp {
			misses++
		}
	}
	rate := float64(misses) / n
	if rate < 0.25 || rate > 0.75 {
		t.Errorf("random-outcome mispredict rate = %.2f, want near 0.5", rate)
	}
}

func TestMispredictRateStat(t *testing.T) {
	var s Stats
	if s.MispredictRate() != 0 {
		t.Error("idle predictor rate should be 0")
	}
	s.Lookups, s.Mispredicts = 10, 1
	if got := s.MispredictRate(); got != 0.1 {
		t.Errorf("rate = %g, want 0.1", got)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New should panic on invalid config")
		}
	}()
	New(Config{})
}

// Property: prediction and resolution never index out of bounds for
// arbitrary PCs and histories.
func TestNoPanicsProperty(t *testing.T) {
	p := New(Config{GshareBits: 6, BTBEntries: 16})
	f := func(pc uint64, taken bool, target uint64) bool {
		_, misp, tok := p.Predict(pc, taken, target)
		p.Resolve(pc, taken, target, misp, tok)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
