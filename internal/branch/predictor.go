// Package branch implements the front-end branch prediction substrate used
// by the core: a gshare direction predictor and a branch target buffer,
// each maintained per SMT thread (the paper partitions front-end state
// across threads). Returns are predicted through the BTB like any taken
// branch; there is no return address stack.
package branch

import "fmt"

// Config sizes the predictor structures.
type Config struct {
	// GshareBits is log2 of the pattern history table size.
	GshareBits uint
	// BTBEntries is the number of direct-mapped BTB entries.
	BTBEntries int
}

// DefaultConfig returns a predictor comparable to the paper's baseline
// front end.
func DefaultConfig() Config {
	return Config{GshareBits: 14, BTBEntries: 4096}
}

// Validate reports a configuration error, if any.
func (c *Config) Validate() error {
	switch {
	case c.GshareBits == 0 || c.GshareBits > 24:
		return fmt.Errorf("branch: gshare bits %d out of range", c.GshareBits)
	case c.BTBEntries <= 0:
		return fmt.Errorf("branch: non-positive BTB size %d", c.BTBEntries)
	}
	return nil
}

// Stats counts prediction outcomes.
type Stats struct {
	Lookups       uint64
	Mispredicts   uint64
	BTBMisses     uint64
	TakenBranches uint64
}

// MispredictRate returns mispredicts per lookup.
func (s *Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
}

// Predictor is the per-thread front-end predictor state.
type Predictor struct {
	cfg     Config
	pht     []uint8 // 2-bit saturating counters
	history uint64
	btb     []btbEntry
	// Stats is exported for harness reporting.
	Stats Stats
}

// New builds a predictor; it panics on invalid configuration.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Predictor{
		cfg: cfg,
		pht: make([]uint8, 1<<cfg.GshareBits),
		btb: make([]btbEntry, cfg.BTBEntries),
	}
}

func (p *Predictor) phtIndex(pc, history uint64) int {
	mask := uint64(1)<<p.cfg.GshareBits - 1
	return int(((pc >> 2) ^ history) & mask)
}

// Predict returns the predicted direction and target for the branch at pc.
// actualTaken/actualTarget are the trace's resolved outcome; the returned
// mispredict flag tells the core whether executing this branch will trigger
// a squash. The returned token snapshots the global history at prediction
// time; the caller must hand it back to Resolve so training updates the
// entry the prediction actually read (speculative fetches may shift the
// history arbitrarily in between).
func (p *Predictor) Predict(pc uint64, actualTaken bool, actualTarget uint64) (predTaken bool, mispredict bool, token uint64) {
	p.Stats.Lookups++
	token = p.history
	idx := p.phtIndex(pc, token)
	predTaken = p.pht[idx] >= 2

	targetKnown := false
	if predTaken {
		e := &p.btb[int((pc>>2)%uint64(len(p.btb)))]
		if e.valid && e.pc == pc {
			targetKnown = e.target == actualTarget
		}
		if !targetKnown {
			p.Stats.BTBMisses++
		}
	}
	// A prediction is wrong if direction differs, or if predicted taken
	// with an unknown/stale target.
	mispredict = predTaken != actualTaken || (predTaken && actualTaken && !targetKnown)
	if mispredict {
		p.Stats.Mispredicts++
	}
	p.history = (p.history << 1) | boolBit(predTaken)
	return predTaken, mispredict, token
}

// Resolve trains the predictor with the true outcome at branch resolution
// and, on a mispredict, repairs the global history to the correct path.
// token is the history snapshot Predict returned for this branch.
func (p *Predictor) Resolve(pc uint64, taken bool, target uint64, mispredicted bool, token uint64) {
	idx := p.phtIndex(pc, token)
	if taken {
		p.Stats.TakenBranches++
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
		e := &p.btb[int((pc>>2)%uint64(len(p.btb)))]
		*e = btbEntry{pc: pc, target: target, valid: true}
	} else if p.pht[idx] > 0 {
		p.pht[idx]--
	}
	if mispredicted {
		// Rebuild the history as of this branch, resolved correctly; any
		// younger speculative bits belong to squashed fetches.
		p.history = (token << 1) | boolBit(taken)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
