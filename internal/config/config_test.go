package config

import "testing"

func TestPresetsValid(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8} {
		for _, cfg := range []Config{
			Base64(threads),
			Base128(threads),
			Shelf64(threads, false),
			Shelf64(threads, true),
		} {
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s (%d threads): %v", cfg.Name, threads, err)
			}
		}
	}
}

func TestPresetShapes(t *testing.T) {
	b := Base64(4)
	if b.ROB != 64 || b.IQ != 32 || b.Shelf != 0 || b.Steer != SteerAllIQ {
		t.Errorf("Base64 shape wrong: %+v", b)
	}
	d := Base128(4)
	if d.ROB != 128 || d.IQ != 64 {
		t.Errorf("Base128 shape wrong: %+v", d)
	}
	s := Shelf64(4, true)
	if s.Shelf != 64 || !s.OptimisticShelf || s.Steer != SteerPractical {
		t.Errorf("Shelf64 shape wrong: %+v", s)
	}
	if c := Shelf64(4, false); c.OptimisticShelf || c.Name != "shelf64-cons" {
		t.Errorf("conservative preset wrong: %+v", c)
	}
}

func TestPerThreadHelpers(t *testing.T) {
	cfg := Shelf64(4, true)
	if cfg.ROBPerThread() != 16 {
		t.Errorf("ROB/thread = %d, want 16", cfg.ROBPerThread())
	}
	if cfg.LQPerThread() != 8 || cfg.SQPerThread() != 8 {
		t.Error("LQ/SQ partitions wrong")
	}
	if cfg.ShelfPerThread() != 16 {
		t.Errorf("shelf/thread = %d, want 16", cfg.ShelfPerThread())
	}
	noShelf := Base64(4)
	if noShelf.ShelfPerThread() != 0 {
		t.Error("no-shelf config must report 0 per-thread shelf")
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"threads0", func(c *Config) { c.Threads = 0 }},
		{"threads9", func(c *Config) { c.Threads = 9 }},
		{"width0", func(c *Config) { c.Width = 0 }},
		{"frontend0", func(c *Config) { c.FetchToDispatch = 0 }},
		{"robSmall", func(c *Config) { c.ROB = 2; c.Threads = 4 }},
		{"robIndivisible", func(c *Config) { c.ROB = 66 }},
		{"iq0", func(c *Config) { c.IQ = 0 }},
		{"lqIndivisible", func(c *Config) { c.LQ = 33 }},
		{"sq0", func(c *Config) { c.SQ = 0; c.LQ = 0 }},
		{"prfSmall", func(c *Config) { c.PRF = 1 }},
		{"shelfNegative", func(c *Config) { c.Shelf = -4 }},
		{"shelfIndivisible", func(c *Config) { c.Shelf = 66 }},
		{"shelfNotPow2", func(c *Config) { c.Shelf = 48 }}, // 12/thread
		{"rct0", func(c *Config) { c.RCTBits = 0 }},
		{"pltNegative", func(c *Config) { c.PLTLoads = -1 }},
		{"noALUs", func(c *Config) { c.IntALUs = 0 }},
		{"badBranch", func(c *Config) { c.Branch.GshareBits = 0 }},
		{"badSSets", func(c *Config) { c.StoreSets.MaxSets = 0 }},
		{"badCache", func(c *Config) { c.Mem.L1D.Ways = 0 }},
		{"splitLineBytes", func(c *Config) { c.Mem.L1D.LineBytes = 32 }},
		{"dram0", func(c *Config) { c.Mem.MemLatencyCycles = 0 }},
	}
	for _, m := range mutations {
		cfg := Shelf64(4, true)
		m.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", m.name)
		}
	}
}

// TestValidateNamesMemoryField requires every memory setting that
// mem.NewHierarchy would panic on to fail Validate with a *FieldError
// naming the field: for line sizes, the level that disagrees with the
// other two, or L1D when all three differ.
func TestValidateNamesMemoryField(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Mem.L1D.LineBytes", func(c *Config) { c.Mem.L1D.LineBytes = 32 }},
		{"Mem.L1I.LineBytes", func(c *Config) { c.Mem.L1I.LineBytes = 128 }},
		{"Mem.L2.LineBytes", func(c *Config) { c.Mem.L2.LineBytes = 128 }},
		{"Mem.L1D.LineBytes", func(c *Config) { c.Mem.L1I.LineBytes, c.Mem.L1D.LineBytes = 32, 128 }},
		{"Mem.MemLatencyCycles", func(c *Config) { c.Mem.MemLatencyCycles = -1 }},
	} {
		cfg := Base64(1)
		tc.mutate(&cfg)
		err := cfg.Validate()
		fe, ok := err.(*FieldError)
		if !ok || fe.Field != tc.field {
			t.Errorf("want a *FieldError naming %s, got %v", tc.field, err)
		}
	}
}

func TestSteerKindString(t *testing.T) {
	names := map[SteerKind]string{
		SteerAllIQ:     "all-iq",
		SteerAllShelf:  "all-shelf",
		SteerOracle:    "oracle",
		SteerPractical: "practical",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if SteerKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestFingerprint(t *testing.T) {
	a := Shelf64(4, true)
	b := Shelf64(4, true)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical configs must share a fingerprint")
	}
	// Same Name, different substance: the fingerprint must differ. This is
	// the aliasing the harness cache used to suffer when keying on Name.
	mutations := []func(*Config){
		func(c *Config) { c.ROB = 128 },
		func(c *Config) { c.Steer = SteerAllShelf },
		func(c *Config) { c.CheckInvariants = true },
		func(c *Config) { c.Mem.L1D.Ways *= 2 },
		func(c *Config) { c.InjectFaultCycle = 99 },
	}
	for i, mutate := range mutations {
		m := Shelf64(4, true)
		mutate(&m)
		if m.Fingerprint() == a.Fingerprint() {
			t.Errorf("mutation %d not reflected in fingerprint", i)
		}
	}
	if got := a.Fingerprint(); len(got) != 16 {
		t.Errorf("fingerprint %q is not 16 hex digits", got)
	}
}

func TestValidateRejectsNegativeFaultCycle(t *testing.T) {
	cfg := Base64(1)
	cfg.InjectFaultCycle = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative InjectFaultCycle accepted")
	}
}

func TestFaultKindString(t *testing.T) {
	names := map[FaultKind]string{
		FaultWindow:    "window",
		FaultStoreDrop: "store-drop",
		FaultWakeupTag: "wakeup-tag",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if FaultKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestValidateFaultKind(t *testing.T) {
	cases := []struct {
		name  string
		kind  FaultKind
		cycle int64
		ok    bool
	}{
		{"window-disarmed", FaultWindow, 0, true},
		{"window-armed", FaultWindow, 100, true},
		{"store-drop-armed", FaultStoreDrop, 100, true},
		{"wakeup-tag-armed", FaultWakeupTag, 100, true},
		// A non-default kind with no injection cycle is a config typo:
		// the caller selected a corruption that can never fire.
		{"store-drop-disarmed", FaultStoreDrop, 0, false},
		{"wakeup-tag-disarmed", FaultWakeupTag, 0, false},
		{"unknown-kind", FaultWakeupTag + 1, 100, false},
	}
	for _, tc := range cases {
		cfg := Base64(1)
		cfg.InjectFaultKind = tc.kind
		cfg.InjectFaultCycle = tc.cycle
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid fault config accepted", tc.name)
		}
	}
}

// TestFingerprintDistinguishesFaultKinds: two armed configs differing only
// in the injected fault kind must not alias in the harness cache.
func TestFingerprintDistinguishesFaultKinds(t *testing.T) {
	fps := map[string]FaultKind{}
	for k := FaultWindow; k <= FaultWakeupTag; k++ {
		cfg := Base64(1)
		cfg.InjectFaultCycle = 100
		cfg.InjectFaultKind = k
		fp := cfg.Fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Errorf("kinds %v and %v share fingerprint %s", prev, k, fp)
		}
		fps[fp] = k
	}
}
