package harness

import (
	"context"
	"errors"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"shelfsim/internal/asm"
	"shelfsim/internal/config"
	"shelfsim/internal/core"
	"shelfsim/internal/isa"
	"shelfsim/internal/runner"
	"shelfsim/internal/workload"
)

// liveClass is how a Config field shows that it is live.
type liveClass int

const (
	// behavioural: the row's run reproduces a pinned Result fingerprint
	// that differs from the run with the field at its base value.
	behavioural liveClass = iota
	// observational: the field changes what is recorded or checked, not
	// what is simulated, so the Result fingerprint is unchanged (the
	// result's Config label, which echoes Name, is compared reset).
	observational
	// fault: the run trips the invariant checker with the pinned check.
	fault
	// energyOnly: the Result fingerprint is unchanged, but the energy model
	// prices the same run differently (Figs. 13 and 14).
	energyOnly
	// admission: the value makes the assembler refuse a program that the
	// base value accepts.
	admission
)

// liveRow is one Config leaf field's liveness evidence. set changes that
// field, and the fields in with, and nothing else, relative to the row's
// base run: the default 4-thread core run, or the 2-core chip run when
// chip is set, with base applied (a field may only matter under another
// setting, e.g. CoarseInterval under coarse steering). with names fields
// that are valid only in step with field, and the row covers them too.
type liveRow struct {
	field string
	with  []string
	class liveClass
	chip  bool
	base  func(*config.Config)
	set   func(*config.Config)
	// want is the pinned Result fingerprint (behavioural) or check name
	// (fault).
	want string
}

// Both workloads use a thread's kernel by position, taking the first
// Threads×max(NumCores, 1) names, so a thread or core count row keeps the
// same kernel order.
var (
	liveCoreKernels = []string{"gups", "fpdense", "prodcons", "callret"}
	liveChipKernels = []string{"gups", "stencil", "branchy", "matblock", "ptrchase", "hashprobe", "reduce", "callret"}
)

const (
	liveCoreInsts   = 2000 // per-thread bounded stream, drained
	liveChipWarmup  = 500
	liveChipMeasure = 1500
)

func liveCoreBase() config.Config { return config.Shelf64(4, true) }

func liveChipBase() config.Config {
	c := config.Shelf64(2, true)
	c.Name = "chip-live"
	c.NumCores = 2
	c.AllocPolicy = config.AllocICount
	c.ChipEpoch = 1000
	c.MigrationCost = 200
	return c
}

// liveRows lists every leaf field of config.Config.
var liveRows = []liveRow{
	{field: "Threads", set: func(c *config.Config) { c.Threads = 2 },
		want: "24b33a8644809af9"},
	{field: "FetchWidth", set: func(c *config.Config) { c.FetchWidth = 4 },
		want: "2f709ddb15820b22"},
	{field: "Width", set: func(c *config.Config) { c.Width = 2 },
		want: "3382be58c01c175e"},
	{field: "FetchToDispatch", set: func(c *config.Config) { c.FetchToDispatch = 3 },
		want: "4652ec49b3eaa3b9"},
	{field: "ROB", set: func(c *config.Config) { c.ROB = 32 },
		want: "146870fd4ab80def"},
	{field: "IQ", set: func(c *config.Config) { c.IQ = 16 },
		want: "085995afa9e67283"},
	{field: "LQ", set: func(c *config.Config) { c.LQ = 4 },
		want: "375a3f060c0b769a"},
	{field: "SQ", set: func(c *config.Config) { c.SQ = 4 },
		want: "810ef0e4055d44d7"},
	// Validate requires PRF >= ROB, and a thread never holds more renamed
	// registers than ROB entries, so the PRF size never stalls rename. It
	// only prices the register files in the energy model (Figs. 13-14).
	{field: "PRF", class: energyOnly, set: func(c *config.Config) { c.PRF = 256 }},
	{field: "Shelf", set: func(c *config.Config) { c.Shelf = 16 },
		want: "c9615e86c73e6cd3"},
	{field: "OptimisticShelf", set: func(c *config.Config) { c.OptimisticShelf = false },
		want: "e1b8e92167b2a363"},
	{field: "ShelfReleaseAtWriteback", set: func(c *config.Config) { c.ShelfReleaseAtWriteback = true },
		want: "479312d795a470d9"},
	{field: "Steer", set: func(c *config.Config) { c.Steer = config.SteerOracle },
		want: "02462532d4488f37"},
	{field: "RCTBits", set: func(c *config.Config) { c.RCTBits = 2 },
		want: "46c8f1ebec6af3f0"},
	{field: "PLTLoads", set: func(c *config.Config) { c.PLTLoads = 1 },
		want: "8fd91be80745fcfc"},
	{field: "CoarseInterval",
		base: func(c *config.Config) { c.Steer, c.CoarseInterval = config.SteerCoarse, 1000 },
		set:  func(c *config.Config) { c.CoarseInterval = 100 },
		want: "d7436129ee2bec28"},
	{field: "IntALUs", set: func(c *config.Config) { c.IntALUs = 2 },
		want: "ad1a59dabb6d11f7"},
	{field: "IntMultDiv", set: func(c *config.Config) { c.IntMultDiv = 2 },
		want: "790f9502acc82e60"},
	{field: "FPUnits", set: func(c *config.Config) { c.FPUnits = 1 },
		want: "5c7e8355e2c85139"},
	{field: "MemPorts", set: func(c *config.Config) { c.MemPorts = 1 },
		want: "eaeba0ecb4818115"},

	{field: "Mem.L1I.Name", class: observational, set: func(c *config.Config) { c.Mem.L1I.Name = "icache" }},
	{field: "Mem.L1I.SizeBytes", set: func(c *config.Config) { c.Mem.L1I.SizeBytes = 256 },
		want: "dff6276048af2d09"},
	{field: "Mem.L1I.Ways",
		base: func(c *config.Config) { c.Mem.L1I.SizeBytes = 256 },
		set:  func(c *config.Config) { c.Mem.L1I.Ways = 1 },
		want: "f582aa9d8aad9e46"},
	{field: "Mem.L1I.LineBytes", with: []string{"Mem.L1D.LineBytes", "Mem.L2.LineBytes"},
		set:  func(c *config.Config) { c.Mem.L1I.LineBytes, c.Mem.L1D.LineBytes, c.Mem.L2.LineBytes = 32, 32, 32 },
		want: "4475eb35abf084c1"},
	{field: "Mem.L1I.LatencyCycles", set: func(c *config.Config) { c.Mem.L1I.LatencyCycles = 3 },
		want: "c52082d4af0c8a51"},
	{field: "Mem.L1I.MSHRs", set: func(c *config.Config) { c.Mem.L1I.MSHRs = 1 },
		want: "219381ac6099b364"},
	{field: "Mem.L1D.Name", class: observational, set: func(c *config.Config) { c.Mem.L1D.Name = "dcache" }},
	{field: "Mem.L1D.SizeBytes", set: func(c *config.Config) { c.Mem.L1D.SizeBytes = 4 << 10 },
		want: "6a989b3f37f5fbff"},
	{field: "Mem.L1D.Ways", set: func(c *config.Config) { c.Mem.L1D.Ways = 1 },
		want: "da8f56d501935a27"},
	{field: "Mem.L1D.LatencyCycles", set: func(c *config.Config) { c.Mem.L1D.LatencyCycles = 4 },
		want: "03623ac641525e56"},
	{field: "Mem.L1D.MSHRs", set: func(c *config.Config) { c.Mem.L1D.MSHRs = 2 },
		want: "0ddf75862960bd61"},
	{field: "Mem.L2.Name", class: observational, set: func(c *config.Config) { c.Mem.L2.Name = "l2cache" }},
	{field: "Mem.L2.SizeBytes", set: func(c *config.Config) { c.Mem.L2.SizeBytes = 8 << 10 },
		want: "3f8404528f64c27d"},
	{field: "Mem.L2.Ways", set: func(c *config.Config) { c.Mem.L2.Ways = 1 },
		want: "8ba33a1351d53da9"},
	{field: "Mem.L2.LatencyCycles", set: func(c *config.Config) { c.Mem.L2.LatencyCycles = 12 },
		want: "a0a70100aa383350"},
	{field: "Mem.L2.MSHRs", set: func(c *config.Config) { c.Mem.L2.MSHRs = 2 },
		want: "27b4e442598ea924"},
	{field: "Mem.MemLatencyCycles", set: func(c *config.Config) { c.Mem.MemLatencyCycles = 100 },
		want: "9ea1b16b7fcee272"},
	{field: "Mem.PrefetchNextLines", set: func(c *config.Config) { c.Mem.PrefetchNextLines = 2 },
		want: "08daf689846f1cb9"},
	{field: "Branch.GshareBits", set: func(c *config.Config) { c.Branch.GshareBits = 2 },
		want: "78da187a059b6c27"},
	{field: "Branch.BTBEntries", set: func(c *config.Config) { c.Branch.BTBEntries = 1 },
		want: "47e6250611977b42"},
	{field: "StoreSets.SSITEntries", set: func(c *config.Config) { c.StoreSets.SSITEntries = 4 },
		want: "10886d172c96ee08"},
	{field: "StoreSets.MaxSets", set: func(c *config.Config) { c.StoreSets.MaxSets = 1 },
		want: "6c58186cccda1530"},

	{field: "AblateNoWAW", set: func(c *config.Config) { c.AblateNoWAW = true },
		want: "85122b924e768ab3"},
	{field: "AblateNoElderStore",
		base: func(c *config.Config) { c.Steer = config.SteerAllShelf },
		set:  func(c *config.Config) { c.AblateNoElderStore = true },
		want: "ff291b9dd0264b2b"},
	{field: "AblateNoRunCond", set: func(c *config.Config) { c.AblateNoRunCond = true },
		want: "833ea3964e1708b8"},
	{field: "AblateNoRetireCoord", set: func(c *config.Config) { c.AblateNoRetireCoord = true },
		want: "b52ea5b1449f1964"},

	{field: "Telemetry", class: observational, set: func(c *config.Config) { c.Telemetry = true }},
	{field: "CheckInvariants", class: observational, set: func(c *config.Config) { c.CheckInvariants = true }},
	{field: "InjectFaultCycle", class: fault, set: func(c *config.Config) { c.InjectFaultCycle = 500 },
		want: "rob-order"},
	{field: "InjectFaultKind", class: fault,
		base: func(c *config.Config) { c.InjectFaultCycle = 500 },
		set:  func(c *config.Config) { c.InjectFaultKind = config.FaultStoreDrop },
		want: "lsq-membership"},

	{field: "NumCores", chip: true, set: func(c *config.Config) { c.NumCores = 4 },
		want: "2110b11bd7f469ba"},
	{field: "AllocPolicy", chip: true, set: func(c *config.Config) { c.AllocPolicy = config.AllocRoundRobin },
		want: "57f8657da0c9b5d1"},
	{field: "ChipLockstep", class: observational, chip: true, set: func(c *config.Config) { c.ChipLockstep = true }},
	{field: "ChipEpoch", chip: true, set: func(c *config.Config) { c.ChipEpoch = 500 },
		want: "faf90d52acb78ed0"},
	{field: "MigrationCost", chip: true, set: func(c *config.Config) { c.MigrationCost = 0 },
		want: "6a5578259c50c259"},
	{field: "L2SharePenalty", chip: true, set: func(c *config.Config) { c.L2SharePenalty = 100 },
		want: "aa8e85015b4173c0"},

	{field: "RescanScheduler", class: observational, set: func(c *config.Config) { c.RescanScheduler = true }},
	{field: "AsmScheduleBound", class: admission, set: func(c *config.Config) { c.AsmScheduleBound = 1024 }},
	{field: "Name", class: observational, set: func(c *config.Config) { c.Name = "renamed" }},
}

// TestEveryConfigFieldIsLive is the liveness counterpart of
// TestFingerprintSensitiveToEveryField: that test proves every field is
// hashed, this one that every field does something. Each leaf of Config
// (recursing into Mem, Branch and StoreSets) has exactly one row, found
// by reflection, so a new field with no row fails here, and so does a
// row whose field is gone. A knob no workload moves cannot hide in it.
func TestEveryConfigFieldIsLive(t *testing.T) {
	leaves := configLeaves(reflect.TypeOf(config.Config{}), "")
	rows := map[string]liveRow{}
	for _, r := range liveRows {
		for _, f := range append([]string{r.field}, r.with...) {
			if _, dup := rows[f]; dup {
				t.Errorf("field %s has two rows", f)
			}
			rows[f] = r
		}
	}
	for _, f := range leaves {
		if _, ok := rows[f]; !ok {
			t.Errorf("Config field %s has no liveness row", f)
		}
		delete(rows, f)
	}
	for f := range rows {
		t.Errorf("liveness row %s names no Config field", f)
	}
	if t.Failed() {
		return
	}

	results := map[string]*core.Result{}
	run := func(cfg config.Config) (*core.Result, error) {
		key := cfg.Fingerprint()
		if res, ok := results[key]; ok {
			return res, nil
		}
		res, err := liveRun(cfg)
		if err == nil {
			results[key] = res
		}
		return res, err
	}
	for _, r := range liveRows {
		t.Run(r.field, func(t *testing.T) {
			base := liveCoreBase()
			if r.chip {
				base = liveChipBase()
			}
			if r.base != nil {
				r.base(&base)
			}
			cfg := base
			r.set(&cfg)
			for _, f := range leaves {
				changed := leafValue(cfg, f) != leafValue(base, f)
				if changed != (f == r.field || slices.Contains(r.with, f)) {
					t.Fatalf("row changes %s: changed=%t", f, changed)
				}
			}
			if r.class == admission {
				checkAdmission(t, base, cfg)
				return
			}
			res, err := run(cfg)
			if r.class == fault {
				var inv *core.InvariantError
				if !errors.As(err, &inv) {
					t.Fatalf("run did not trip the checker: %v", err)
				}
				if inv.Check != r.want {
					t.Errorf("tripped %s, pinned %s", inv.Check, r.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			baseRes, err := run(base)
			if err != nil {
				t.Fatal(err)
			}
			switch r.class {
			case energyOnly:
				if got, want := res.Fingerprint(), baseRes.Fingerprint(); got != want {
					t.Errorf("energy-only field moved the Result fingerprint: %s, base %s", got, want)
				}
				if Power(&cfg, res) == Power(&base, baseRes) {
					t.Errorf("%s leaves the modeled power unchanged", r.field)
				}
			case observational:
				relabeled := *res
				relabeled.Config = baseRes.Config
				if got, want := relabeled.Fingerprint(), baseRes.Fingerprint(); got != want {
					t.Errorf("observational field moved the Result fingerprint: %s, base %s", got, want)
				}
			case behavioural:
				got := res.Fingerprint()
				if got == baseRes.Fingerprint() {
					t.Errorf("%s leaves the Result fingerprint at its base %s", r.field, got)
				}
				if got != r.want {
					t.Errorf("fingerprint %s, pinned %s", got, r.want)
				}
				// The pin holds under the rescan scheduler with the
				// per-cycle invariant checker on.
				cfg.RescanScheduler, cfg.CheckInvariants = true, true
				checked, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if fp := checked.Fingerprint(); fp != got {
					t.Errorf("checked rescan run gives %s, not %s", fp, got)
				}
			}
		})
	}
}

// liveRun simulates cfg on the core workload (bounded streams run until
// they drain, as the core package's pinned runs do) or, for a chip
// config, on the chip workload through the supervised runner. A panic in
// the core returns as its *core.InvariantError.
func liveRun(cfg config.Config) (res *core.Result, err error) {
	if cfg.NumCores >= 2 {
		kernels := make([]*workload.Kernel, cfg.Threads*cfg.NumCores)
		for i := range kernels {
			if kernels[i], err = workload.ByName(liveChipKernels[i]); err != nil {
				return nil, err
			}
		}
		job := runner.Job{Config: cfg, Mix: workload.Mix{Kernels: kernels},
			Warmup: liveChipWarmup, Measure: liveChipMeasure}
		res, simErr := (&runner.Runner{}).Execute(context.Background(), job)
		if simErr != nil {
			return nil, simErr
		}
		return res, nil
	}
	streams := make([]isa.Stream, cfg.Threads)
	for i := range streams {
		k, err := workload.ByName(liveCoreKernels[i])
		if err != nil {
			return nil, err
		}
		streams[i] = k.NewStream(uint64(i+1)<<32, uint64(i)+1, liveCoreInsts)
	}
	c, err := core.New(cfg, streams)
	if err != nil {
		return nil, err
	}
	defer func() {
		if rec := recover(); rec != nil {
			inv, ok := rec.(*core.InvariantError)
			if !ok {
				panic(rec)
			}
			res, err = nil, inv
		}
	}()
	for !c.Done() {
		if c.Cycle() > 2_000_000 {
			return nil, errors.New("run did not drain in 2M cycles")
		}
		c.Step()
	}
	r := c.Result()
	return &r, nil
}

// checkAdmission assembles a testdata program under both configs'
// schedule bound: base must accept it and cfg refuse it.
func checkAdmission(t *testing.T, base, cfg config.Config) {
	t.Helper()
	src, err := os.ReadFile("../../testdata/asm/dotprod.s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := asm.Assemble(string(src), asm.Options{MaxSchedule: base.AsmScheduleBound}); err != nil {
		t.Fatalf("base bound refuses the program: %v", err)
	}
	if _, err := asm.Assemble(string(src), asm.Options{MaxSchedule: cfg.AsmScheduleBound}); err == nil {
		t.Errorf("bound %d accepts the program", cfg.AsmScheduleBound)
	}
}

// configLeaves lists t's leaf fields as dotted paths, recursing into the
// substrate configs (every struct-typed field).
func configLeaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, configLeaves(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// leafValue reads the dotted-path leaf of cfg.
func leafValue(cfg config.Config, path string) any {
	v := reflect.ValueOf(cfg)
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	return v.Interface()
}
