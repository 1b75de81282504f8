package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"shelfsim/internal/config"
	"shelfsim/internal/isa"
	"shelfsim/internal/obs"
	"shelfsim/internal/workload"
)

// Fingerprints pinned from the pipeline before its rings were indexed by
// mask, its select loop made one-pass and its completion heap replaced by
// a calendar. Each covers a case the preset goldens do not: a ROB ring
// whose logical capacity is not a power of two, completions scheduled
// beyond the calendar's ring, and the full Figure 10 job set.
const (
	pinROB96Shelf      = "28af1aa322fa7db1"
	pinROB48Base       = "df04046469c77dad"
	pinSlowMemory      = "f8f5d4859ebce5f7"
	pinFig10Core       = "4b7dbd3e8e6f5ff2"
	pinFig10CoreInsts  = 2000
	pinFig10CoreWarmup = 1000
)

// runPinned runs cfg over bounded kernel streams with the per-cycle
// invariant checker on, under both the incremental and the rescan
// scheduler, and returns the fingerprint the two must share.
func runPinned(t *testing.T, cfg config.Config, names []string, n int64) string {
	t.Helper()
	cfg.CheckInvariants = true
	var fps [2]string
	for i, rescan := range []bool{false, true} {
		cfg.RescanScheduler = rescan
		c, err := New(cfg, kernelStreams(t, names, n))
		if err != nil {
			t.Fatal(err)
		}
		run(t, c, 2_000_000)
		r := c.Result()
		fps[i] = r.Fingerprint()
	}
	if fps[0] != fps[1] {
		t.Fatalf("incremental scheduler fingerprint %s != rescan %s", fps[0], fps[1])
	}
	return fps[0]
}

// TestNonPowerOfTwoPartitions pins ROB partitions of 24 entries, whose
// ring storage rounds up to 32 slots: a 4-thread shelf64-opt with a
// 96-entry ROB and a 2-thread base64 with a 48-entry ROB.
func TestNonPowerOfTwoPartitions(t *testing.T) {
	shelf := config.Shelf64(4, true)
	shelf.ROB = 96
	base := config.Base64(2)
	base.ROB = 48
	for _, tc := range []struct {
		cfg   config.Config
		names []string
		want  string
	}{
		{shelf, []string{"ptrchase", "ilpmax", "gups", "branchy"}, pinROB96Shelf},
		{base, []string{"stencil", "callret"}, pinROB48Base},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s-rob%d", tc.cfg.Name, tc.cfg.ROB), func(t *testing.T) {
			if got := runPinned(t, tc.cfg, tc.names, 1500); got != tc.want {
				t.Errorf("fingerprint %s, pinned %s", got, tc.want)
			}
		})
	}
}

// TestSlowMemoryFingerprint runs a memory latency of 400 cycles, so every
// DRAM miss completes beyond the completion calendar's ring and passes
// through its overflow chain.
func TestSlowMemoryFingerprint(t *testing.T) {
	cfg := config.Shelf64(4, true)
	cfg.Mem.MemLatencyCycles = 400
	got := runPinned(t, cfg, []string{"gups", "ptrchase", "stream", "hashprobe"}, 1000)
	if got != pinSlowMemory {
		t.Errorf("fingerprint %s, pinned %s", got, pinSlowMemory)
	}
}

// fig10Core runs the Figure 10 job set on bare cores — the four main
// configurations over the first 16 4-thread paper mixes, each thread
// warming up for pinFig10CoreWarmup instructions and measuring
// pinFig10CoreInsts — and returns the combined fingerprint and the
// instructions retired.
func fig10Core(tb testing.TB) (string, int64) {
	h := fnv.New64a()
	var retired int64
	cfgs := []config.Config{
		config.Base64(4), config.Shelf64(4, false), config.Shelf64(4, true), config.Base128(4),
	}
	for _, cfg := range cfgs {
		for _, mix := range workload.PaperMixes(4)[:16] {
			streams := make([]isa.Stream, len(mix.Kernels))
			for i, k := range mix.Kernels {
				streams[i] = k.NewStream(uint64(i+1)<<32, uint64(i)+1, -1)
			}
			c, err := New(cfg, streams)
			if err != nil {
				tb.Fatal(err)
			}
			c.SetRetireTargets(pinFig10CoreWarmup, pinFig10CoreInsts)
			if _, ok := c.Run(50_000_000); !ok {
				tb.Fatalf("%s/%s did not finish", cfg.Name, mix.Name())
			}
			r := c.Result()
			fmt.Fprintf(h, "%s/%s=%s\n", cfg.Name, mix.Name(), r.Fingerprint())
			retired += r.Stats.Retired
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), retired
}

// BenchmarkFig10Core times the fig10-batch job set on bare cores, with no
// runner, harness or cache around them, and reports simulated Minst/s. It
// fails if the combined fingerprint differs from the pinned one, so an A/B
// of two commits also proves they simulate identically.
//
//	go test -run '^$' -bench BenchmarkFig10Core -benchtime 1x ./internal/core/
func BenchmarkFig10Core(b *testing.B) {
	var retired int64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		fp, n := fig10Core(b)
		if fp != pinFig10Core {
			b.Fatalf("combined fingerprint %s, pinned %s", fp, pinFig10Core)
		}
		retired += n
	}
	b.ReportMetric(float64(retired)/time.Since(start).Seconds()/1e6, "Minst/s")
}

// pinEvent is one observed event reduced to the fields the stream pin
// hashes. Kinds are letters so the pin never depends on constant values.
type pinEvent struct {
	kind     byte
	tid      int
	seq      int64
	cycle    int64
	source   obs.LoadSource
	provider int64
}

// recordPinEvents feeds fn one pinEvent per core event.
func recordPinEvents(c *Core, fn func(pinEvent)) {
	kinds := [...]byte{obs.EvIssue: 'I', obs.EvStoreCommit: 'C', obs.EvRetire: 'R', obs.EvSquash: 'S',
		obs.EvSteer: 'T', obs.EvCycle: 'Y'}
	c.SetObserver(func(ev obs.Event) {
		fn(pinEvent{kinds[ev.Kind], ev.Tid, ev.Seq, ev.Cycle, ev.Source, ev.ProviderSeq})
	})
}

// TestEventStreamPinned pins the core's event stream on one 4-thread
// shelf64-opt paper mix: the count of each event kind and an FNV-1a hash
// over every issue, store commit, retire and squash event's (kind, tid,
// seq, cycle, source, provider) in stream order. Any change to what the
// stream reports, or when, moves the pin. The run has telemetry on, so
// the collector shares the stream with the observer: its steer total
// must equal the steer events, and its cycle count the cycle events and
// the core's cycles.
func TestEventStreamPinned(t *testing.T) {
	const (
		wantIssues   = 382538
		wantCommits  = 22324
		wantRetires  = 382513
		wantSquashes = 69
		wantHash     = "b21fddf33311c3f7"
		wantSteers   = 382576
		wantCycles   = 111497
	)
	mix := workload.PaperMixes(4)[0]
	streams := make([]isa.Stream, len(mix.Kernels))
	for i, k := range mix.Kernels {
		streams[i] = k.NewStream(uint64(i+1)<<32, uint64(i)+1, -1)
	}
	cfg := config.Shelf64(4, true)
	cfg.Telemetry = true
	c, err := New(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetireTargets(500, 1500)
	counts := map[byte]int{}
	h := fnv.New64a()
	var buf []byte
	recordPinEvents(c, func(e pinEvent) {
		if counts[e.kind]++; e.kind == 'T' || e.kind == 'Y' {
			return
		}
		buf = append(buf[:0], e.kind, byte(e.tid), byte(e.source))
		for _, v := range []int64{e.seq, e.cycle, e.provider} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		h.Write(buf)
	})
	if _, ok := c.Run(10_000_000); !ok {
		t.Fatalf("%s did not finish", mix.Name())
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	t.Logf("%s: %d issues, %d commits, %d retires, %d squashes, hash %s",
		mix.Name(), counts['I'], counts['C'], counts['R'], counts['S'], got)
	if counts['I'] != wantIssues || counts['C'] != wantCommits ||
		counts['R'] != wantRetires || counts['S'] != wantSquashes || got != wantHash {
		t.Errorf("event stream moved: got %d/%d/%d/%d %s, pinned %d/%d/%d/%d %s",
			counts['I'], counts['C'], counts['R'], counts['S'], got,
			wantIssues, wantCommits, wantRetires, wantSquashes, wantHash)
	}

	var steers int64
	for _, side := range c.Obs().Steer {
		for _, n := range side {
			steers += n
		}
	}
	if counts['T'] != wantSteers || int64(counts['T']) != steers {
		t.Errorf("%d steer events, telemetry Steer total %d, pinned %d", counts['T'], steers, wantSteers)
	}
	if counts['Y'] != wantCycles || int64(counts['Y']) != c.Cycle() || c.Obs().Cycles != c.Cycle() {
		t.Errorf("%d cycle events, telemetry %d cycles, core %d cycles, pinned %d",
			counts['Y'], c.Obs().Cycles, c.Cycle(), wantCycles)
	}
}
