// Command perfbench is shelfsim's benchmark: it runs one named workload
// against a non-race build, checks every output against expected.json,
// and prints the workload's metrics as the last line of its output.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it makes
// a separate traced run that times each layer from outside — a span around
// every call the benchmark makes into a layer's public functions — prints
// the per-layer metrics and writes the spans to .bench_build.
//
// -prepare builds a serving workload's fixture store ahead of the measured
// process; -regen-expected rewrites expected.json from in-process runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metric is one printed metric's name and unit.
type metric struct{ name, unit string }

// e2eMetrics are printed by untraced runs, on every workload.
var e2eMetrics = []metric{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"sim_minst_per_s", "Minst/s"},
}

// layerMetrics are printed by traced runs, on every workload; a layer a
// workload does not exercise reads 0.
var layerMetrics = []metric{
	{"request.resolve_us", "us"},
	{"request.cache_key_us", "us"},
	{"asm.assemble_ms", "ms"},
	{"asm.schedule_insts", "count"},
	{"serve.handler_self_us", "us"},
	{"serve.store_hit_frac", "ratio"},
	{"serve.store_hits", "count"},
	{"serve.completed", "count"},
	{"store.get_us", "us"},
	{"store.put_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.entry_bytes", "bytes"},
	{"report.new_us", "us"},
	{"report.encode_us", "us"},
	{"report.decode_us", "us"},
	{"report.bytes", "bytes"},
	{"client.self_us", "us"},
	{"runner.overhead_frac", "ratio"},
	{"core.ns_per_cycle", "ns"},
	{"core.ns_per_inst", "ns"},
	{"core.cycles", "count"},
	{"core.retired", "count"},
	{"core.squashes", "count"},
	{"workload.gen_ns_per_inst", "ns"},
	{"chip.step_ms_per_epoch", "ms"},
	{"chip.rebalance_us_per_epoch", "us"},
	{"chip.epochs", "count"},
	{"chip.parallel_speedup", "ratio"},
	{"harness.pool_util", "ratio"},
	{"harness.single_cpi_ms", "ms"},
	{"harness.fig_ms", "ms"},
	{"harness.jobs", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// bench is one run's settings.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	root     string
	work     string
	exp      *expected
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	e2eVals           map[string]float64
	layers            map[string]float64
	// notes are printed on the line before the result.
	notes map[string]any
	// trace is the traced run's recorder (nil when untraced).
	trace *recorder
}

func newOutcome() outcome {
	return outcome{e2eVals: map[string]float64{}, layers: map[string]float64{}, notes: map[string]any{}}
}

// e2e fills the end-to-end metrics from set-up times (s), op latencies
// (ms), the timed phases' process CPU and the simulated-instruction rate.
func (o *outcome) e2e(setups, lats []float64, cpu time.Duration, minstPerS float64) {
	t := tailOf(lats)
	o.e2eVals["setup_s"] = median(setups)
	o.e2eVals["lat_p50_ms"] = median(lats)
	o.e2eVals["lat_tail_ms"] = t.Value
	o.e2eVals["cpu_ms_per_op"] = ms(cpu) / float64(max(o.attempted, 1))
	o.e2eVals["peak_rss_mb"] = peakRSSMB()
	o.e2eVals["sim_minst_per_s"] = minstPerS
	o.notes["lat_tail"] = t
	o.notes["setup_rounds"] = len(setups)
}

// workloadNames are the benchmark's workloads.
var workloadNames = []string{"fig10-batch", "serve-cold", "serve-hot", "serve-asm"}

// serveSpecOf is the spec of a serving workload; ok is false for
// fig10-batch.
func serveSpecOf(b *bench) (spec serveSpec, ok bool, err error) {
	switch b.workload {
	case "serve-cold":
		return coldSpec(b.seed), true, nil
	case "serve-hot":
		return hotSpec("serve-hot", hotUniverse(), hotSetSize, b.seed), true, nil
	case "serve-asm":
		progs, err := loadPrograms(b.root)
		if err != nil {
			return serveSpec{}, true, err
		}
		return hotSpec("serve-asm", asmUniverse(progs), asmSetSize, b.seed), true, nil
	}
	return serveSpec{}, false, nil
}

// measure runs the workload, untraced or traced.
func measure(b *bench, traced bool) (outcome, error) {
	spec, serving, err := serveSpecOf(b)
	switch {
	case err != nil:
		return newOutcome(), err
	case !serving && traced:
		return traceFig10(b)
	case !serving:
		return runFig10(b)
	case traced:
		return traceServe(b, spec)
	}
	return runServe(b, spec)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: fig10-batch, serve-cold, serve-hot or serve-asm")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "seconds one run measures")
		traced  = flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
		root    = flag.String("root", ".", "repository root")
		work    = flag.String("work", ".bench_build", "directory for fixture stores and trace artifacts")
		regen   = flag.Bool("regen-expected", false, "rewrite expected.json from in-process runs and exit")
		prepare = flag.Bool("prepare", false, "build the serving workload's fixture store in -work and exit (run.sh does this in its own process, so the measured process's peak RSS is not the fixture build's)")
	)
	flag.Parse()
	if *regen {
		return regenerate(*root, runtime.NumCPU())
	}
	if !slices.Contains(workloadNames, *name) {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	exp, err := loadExpected(filepath.Join(*root, expectedFile))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	b := &bench{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, root: *root, work: *work, exp: exp}
	if *prepare {
		spec, serving, err := serveSpecOf(b)
		if err != nil || !serving {
			return err
		}
		return buildFixture(fixtureDir(b, spec), spec.set, fixtureEntries, exp)
	}
	o, err := measure(b, *traced == 1)
	if err != nil {
		return err
	}

	list, vals := e2eMetrics, o.e2eVals
	if *traced == 1 {
		list, vals = layerMetrics, o.layers
		path := filepath.Join(*work, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		doc := map[string]any{"workload": *name, "seed": *seed, "layers": o.layers, "notes": o.notes}
		if err := writeTrace(path, o.trace.spans, doc); err != nil {
			return err
		}
		o.notes["trace_file"] = path
	}
	metrics := map[string]any{}
	for _, m := range list {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	info, err := json.Marshal(map[string]any{"env": stamp(b), "notes": o.notes})
	if err != nil {
		return err
	}
	result, err := json.Marshal(map[string]any{
		"correct": o.failed == 0, "attempted": o.attempted, "failed": o.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(info))
	fmt.Println(string(result))
	return nil
}

// stamp is the run's environment: what the numbers were measured on.
func stamp(b *bench) map[string]any {
	return map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds.Seconds(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "gogc": os.Getenv("GOGC"),
		"store_fs": fsType(b.work), "commit": commit(b.root),
	}
}

// fsType names the filesystem holding dir (the fixture store's).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit reads the checked-out commit from root/.git, if there is one.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return ref
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcPause is the process's total GC stop-the-world pause so far.
func gcPause() time.Duration {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return time.Duration(m.PauseTotalNs)
}
