#!/usr/bin/env sh
# CI gate: build, vet, and run the full test suite under the race detector.
# The simulator itself is single-threaded per run, but the runner executes
# sweeps on a goroutine worker pool, so -race guards the supervision layer.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Formatting gate: every tracked Go file must already be gofmt-clean, so
# formatting drift fails here instead of riding along in later diffs.
# shellcheck disable=SC2046 # the file list is meant to word-split
test -z "$(gofmt -l $(git ls-files '*.go'))"

# Project-specific invariants gate. shelfvet is this repo's go/analysis
# multichecker (see cmd/shelfvet), run once over `./...`; any diagnostic
# fails CI — there is no warn-only mode. SHELFVET.json is the report: the
# diagnostic count (must be 0), the packages vetted and every diagnostic.
# testdata fixture trees are outside `./...` and never load here.
go run ./cmd/shelfvet -json ./... > SHELFVET.json || { cat SHELFVET.json; exit 1; }
grep -q '"count": 0' SHELFVET.json || { cat SHELFVET.json; exit 1; }
# The assertions pin packages that historically fell out of coverage (a
# stale hand-kept list once let cmd/shelfload escape the gate); if one is
# missing from the report, the gate lost coverage.
for must in shelfsim/cmd/shelfload shelfsim/internal/store shelfsim/internal/litmus \
    shelfsim/internal/serve shelfsim/internal/runner shelfsim/internal/core; do
    grep -q "\"$must\"" SHELFVET.json || { echo "vet coverage lost $must"; exit 1; }
done

go test -race ./...

# Programmable-workload gate, explicitly under -race and uncached: every
# checked-in assembly program (testdata/asm/*.s) must assemble, simulate
# and match the fingerprints pinned in testdata/asm/golden.json — both the
# assembler's schedule fingerprint and the simulated result fingerprint.
# Any drift in the front end's lowering, the unroll semantics or the
# timing model fails here before it silently splits or aliases cached
# results. Regenerate intentionally with: go test -run
# TestAsmGoldenFingerprints -update-asm-golden .
go test -race -count=1 -run TestAsmGoldenFingerprints .

# Assembler totality fuzz, short fixed budget: Assemble must never panic
# on arbitrary input, and every accepted program's canonical rendering
# must be a fixpoint with a stable schedule fingerprint (the cache
# identity). Every accepted program's schedule must also equal the
# reference emulator's in internal/asm/reference_test.go, with the
# fingerprint equal to the fmt formula over it. The corpus accumulated
# under internal/asm/testdata keeps past discoveries as regression seeds.
go test -run '^$' -fuzz FuzzAssemble -fuzztime 10s ./internal/asm/

# Result-store totality fuzz, same budget: whatever bytes an entry file
# holds (truncated, bit-flipped, a foreign schema version, a wrong name),
# store.Open must not panic, must count every candidate file as indexed
# or skipped, and must serve only reports that decode, carry the key they
# are served under and hash to their own filename.
go test -run '^$' -fuzz FuzzStoreOpen -fuzztime 10s ./internal/store/

# Report-decoder totality fuzz, same budget, seeded from the golden report
# and truncations of it: DecodeReport must not panic, every report it
# accepts carries this build's SchemaVersion, and re-encoding an accepted
# report is a fixpoint (marshal, decode, marshal gives the same bytes).
go test -run '^$' -fuzz FuzzDecodeReport -fuzztime 10s .

# Lazy-schedule and reference-emulator race gate, explicitly under -race
# and repeated: Assemble keeps no schedule, and the first NewStream builds
# it once behind a sync.Once. Goroutines opening streams on one fresh
# Program at the same time must race-free replay identical schedules. The
# pre-decoded emulator and memoized hasher must match the reference
# emulator and fmt formula on the testdata programs, every opcode and the
# memory edge cases.
go test -race -count=10 -run 'TestConcurrentNewStream|TestFingerprintMatchesReference|TestEveryOpcodeMatchesReference|TestMemoryEdges' ./internal/asm/

# Supervised-run fuzz, same fixed budget: over fuzzed kernel selections,
# stream seeds and thread counts with the invariant checker on, no panic
# escapes the runner's supervised path and every thread retires its whole
# bounded stream in strict program order.
go test -run '^$' -fuzz FuzzStream -fuzztime 10s ./internal/runner/

# The observability layer's own race gate, run explicitly so a -run filter
# or test-cache change elsewhere can never hide it: the merged telemetry of
# a 4-worker Prewarm must equal a 1-worker Prewarm's, with no data races.
go test -race -count=1 -run TestTelemetryParallelMergeMatchesSerial ./internal/harness/

# Serving-layer race gate, run explicitly for the same reason: the shelfd
# queue/dedup/drain machinery and the typed client are all about concurrent
# admission, and the result store is read and written by every shard owner
# at once and indexed by a parallel Open, so their suites must always
# execute under -race, uncached.
go test -race -count=1 ./internal/serve/ ./internal/store/ ./client/

# Chip determinism gate, explicitly under -race and uncached: the N-core
# chip steps one goroutine per core, and the parallel path must be
# bit-identical to deterministic lockstep — merged Result fingerprint,
# every per-core fingerprint and the allocation-decision log — for every
# allocation policy, and independent of GOMAXPROCS and the runner's worker
# count. Any cross-core state leaking into the step path fails here twice:
# as a race report and as a fingerprint mismatch. The semantic and
# scheduler differentials run on the same supervised path and join the
# runner line, with the chip job's typed refusals of drain mode and
# Attach. The harness line pins one cached outcome per job: Prewarm and
# Run never re-simulate a known deterministic failure.
go test -race -count=1 -run 'TestParallelMatchesLockstep|TestDeterministicAcrossGOMAXPROCS' ./internal/chip/
go test -race -count=1 -run 'TestChipDifferential|TestChipDeterministicAcrossWorkers|TestDifferential|TestSchedulerDifferential|TestChipRejectsDrain|TestChipRejectsAttach' ./internal/runner/
go test -race -count=1 -run 'TestPrewarmSkipsKnownFailures' ./internal/harness/
# The cycle loop's exact shortcuts join them: the completion calendar
# against the binary heap it replaced, a slow-memory run through the
# calendar's overflow chain, non-power-of-two ROB partitions under both
# schedulers, and the O(1) in-sequence exit against the full walk — each
# pinned to fingerprints taken before the shortcuts. The core event
# stream joins them: its per-kind counts and hash on one 4-thread mix,
# and the directed load-to-load forward with the litmus checker over it.
go test -race -count=1 -run 'TestCalendarMatchesHeap|TestSlowMemoryFingerprint|TestNonPowerOfTwoPartitions|TestClassifyEarlyExitMatchesWalk|TestEventStreamPinned|TestShelfLoadForwardsFromYoungerIQLoad|TestLoadToLoadStreamPassesChecker' ./internal/core/

# shelfd end-to-end smoke: build the server with -race, boot it on an
# ephemeral port with a temporary persistent store, drive a concurrent
# duplicate burst through the typed client (TestExternalServerSmoke
# asserts /healthz, pairwise fingerprint identity and the /metrics
# dedup/store accounting), then a mixed hot/cold shelfload sweep that
# must produce store hits and publishes BENCH_serve.json. SIGTERM the
# server (clean graceful-drain exit required), boot a second process on
# the SAME store, and require a hot-only sweep to be answered from the
# warm store (restart-then-rehit) with the served fingerprints matching
# an in-process run (-differential): the restart differential.
SHELFD="${SHELFD:-/tmp/shelfsim-tools/shelfd}"
SHELFLOAD="${SHELFLOAD:-/tmp/shelfsim-tools/shelfload}"
go build -race -o "$SHELFD" ./cmd/shelfd
go build -o "$SHELFLOAD" ./cmd/shelfload
STOREDIR="$(mktemp -d)"
ADDRFILE="$(mktemp)"
rm -f "$ADDRFILE" # shelfd rewrites it once the listener is bound
"$SHELFD" -addr 127.0.0.1:0 -addrfile "$ADDRFILE" -store "$STOREDIR" &
SHELFD_PID=$!
tries=0
while [ ! -s "$ADDRFILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "shelfd did not come up"; exit 1; }
    sleep 0.1
done
SHELFD_ADDR="$(cat "$ADDRFILE")" go test -race -count=1 -run TestExternalServerSmoke ./client/
# -warmup-frac drops the cold leading 10% of the schedule (empty store,
# empty dedup table) from the latency percentiles, so BENCH_serve.json
# tracks steady-state serving latency rather than first-touch simulation.
"$SHELFLOAD" -addr "$(cat "$ADDRFILE")" -n 120 -conc 8 -hot 0.7 -hotset 4 -insts 2000 \
    -warmup-frac 0.1 -min-store-hits 1 -differential -out BENCH_serve.json
kill -TERM "$SHELFD_PID"
wait "$SHELFD_PID" # non-zero here means the graceful drain failed
rm -f "$ADDRFILE"
"$SHELFD" -addr 127.0.0.1:0 -addrfile "$ADDRFILE" -store "$STOREDIR" &
SHELFD_PID=$!
tries=0
while [ ! -s "$ADDRFILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "restarted shelfd did not come up"; exit 1; }
    sleep 0.1
done
# Hot-only sweep over windows the first process stored: nothing may
# re-simulate (hit rate ~1.0), and the served fingerprints must equal an
# in-process run of the same request.
"$SHELFLOAD" -addr "$(cat "$ADDRFILE")" -n 40 -conc 8 -hot 1.0 -hotset 4 -insts 2000 \
    -min-store-hits 1 -min-store-hit-rate 0.9 -differential
kill -TERM "$SHELFD_PID"
wait "$SHELFD_PID"
rm -f "$ADDRFILE"
rm -rf "$STOREDIR"

# Serving-layer perf gate. BENCH_serve.json (from the mixed hot/cold
# shelfload sweep above, against the -race server binary) records request
# latency and the cache effectiveness of the serving stack; the gate
# fails if p99 latency exceeds the checked-in ceiling or the store hit
# rate falls below the floor. Like the core baseline, the ceiling is set
# far above quiet-machine numbers because shared runners swing latency.
MAX_P99=$(sed -n 's/.*"max_p99_ms": *\([0-9.][0-9.]*\).*/\1/p' scripts/bench_serve_baseline.json)
MIN_HIT=$(sed -n 's/.*"min_store_hit_rate": *\([0-9.][0-9.]*\).*/\1/p' scripts/bench_serve_baseline.json)
P99=$(sed -n 's/.*"p99_ms": *\([0-9.][0-9.]*\).*/\1/p' BENCH_serve.json)
HITRATE=$(sed -n 's/.*"store_hit_rate": *\([0-9.][0-9.]*\).*/\1/p' BENCH_serve.json)
awk -v p99="$P99" -v max="$MAX_P99" -v hit="$HITRATE" -v min="$MIN_HIT" 'BEGIN {
    if (p99 == "" || max == "" || hit == "" || min == "") { print "missing BENCH_serve values"; exit 1 }
    if (p99 + 0 > max + 0) { printf "serve p99 %.1f ms above ceiling %.1f ms\n", p99, max; exit 1 }
    if (hit + 0 < min + 0) { printf "store hit rate %.3f below floor %.3f\n", hit, min; exit 1 }
}'
cat BENCH_serve.json

# Memory-model torture gate: a fixed-seed litmus smoke campaign (1000
# instances across all six patterns) under -race with per-cycle invariants
# and the axiomatic checker on, plus the fault-injection matrix — every
# injected corruption must be caught by a typed invariant, so a silent
# pass fails the campaign. A violation writes the shrunken-seed failure
# manifest where CI collects artifacts.
SHELFLITMUS="${SHELFLITMUS:-/tmp/shelfsim-tools/shelflitmus}"
LITMUS_MANIFEST="${LITMUS_MANIFEST:-/tmp/litmus_manifest.json}"
go build -race -o "$SHELFLITMUS" ./cmd/shelflitmus
if ! "$SHELFLITMUS" -n 1000 -seed 1 -preset shelf64-opt -fault-sample 3 \
    -manifest "$LITMUS_MANIFEST"; then
    [ -s "$LITMUS_MANIFEST" ] && cat "$LITMUS_MANIFEST"
    exit 1
fi
# Practical steering never shelves a store, so it never coalesces one; a
# second, smaller sweep pins everything to the shelf to keep the
# coalescing axioms exercised against live traffic. Neither sweep reaches
# load-to-load forwarding (all-shelf steering has no IQ loads to forward
# from); TestShelfLoadForwardsFromYoungerIQLoad and
# TestLoadToLoadStreamPassesChecker in internal/core cover that path.
if ! "$SHELFLITMUS" -n 300 -seed 2 -preset shelf64-opt -steer all-shelf \
    -fault-sample 0 -manifest "$LITMUS_MANIFEST"; then
    [ -s "$LITMUS_MANIFEST" ] && cat "$LITMUS_MANIFEST"
    exit 1
fi

# The benchmark-output awk patterns below accept the optional -N
# GOMAXPROCS suffix Go appends to benchmark names on multi-CPU hosts.
#
# Telemetry overhead gate. Telemetry off means the core's event stream has
# no consumer: each emission site costs one nil check on the stream's sink
# and builds no event. Telemetry on feeds every event to the collector
# through one indirect call. Off-vs-on measured in one process is the
# stable proxy for off-vs-seed (a cross-commit rerun would confound machine
# noise with the change). Best-of-3 per benchmark filters scheduler noise;
# fail if the telemetry-off best is slower than 97% of the telemetry-on
# best — that can only happen through a pathological regression in the off
# path, since on does strictly more work.
go test -run '^$' -bench 'BenchmarkSimulatorThroughput$|BenchmarkSimulatorThroughputTelemetry$|BenchmarkSimulatorThroughputBase$' \
    -benchtime 2x -count 3 . | tee /tmp/bench_obs.txt
awk '
    /^BenchmarkSimulatorThroughput(-[0-9]+)? /          { if ($(NF-1) > off) off = $(NF-1) }
    /^BenchmarkSimulatorThroughputTelemetry(-[0-9]+)? / { if ($(NF-1) > on)  on  = $(NF-1) }
    END {
        if (off == 0 || on == 0) { print "missing benchmark output"; exit 1 }
        overhead = 1 - on / off
        printf "{\n  \"telemetry_off_insts_per_s\": %.0f,\n  \"telemetry_on_insts_per_s\": %.0f,\n  \"overhead_frac\": %.4f\n}\n", off, on, overhead > "BENCH_obs.json"
        if (off < on * 0.97) {
            printf "telemetry-off throughput %.0f below 97%% of telemetry-on %.0f\n", off, on
            exit 1
        }
    }
' /tmp/bench_obs.txt
cat BENCH_obs.json

# Core scheduler perf gate. The incremental wakeup–select engine and the
# allocation-free hot path (DESIGN.md "Scheduler") are this simulator's
# throughput story; BENCH_core.json records absolute insts/s for the
# default Shelf64 and Base64 configs and the gate fails if the best-of-3
# drops below 90% of the checked-in baseline. The baseline is set below
# quiet-machine measurements on purpose: shared runners swing single runs
# by ~20%, and best-of-3 only needs one quiet run to clear a floor, so a
# conservative reference keeps the gate meaningful without being flaky.
# Raise the baseline when a perf PR moves the quiet-machine numbers.
SHELF_BASELINE=$(sed -n 's/.*"shelf64_insts_per_s": *\([0-9][0-9]*\).*/\1/p' scripts/bench_core_baseline.json)
BASE_BASELINE=$(sed -n 's/.*"base64_insts_per_s": *\([0-9][0-9]*\).*/\1/p' scripts/bench_core_baseline.json)
awk -v shelf_ref="$SHELF_BASELINE" -v base_ref="$BASE_BASELINE" '
    /^BenchmarkSimulatorThroughput(-[0-9]+)? /     { if ($(NF-1) > shelf) shelf = $(NF-1) }
    /^BenchmarkSimulatorThroughputBase(-[0-9]+)? / { if ($(NF-1) > base)  base  = $(NF-1) }
    END {
        if (shelf == 0 || base == 0) { print "missing core benchmark output"; exit 1 }
        if (shelf_ref == 0 || base_ref == 0) { print "missing bench_core_baseline.json values"; exit 1 }
        printf "{\n  \"shelf64_insts_per_s\": %.0f,\n  \"base64_insts_per_s\": %.0f,\n  \"shelf64_vs_baseline\": %.3f,\n  \"base64_vs_baseline\": %.3f\n}\n", shelf, base, shelf / shelf_ref, base / base_ref > "BENCH_core.json"
        if (shelf < shelf_ref * 0.9) {
            printf "shelf64 throughput %.0f insts/s below 90%% of baseline %.0f\n", shelf, shelf_ref
            exit 1
        }
        if (base < base_ref * 0.9) {
            printf "base64 throughput %.0f insts/s below 90%% of baseline %.0f\n", base, base_ref
            exit 1
        }
    }
' /tmp/bench_obs.txt
cat BENCH_core.json

# Chip-throughput scaling gate. BenchmarkChipThroughput steps a 4-core chip
# one goroutine per core; BenchmarkChipThroughputLockstep steps the same
# chip sequentially. Both fail unless the run's Result fingerprint equals
# the pinned one, so they simulate identical work and the ratio of their
# best-of-3 rates from this same run is the parallel speedup, with host
# speed cancelled. Normalizing by the CPUs actually available —
# min(nproc, 4) — yields the scaling efficiency (on 1 CPU it measures the
# goroutine-per-core path's overhead rather than impossible speedup).
# BENCH_chip.json records both rates, the per-core CPI (core-cycles per
# retired instruction, the same in both modes), the CPU count and the
# efficiency; the gate fails below the checked-in floor (0.7: with >= 4
# CPUs a 2.8x speedup over lockstep). Each metric is read by its unit
# name, not its field position.
NCPU="$(nproc 2>/dev/null || echo 1)"
go test -run '^$' -bench 'BenchmarkChipThroughput$|BenchmarkChipThroughputLockstep$' -benchtime 2x -count 3 . | tee /tmp/bench_chip.txt
MIN_EFF=$(sed -n 's/.*"min_scaling_efficiency": *\([0-9.][0-9.]*\).*/\1/p' scripts/bench_chip_baseline.json)
awk -v ncpu="$NCPU" -v min_eff="$MIN_EFF" '
    function metric(unit,    i) { for (i = 2; i < NF; i++) if ($(i + 1) == unit) return $i; return 0 }
    /^BenchmarkChipThroughput(-[0-9]+)? /         { r = metric("insts/s"); if (r > chip) chip = r; cpi = metric("core-cycles/inst") }
    /^BenchmarkChipThroughputLockstep(-[0-9]+)? / { r = metric("insts/s"); if (r > lock) lock = r }
    END {
        if (chip == 0 || lock == 0 || cpi == 0) { print "missing chip benchmark output"; exit 1 }
        if (min_eff == "") { print "missing bench_chip_baseline.json floor"; exit 1 }
        cores = ncpu + 0; if (cores > 4) cores = 4; if (cores < 1) cores = 1
        eff = chip / lock / cores
        printf "{\n  \"chip_insts_per_s\": %.0f,\n  \"lockstep_insts_per_s\": %.0f,\n  \"core_cycles_per_inst\": %.4f,\n  \"effective_cpus\": %d,\n  \"scaling_efficiency\": %.3f\n}\n", chip, lock, cpi, cores, eff > "BENCH_chip.json"
        if (eff < min_eff + 0) {
            printf "chip scaling efficiency %.3f below floor %s (parallel %.0f vs lockstep %.0f insts/s on %d CPUs)\n", eff, min_eff, chip, lock, cores
            exit 1
        }
    }
' /tmp/bench_chip.txt
cat BENCH_chip.json
