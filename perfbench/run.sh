#!/usr/bin/env bash
# Builds the shelfsim benchmark from source (non-race) and runs it.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, fixture stores, trace artifacts) stays under
# .bench_build in the current directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# The serving workloads' fixture store is built in a process of its own,
# so the measured process's peak RSS is its own set-up and serving.
"$out/perfbench" -root "$root" -work "$out" -prepare "$@"
exec "$out/perfbench" -root "$root" -work "$out" "$@"
