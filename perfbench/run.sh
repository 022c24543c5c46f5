#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The Go build cache, the binary and everything a run writes stay under
# .bench_build in the checkout ($CARGO_TARGET_DIR when set).
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
