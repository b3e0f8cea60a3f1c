#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the root of a
# checkout, e.g.
#
#   bash perfbench/run.sh --workload serve_sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ in the checkout; nothing is fetched (GOPROXY=off).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/perfbench"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
