#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Everything built or written stays inside the checkout:
# .bench_build/ holds the Go build cache, the three binaries and the run's
# temporary directories; bench/out/ holds the artifacts of a full run.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
