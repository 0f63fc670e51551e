#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument is passed on. The driver runs
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# and `bash bench/run.sh all -seed 1` runs the whole set.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Everything the toolchain writes stays inside the checkout, and nothing is
# fetched: the benchmark imports only the standard library and this repository.
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/strata-bench" .
cd "$root"
exec "$build/strata-bench" "$@"
