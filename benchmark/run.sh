#!/usr/bin/env bash
# Entry point named by /BENCHMARK.json: builds the benchmark binary from
# source inside the checkout (Go's build and module caches included, so
# nothing is written outside it) and runs it with the given arguments, from
# the root of the checkout:
#
#   bash benchmark/run.sh --workload pingpong_short --seed 1 --seconds 10 --trace 0
#
# Without --workload it runs all seven workloads and writes
# benchmark/out/result.json; `compare A.json B.json` and `spec` pass through.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/scibench" .) >&2
cd "$root"
exec "$build/scibench" "$@"
