#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload edge_f64 --seed 7 --seconds 14 --trace 0
#
# Everything the build writes stays inside the checkout, under .bench_build/
# (the Go build cache too), and the benchmark's own files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
go build -C "$here" -o "$build/ensembler-perfbench" .
cd "$root"
exec "$build/ensembler-perfbench" -out bench/out "$@"
