#!/usr/bin/env bash
# Builds bench/e2e from source and runs it with the arguments given:
#   bash bench/run.sh --workload hot_cached --seed 1 --seconds 12 --trace 0
# Run it from the root of the repository. The build cache and the binary go
# to .bench_build/ and reports to bench/out/, so nothing is read or written
# outside the checkout.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
mkdir -p "$root/.bench_build"
go build -o "$root/.bench_build/e2e" ./bench/e2e
exec "$root/.bench_build/e2e" "$@"
