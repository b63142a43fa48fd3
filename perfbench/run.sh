#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload dd_batch --seed 1 --seconds 30 --trace 0
# Everything the build and the run write (binary, Go build cache,
# temporaries, the go command's config and telemetry, trace output)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
