#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it from the root
# of a checkout; every argument is passed through to the benchmark.
#
#   bash perfbench/run.sh --workload bulk_compress --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the benchmark's scratch files all stay
# under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --scratch "$out" "$@"
