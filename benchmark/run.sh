#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache and temp
# files included, so nothing is written outside the checkout) and runs it
# from the repository root. Arguments pass straight through:
#
#   bash benchmark/run.sh --workload agg_par2 --seed 7 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/benchmark" build -o "$build/adp-benchmark" .
# MADV_FREE in place of MADV_DONTNEED: a page fault costs this microVM
# about 20 us, and memory the Go scavenger returned and the next op takes
# back would otherwise add 10 to 120 ms of faults to an op at random.
export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0"
cd "$root"
exec "$build/adp-benchmark" "$@"
