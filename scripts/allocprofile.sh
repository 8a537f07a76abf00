#!/usr/bin/env bash
# Where the bytes of a benchmark op go: a heap profile of one workload's
# measured ops alone, printed as `pprof -top` in MB per op.
#
# Usage: scripts/allocprofile.sh WORKLOAD [OPS]    (make alloc-profile WORKLOAD=… OPS=…)
#
# The tree is copied to a temporary directory (benchmark/ resolves ../ for
# the engine), and a profile test is dropped into the copy's benchmark/:
# at seed 42 it sets the workload up (data, server, warm-up ops), writes a
# base heap profile, runs OPS measured ops (default 30) and writes a second
# one. Each profile follows one runtime.GC(), which publishes it and keeps
# the pooled spares (a second collection would empty the pool and make the
# next op cold). The second profile less the base is the measured ops'
# allocation; flat and cum are divided by OPS. Nothing under the repo's own
# benchmark/ changes, and the copy is removed on exit.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
workload="${1:?usage: scripts/allocprofile.sh WORKLOAD [OPS]}"
ops="${2:-30}"
[[ "$workload" =~ ^[a-z0-9_]+$ ]] || { echo "allocprofile: bad workload name: $workload" >&2; exit 2; }
[[ "$ops" =~ ^[1-9][0-9]*$ ]] || { echo "allocprofile: OPS must be a positive integer: $ops" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
tar -C "$root" --exclude=.git --exclude=.bench_build --exclude=bin -cf - . | tar -xf - -C "$tmp/"

cat >"$tmp/benchmark/allocprofile_test.go" <<EOF
package main

import (
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
)

func TestAllocProfile(t *testing.T) {
	runtime.MemProfileRate = 4096
	sp, err := specByName("$workload")
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup(sp, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	write := func(path string) {
		runtime.GC()
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	write("$tmp/base.prof")
	w := e.measure(0, $ops)
	if w.failed > 0 {
		t.Fatalf("%d of %d ops failed: %v", w.failed, w.attempted, w.firstErr)
	}
	write("$tmp/ops.prof")
	t.Logf("%s: %d ops, alloc_mb_per_op %.3f (MemStats, the harness's figure)", "$workload", w.attempted, float64(w.allocBytes)/1e6/float64(w.attempted))
}
EOF

export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
if ! log="$(cd "$tmp/benchmark" && go test -count=1 -v -run '^TestAllocProfile$' . 2>&1)"; then
	echo "$log" >&2
	exit 1
fi
grep 'alloc_mb_per_op' <<<"$log"
echo "pprof alloc_space of the $ops measured ops, MB per op (MB = 2^20 bytes):"
go tool pprof -sample_index=alloc_space -unit=MB -top -base "$tmp/base.prof" "$tmp/ops.prof" 2>/dev/null |
	awk -v n="$ops" '
	function perop(v) { sub(/MB$/, "", v); return sprintf("%.3fMB", v / n) }
	/^Showing nodes accounting for/ {
		sub(/for -?[0-9.]+MB/, "for " perop($5)); sub(/of -?[0-9.]+MB/, "of " perop($(NF-1)))
	}
	/^ *-?[0-9.]+MB / {
		name = $0
		for (i = 1; i <= 5; i++) sub(/^ *[^ ]+/, "", name)
		printf "%10s %7s %7s %10s %7s%s\n", perop($1), $2, $3, perop($4), $5, name
		next
	}
	{ print }'
