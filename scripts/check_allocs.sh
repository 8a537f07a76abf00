#!/usr/bin/env bash
# Allocation-budget gate: runs the perf microbenchmarks (make bench-perf)
# and fails when any pinned allocs/op budget regresses. The raw benchmark
# output is written to the file named by the first argument (default
# bench-perf.txt) so CI can archive it for the perf trajectory.
#
# Usage: scripts/check_allocs.sh [out-file]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench-perf.txt}"
make bench-perf | tee "$out"

fail=0

# check <benchmark-name-regex> <max-per-op> [unit]
# Takes the WORST (max) value of unit (allocs/op unless given: B/op) among
# matching result lines, so a regression in any sub-benchmark trips the gate.
check() {
  local pattern="$1" budget="$2" unit="${3:-allocs/op}" worst
  worst=$(awk -v pat="$pattern" -v unit="$unit" '$1 ~ pat {
      for (i = 2; i <= NF; i++) if ($i == unit) print $(i-1)
    }' "$out" | sort -n | tail -1)
  if [ -z "${worst}" ]; then
    echo "check-allocs: FAIL: no benchmark result matched '$pattern'" >&2
    fail=1
    return
  fi
  if [ "$worst" -gt "$budget" ]; then
    echo "check-allocs: FAIL: $pattern = $worst $unit, budget $budget" >&2
    fail=1
  else
    echo "check-allocs: ok:   $pattern = $worst $unit (budget $budget)"
  fi
}

# Pinned budgets (see ROADMAP.md / PR history). An op in the push
# benchmarks delivers one tuple per side. The columnar budgets gate the shims
# benchmark/probes.go times: each transposes its batch once and runs the row
# entry (docs/architecture.md).
check 'BenchmarkHashTableProbe'                  0  # both probe variants: allocation-free
check 'BenchmarkHashTableInsert'                 0  # PR 21: growing and fixed build, chunks and re-links round to zero per row
check 'BenchmarkPipelinedJoinPush/batch(-[0-9]+)?$'    0  # PR 1 headline (<= 2); PR 21: a build appends to chunks, nothing per row
check 'BenchmarkPipelinedJoinPush/columnar(-[0-9]+)?$' 2  # PR 3/9: columnar push never above the row path; now a shim over it
check 'BenchmarkPipelinedJoinPush/batch-wide(-[0-9]+)?$' 0  # PR 9: wide-schema row baseline; PR 21: as batch
check 'BenchmarkPipelinedJoinPush/batch-wide-recycled'  0  # PR 17: copying consumer, emit arena rewound per delivery
check 'BenchmarkPipelinedJoinPush/columnar-wide' 2  # PR 9: wide-schema columnar entry
check 'BenchmarkHashKeys'                        0  # PR 3: vectorized hash kernel reuse path
check 'BenchmarkMergeJoinPush/batch'             4  # PR 2: batched ordered merge join
check 'BenchmarkAggTableAbsorb'                  1  # group-by absorb: zero steady-state (1 = headroom)
check 'BenchmarkAggTableMergeFrom'               0  # PR 18: partition-table fold, groups adopted or already present
check 'BenchmarkExchangePartition/rows'          2  # PR 4: exchange row scatter, steady-state <= 2 per batch
check 'BenchmarkExchangePartition/columnar'      2  # columnar shim: one transpose, then the row scatter
check 'BenchmarkPartitionMergeRelease'           1  # order-releasing root flush, rows in and out of one reused buffer (1 = headroom)
check 'BenchmarkStitchUp'                      110  # PR 21: 3 phases x 3 relations with reuse: 9 indexes, prefix chunks, arenas (103; 49807 before)
check 'BenchmarkStreamDelivery/next'             1  # PR 17: cursor Next() per row = its clone, whole pipeline on the count
check 'BenchmarkStreamDelivery/batch'            0  # PR 17: cursor NextBatch(), rows read on lent batches
# The SPJ P>1 root path: a stream's first row through the order-releasing partition merge.
# 1.93 MB and 547 allocs measured since the merge buffers rows (2.06 MB and 670 when it
# buffered columns); the budget is 1.25 x the measurement.
check 'BenchmarkFirstRow/P=4'              2412000 B/op
check 'BenchmarkFaultyNext'                      1  # PR 6: fault wrapper no-fault fast path (1 = Reset headroom)
check 'BenchmarkRowEncode'                       0  # PR 7: per-row NDJSON encode into a reused buffer
check 'BenchmarkRowEncode/wide'                  0  # spj_wide_out's ten column kinds, exact and computed floats
check 'BenchmarkRowEncode/wide'                  0 B/op
check 'BenchmarkDeltaPropagation/join'           0  # PR 10: z-set join re-probe per signed delta row; PR 21: as batch; signed rows kept as pushed
check 'BenchmarkDeltaPropagation/agg'            2  # PR 10: signed agg absorb + revision emit per delta row
# One standing Q3A, SF 0.002, 600 deltas. The counts move by under 1 % when the
# warm-up goes back to one relation-sized batch; the bytes double, so those are gated too.
# Since the delta tracker is a hash index over the rows it is given, seeding it builds no
# string keys: 8654 / 8864 / 12751 allocs and 4.12 / 7.03 / 15.77 MB measured (21243 /
# 21453 / 25338 and 5.02 / 7.93 / 16.66 MB with string keys). Since the initial result
# leaves only as the baseline window (no final groups emitted before it, and the update
# windows folded as they go instead of all at the end): 7360 / 7552 / 11385 allocs and
# 3.93 / 6.84 / 15.57 MB. All budgets are 1.25 x the measurement.
check 'BenchmarkStandingSetup/adopted'        9200  # the initial phase's tree is the maintenance tree
check 'BenchmarkStandingSetup/switched'       9440  # + one tree built from the adopted one's lists
check 'BenchmarkStandingSetup/replayed-p4'   14240  # four partitions: a tree warmed through a live root
check 'BenchmarkStandingSetup/adopted'     4920000 B/op
check 'BenchmarkStandingSetup/switched'    8560000 B/op
check 'BenchmarkStandingSetup/replayed-p4' 19470000 B/op
# The delta tracker seeded with SF 0.005's 30113 lineitem rows: 49 allocs and 1.75 MB measured
# (the string-key tracker: 30383 allocs, 4.94 MB). Budgets 1.25 x the measurement.
check 'BenchmarkBaseTrackerSeed'                62  # slot-table doublings and 1024-entry chunks
check 'BenchmarkBaseTrackerSeed'           2200000 B/op
# The standing handler's decode of a 9000-delta lineitem body (0.65 MB): 65 allocs and 7.09 MB
# measured (encoding/json into DeltaSpecs, then buildDeltas: 117060 allocs, 10.58 MB).
# Budgets 1.25 x the measurement.
check 'BenchmarkStandingDecode'                 82  # the decoder's buffer, the text, value slabs, delta slices
check 'BenchmarkStandingDecode'            8860000 B/op
# PR 25: one corrective poll's optimizer work on Q5 (CostPlan + Optimize on the query's
# planner) under "plain", "obs" and "both": 7 allocs and 880 B measured on each. The parent,
# which re-planned from scratch, took 670 / 691 / 689 allocs and 66.1 / 67.1 / 67.1 KB.
check 'BenchmarkReoptimize'                      9  # a Result, its JoinOrder, one node per join
check 'BenchmarkReoptimize'                   1100 B/op

if [ "$fail" -ne 0 ]; then
  echo "check-allocs: allocation budgets regressed" >&2
  exit 1
fi
echo "check-allocs: all allocation budgets hold"
