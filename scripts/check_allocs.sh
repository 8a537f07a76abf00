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
check 'BenchmarkDeltaPropagation/join'           0  # PR 10: z-set join re-probe per signed delta row; PR 21: as batch; signed rows kept as pushed
check 'BenchmarkDeltaPropagation/agg'            2  # PR 10: signed agg absorb + revision emit per delta row
# PR 24: one standing Q3A, SF 0.002, 600 deltas (21260 / 21997 / 25855 allocs measured; the
# parent, which replayed every shape: 25120 and 45.4 MB serial, 26015 and 47.4 MB at P=4).
# The counts move by under 1 % when the warm-up goes back to one relation-sized batch;
# the bytes double, so those are gated too. All budgets are 1.25 x the measurement.
check 'BenchmarkStandingSetup/adopted'       26500  # the initial phase's tree is the maintenance tree
check 'BenchmarkStandingSetup/switched'      27400  # + one tree built from the adopted one's lists
check 'BenchmarkStandingSetup/replayed-p4'   32300  # four partitions: a tree warmed through a live root
check 'BenchmarkStandingSetup/adopted'     6480000 B/op  # 5.18 MB
# Since signed batches are rows the warm-up pushes list chunks as they are and the new tree's
# tables keep those tuples: 5.02 / 7.99 / 16.72 MB and 21243 / 21473 / 25352 allocs measured.
check 'BenchmarkStandingSetup/switched'    9980000 B/op  # 7.99 MB; 14.73 MB when chunks were transposed into columns
check 'BenchmarkStandingSetup/replayed-p4' 20900000 B/op # 16.72 MB; 24.10 MB when chunks were transposed into columns
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
