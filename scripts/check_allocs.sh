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
check 'BenchmarkAggTableMergeFrom'               0  # PR 18: partition-table fold; since the group store: groups copied, merged, or chunks adopted
check 'BenchmarkExchangePartition/rows'          2  # PR 4: exchange row scatter, steady-state <= 2 per batch
check 'BenchmarkExchangePartition/columnar'      2  # columnar shim: one transpose, then the row scatter
check 'BenchmarkPartitionMergeRelease'           1  # order-releasing root flush, rows in and out of one reused buffer (1 = headroom)
check 'BenchmarkStitchUp'                      110  # PR 21: 3 phases x 3 relations with reuse: 9 indexes, prefix chunks, arenas (103; 49807 before)
# One corrective Q5 at SF 0.002 that switches twice and stitches up: 6680 allocs and 5.33 MB
# measured since a finished phase's index storage goes to the next phase's sized tables and
# the stitch-up's indexes (6701 allocs and 7.80 MB when every phase allocated its own).
# Since a finished run's storage serves the next run: 6640 allocs and 1.92 MB at steady
# state, 6643 allocs and 2.10 MB the worst of 13 runs (an op whose run finds no pooled spare
# on its P allocates as a cold one does); 6740 allocs and 5.34 MB cold, on a drained pool
# (one op in a fresh process). Budgets 1.25 x the worst steady-state measurement.
# Since aggregate groups live in a pooled group store: 6624-6628 allocs and 1.74-1.92 MB over
# twelve runs (the parent, six runs beside them: 6640-6641 allocs, 1.92 MB); the allocs budget
# is 1.25 x 6628, the bytes did not move.
check 'BenchmarkCorrectiveRun'                8285  # three phases' trees, the stitch-up, the optimizer's calls
check 'BenchmarkCorrectiveRun'             2628000 B/op
# One static Q3A at SF 0.005 over two partitions (the agg_par2 shape), ended as RunStream ends
# a run: 2477-2480 allocs and 1.81-1.89 MB at steady state over six runs of 20 ops; cold, on a
# drained pool (one op in a fresh process), 2651-2653 allocs and 5.03 MB. The parent, whose
# groups were map entries and four heap objects each: 10491-10492 allocs and 2.64-2.65 MB at
# steady state, 10633-10637 allocs and 5.50-5.51 MB cold. Budgets 1.25 x the worst steady-state
# measurement.
check 'BenchmarkParallelAggRun'               3100  # two partition tables folded into the shared one
check 'BenchmarkParallelAggRun'            2363000 B/op
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
# 3.93 / 6.84 / 15.57 MB. Since a finished run's storage serves the next run (the benchmark
# ends each run as RunMaintenance does): 7346 / 7525 / 11330 allocs and 2.71 / 4.61 / 8.39 MB
# at steady state, the worst of 12 runs (2.20–2.71 / 3.39–4.61 / 6.89–8.39 MB: an op whose
# run finds no pooled spare on its P allocates as a cold one does); cold, on a drained pool
# (one op in a fresh process), 7390 / 7589 / 11492 allocs and 3.93 / 6.85 / 15.60 MB. All
# budgets are 1.25 x the worst steady-state measurement. Since aggregate groups live in a
# pooled group store, seven runs each: 3914-3924 / 4078-4111 / 5144-5157 allocs and 2.06-2.39 /
# 3.24-4.53 / 6.72-7.87 MB (the parent, six runs beside them: 7335-7340 / 7490-7515 / 11310-11334 allocs
# and 2.30-2.50 / 3.18-4.20 / 6.89-8.77 MB); the allocs budgets are 1.25 x the worst, the
# bytes, inside the spread measured before, keep theirs.
check 'BenchmarkStandingSetup/adopted'        4905  # the initial phase's tree is the maintenance tree
check 'BenchmarkStandingSetup/switched'       5139  # + one tree built from the adopted one's lists
check 'BenchmarkStandingSetup/replayed-p4'    6447  # four partitions: a tree warmed through a live root
check 'BenchmarkStandingSetup/adopted'     3386000 B/op
check 'BenchmarkStandingSetup/switched'    5760000 B/op
check 'BenchmarkStandingSetup/replayed-p4' 10485000 B/op
# The delta tracker seeded with SF 0.005's 30113 lineitem rows: 49 allocs and 1.75 MB measured
# (the string-key tracker: 30383 allocs, 4.94 MB). Budgets 1.25 x the measurement.
check 'BenchmarkBaseTrackerSeed'                62  # slot-table doublings and 1024-entry chunks
check 'BenchmarkBaseTrackerSeed'           2200000 B/op
# The standing handler's decode of a 9000-delta lineitem body (0.65 MB) from its text: 52 allocs
# and 4.05 MB measured since the body is read once and no encoding/json pass runs over the
# deltas (65 allocs and 7.09 MB with a json.Decoder's buffer and a copy of the member's text;
# encoding/json into DeltaSpecs, then buildDeltas: 117060 allocs, 10.58 MB). The provider leg
# goes on to build the delta source, which reads the decoded rows in place: 64 allocs and
# 4.35 MB. Budgets 1.25 x the measurement.
check 'BenchmarkStandingDecode/decode'          65  # value slabs (a sign slot per row), delta chunks, the script's deltas
check 'BenchmarkStandingDecode/decode'     5064000 B/op
check 'BenchmarkStandingDecode/provider'        80  # + the relation's row slice and arrivals, no row copied
check 'BenchmarkStandingDecode/provider'   5434000 B/op
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
