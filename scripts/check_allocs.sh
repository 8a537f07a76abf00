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
# BenchmarkStitchUp reads 101 allocs and 0.65 MB on every run since its fixture draws the
# relations' phases in a fixed order; drawn in map order, one run in four cut a fixture that
# read 103 or 107 allocs and up to 1.32 MB. Since the prefixes take full row chunks and the
# state index from the spare and give them back, eight runs each: "cold", on a fresh empty
# spare per op, 104 allocs and 0.681 MB (the stacks that take the storage back are part of
# the op); "recycled", on the pooled spare the op before returned, 80 allocs and 63064-63169 B,
# most of it the combination's result slice. Cold's allocs budget is the measurement and one;
# the others 1.25 x the worst. Since the result rows lie in the spare's row chunks too, 14
# runs each: cold 95 allocs and 649520-649624 B, recycled 70 allocs and 3912 B on every run,
# whose B/op budget is that measurement.
check 'BenchmarkStitchUp/cold'                  96  # 3 phases x 3 relations with reuse: 9 indexes, row chunks, arenas (103; 49807 before)
check 'BenchmarkStitchUp/cold'              812100 B/op
check 'BenchmarkStitchUp/recycled'              88  # the indexes, row chunks and slabs the op before gave back
check 'BenchmarkStitchUp/recycled'            3912 B/op
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
# Since every structure takes its storage from its context's spare (growing and negative
# tables, core's lists, every arena's slabs, lent until the run ends): 6574-6579 allocs over
# eight runs, 1.07-1.49 MB over sixteen (the parent, four runs beside them: 6622-6627 allocs,
# 1.74-1.92 MB); budgets 1.25 x the worst. Since the stitch-up's prefix chunks and indexes
# come from the spare: 6563-6568 allocs and 0.807-1.028 MB over ten runs (the parent, six
# runs beside them: 6573-6577 allocs, 1.073-1.279 MB); budgets 1.25 x the worst.
# Since every chunk a run takes comes back (short first chunks too) and the benchmark runs one
# untimed op before it measures, so that no measured op starts on a pool the testing package's
# collections drained: 6480-6481 allocs and 788631-788689 B over eight runs (the parent, four
# runs beside them: 6556-6560 allocs, 806987-1028777 B); budgets 1.25 x the worst.
check 'BenchmarkCorrectiveRun'                8102  # three phases' trees, the stitch-up, the optimizer's calls
check 'BenchmarkCorrectiveRun'              986000 B/op
# One static Q3A at SF 0.005 over two partitions (the agg_par2 shape), ended as RunStream ends
# a run: 2477-2480 allocs and 1.81-1.89 MB at steady state over six runs of 20 ops; cold, on a
# drained pool (one op in a fresh process), 2651-2653 allocs and 5.03 MB. The parent, whose
# groups were map entries and four heap objects each: 10491-10492 allocs and 2.64-2.65 MB at
# steady state, 10633-10637 allocs and 5.50-5.51 MB cold. Budgets 1.25 x the worst steady-state
# measurement. Since every structure takes its storage from its context's spare: 2430-2432
# allocs and 1.34 MB over eight runs (the parent, four runs beside them: 2477-2481 allocs,
# 1.81-1.82 MB); budgets 1.25 x the worst. Since every chunk a run takes comes back, the
# driver's message buffers and the exchanges' scratch included, and one untimed op runs first:
# 2250-2251 allocs and 457349-476405 B over eight runs (the parent, four runs beside them:
# 2416-2418 allocs, 962934-990750 B); budgets 1.25 x the worst.
check 'BenchmarkParallelAggRun'               2814  # two partition tables folded into the shared one
check 'BenchmarkParallelAggRun'             596000 B/op
check 'BenchmarkStreamDelivery/next'             1  # PR 17: cursor Next() per row = its clone, whole pipeline on the count
check 'BenchmarkStreamDelivery/batch'            0  # PR 17: cursor NextBatch(), rows read on lent batches
# The SPJ P>1 root path: a stream's first row through the order-releasing partition merge.
# 1.93 MB and 547 allocs measured since the merge buffers rows (2.06 MB and 670 when it
# buffered columns); the budget is 1.25 x the measurement. Since every chunk a run takes comes
# back: 1895471-1897418 B and 461 allocs over eight runs (the parent 1925313 B, 507 allocs);
# the budget is 1.25 x the worst.
check 'BenchmarkFirstRow/P=4'              2372000 B/op
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
# bytes, inside the spread measured before, keep theirs. Since every structure takes its
# storage from its context's spare, eight runs each: 3882-3894 / 4007-4030 / 4966-4987 allocs
# and, with eight more runs, 1.68-2.17 / 2.10-3.81 / 4.01-5.41 MB (the parent, four runs
# beside them: 3918-3925 / 4082-4098 / 5140-5163 allocs and 2.17-2.39 / 3.46-4.10 /
# 6.33-8.26 MB); budgets 1.25 x the worst. Since deletes are clamped against the join side
# that holds the row and no tracker is seeded, 27 runs each (sixteen at -count=8, ten in a
# fresh process each, one of this gate): 3849-3869 / 3981-4016 / 4927-4954 allocs and
# 1.05-1.67 / 1.72-3.18 / 2.95-4.36 MB (the parent, four runs beside them: 3894-3901 /
# 4007-4037 / 4962-4978 allocs and 2.04-2.29 / 2.10-3.32 / 3.58-4.48 MB); budgets 1.25 x the
# worst. Since the windows are not folded into a second copy of the view (the baseline
# window's rows were cloned into it) and the maintained result is read off the view's state
# once, 26 runs each (eighteen in a fresh process each, eight at -count=8): 1446-1451 /
# 1572-1580 / 2522-2527 allocs and 0.58-0.70 / 1.01-1.25 / 2.18-2.20 MB (the parent, four
# runs beside them: 3840-3842 / 3973-3974 / 4919-4920 allocs and 0.81 / 1.48 / 2.42 MB);
# budgets 1.25 x the worst. Since a revision row is built in a reused scratch row and a report
# keeps no update stream, four runs each: 1436-1437 / 1561-1562 / 2511-2513 allocs and
# 0.47 / 0.56 / 1.75 MB (the parent, four runs beside them: 1442-1443 / 1568-1573 / 2518-2519
# allocs and 0.53 / 0.63-0.89 / 1.82 MB); budgets 1.25 x the worst, the bytes' kept. Since
# every chunk a run takes comes back (short first chunks, message buffers, exchange scratch),
# eight runs each: 1401-1403 / 1498-1500 / 2179-2182 allocs and 346598-346721 /
# 385327-385453 / 914580-923272 B (the parent: 1437 / 1561 / 2512 allocs and 466642 / 564852 /
# 1749875 B); cold, one op in a fresh process, 2.89 / 3.14 / 14.50 MB. The op generates its
# catalog with the timer stopped, and the collections that brings can drop the pooled spares,
# so one run in a dozen has a cold op (517541 B on switched at 40x). The allocs budgets are
# 1.25 x the worst; the bytes budgets 1.25 x the worst with one op in 20 cold.
check 'BenchmarkStandingSetup/adopted'        1754  # the initial phase's tree is the maintenance tree
check 'BenchmarkStandingSetup/switched'       1875  # + one tree built from the adopted one's lists
check 'BenchmarkStandingSetup/replayed-p4'    2728  # four partitions: a tree warmed through a live root
check 'BenchmarkStandingSetup/adopted'      593000 B/op
check 'BenchmarkStandingSetup/switched'     654000 B/op
check 'BenchmarkStandingSetup/replayed-p4' 2003000 B/op
# The SPJ leg reads its maintained result off the root join's two sides at the end: 18 runs
# (ten in a fresh process each, eight at -count=8) 3783-3786 allocs and 1.28 MB (the parent,
# which folded every window into a second copy of the view: 11598-11601 allocs, 1.79 MB);
# budgets 1.25 x the worst. Since a report keeps no update stream: 3781-3782 allocs and
# 1.19 MB in four runs (the parent 1.28 MB); the budgets kept. Since every chunk a run takes
# comes back: 3752-3753 allocs and 1131579-1131653 B over eight runs (the parent 3781 allocs,
# 1191418 B), 2.12 MB cold; budgets as the legs above: allocs 1.25 x the worst, bytes 1.25 x
# the worst with one op in 20 cold.
check 'BenchmarkStandingSetup/spj-adopted'    4692  # the adopted leg, Q3A without its group-by
check 'BenchmarkStandingSetup/spj-adopted' 1477000 B/op
# The delta tracker seeded with SF 0.005's 30113 lineitem rows: 49 allocs and 1.75 MB measured
# (the string-key tracker: 30383 allocs, 4.94 MB). Budgets 1.25 x the measurement.
check 'BenchmarkBaseTrackerSeed'                62  # slot-table doublings and 1024-entry chunks
check 'BenchmarkBaseTrackerSeed'           2200000 B/op
# The standing handler's decode of a 9000-delta lineitem body (0.65 MB) from its text: 52 allocs
# and 4.05 MB measured since the body is read once and no encoding/json pass runs over the
# deltas (65 allocs and 7.09 MB with a json.Decoder's buffer and a copy of the member's text;
# encoding/json into DeltaSpecs, then buildDeltas: 117060 allocs, 10.58 MB). The provider leg
# goes on to build the delta source, which reads the decoded rows in place: 64 allocs and
# 4.35 MB. Since the decode checks the syntax in the same pass (no json.Valid pre-pass) and
# writes into storage a request keeps, six runs each: "decode", into new storage, 43 allocs and
# 3.755 MB (one delta slice sized by the rate the body fills it: no chunks to join); "provider"
# 51 allocs and 3.756 MB (the source reads the script and its stamps in place: no row slice, no
# arrivals); "recycled", into the storage a finished request gave back, 16 allocs and
# 1904-1929 B, 13 of the allocs encoding/json's decode of the query and the options; "parent",
# the decoder before this kept as the reference, 51-52 allocs and 4.05 MB. Budgets 1.25 x the
# worst, except recycled's allocs, held at the measured 16 rather than 20. Since a body store
# keeps one json.Decoder for its query and options, seven runs each: "decode" 35-36 allocs and
# 3753803-3753808 B, "provider" 43-44 allocs and 3754660-3754664 B, "recycled" 2 allocs (the
# query's and the strategy's strings) and 10-35 B (the parent: 44, 52, 16 allocs and 3754752,
# 3755608, 1904 B). Budgets 1.25 x the worst, recycled's allocs held at the measured 2.
check 'BenchmarkStandingDecode/decode'          45  # value slabs (a sign slot per row), one delta slice a script
check 'BenchmarkStandingDecode/decode'     4693000 B/op
check 'BenchmarkStandingDecode/provider'        55  # + the delta source, which copies nothing
check 'BenchmarkStandingDecode/provider'   4694000 B/op
check 'BenchmarkStandingDecode/recycled'         2  # the query's and the options' strings
check 'BenchmarkStandingDecode/recycled'        44 B/op
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
