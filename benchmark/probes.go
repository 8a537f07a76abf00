package main

import (
	"time"

	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/server"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

// probeBatch is the rows per columnar batch the probes push; the
// parallel driver reads in runs of this size.
const probeBatch = 512

// The kernel probes time one kernel alone, through its public
// constructor, on batches cut from the run's own orders and lineitem
// (joined on the order key, as every workload's query joins them) and on
// its own result rows. They give the cost a layer has when nothing
// overlaps it; the waterfall's self times give the part that blocks.

// probeReps is how often each probe repeats; it reports the median.
func probeReps(quick bool) int {
	if quick {
		return 1
	}
	return 5
}

// perRow runs fn reps times and returns the median nanoseconds per row.
// fn does its own set-up and returns the time of the measured part.
func perRow(reps, rows int, fn func() time.Duration) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		ns[i] = float64(fn()) / float64(rows)
	}
	return median(ns)
}

// batches cuts rows into columnar batches of probeBatch rows.
func batches(rows []types.Tuple) []*types.ColBatch {
	var out []*types.ColBatch
	for i := 0; i < len(rows); i += probeBatch {
		out = append(out, types.FromRows(rows[i:min(i+probeBatch, len(rows))], len(rows[0])))
	}
	return out
}

// kernelProbes returns the exec, state, types, ivm and server-encode
// metrics of one run.
func kernelProbes(e *env, reps int) ([]metric, error) {
	orders, lineitem := e.in.data.Orders.Rows, e.in.data.Lineitem.Rows
	ob, lb := batches(orders), batches(lineitem)
	key := []int{0} // o_orderkey and l_orderkey both lead their schema
	newJoin := func() *exec.HashJoin {
		return exec.NewHashJoin(exec.NewContext(), exec.Pipelined,
			datagen.OrdersSchema, datagen.LineitemSchema, key, key, exec.Discard)
	}
	aggOf := func() (*exec.AggTable, error) {
		return exec.NewAggTable(exec.NewContext(), datagen.LineitemSchema,
			[]string{"lineitem.l_orderkey"}, workload.Q3A().Aggs) // sum of revenue per order
	}
	if _, err := aggOf(); err != nil {
		return nil, err
	}
	newAgg := func() *exec.AggTable {
		agg, _ := aggOf() // checked above: the arguments are constants
		return agg
	}
	both := len(orders) + len(lineitem)
	// The result rows, repeated to a few thousand where the query returns
	// a handful, so that a per-row cost is resolved.
	result := append([]types.Tuple(nil), e.ref.rows...)
	for len(result) < 4096 {
		result = append(result, e.ref.rows...)
	}

	out := []metric{
		{name: "exec.join_push_ns_per_row", unit: "ns", value: perRow(reps, both, func() time.Duration {
			j := newJoin()
			elapsed := stopwatch()
			for _, b := range ob {
				j.PushLeftColBatch(b)
			}
			for _, b := range lb {
				j.PushRightColBatch(b)
			}
			return elapsed()
		})},
		{name: "exec.agg_absorb_ns_per_row", unit: "ns", value: perRow(reps, len(lineitem), func() time.Duration {
			agg := newAgg()
			elapsed := stopwatch()
			for _, b := range lb {
				agg.PushColBatch(b)
			}
			return elapsed()
		})},
		{name: "exec.exchange_scatter_ns_per_row", unit: "ns", value: perRow(reps, len(lineitem), func() time.Duration {
			ex := exec.NewExchange(2, key, func(int, []types.Tuple) {})
			ex.RouteCol(func(int, *types.ColBatch) {})
			elapsed := stopwatch()
			for _, b := range lb {
				ex.PushColBatch(b)
			}
			return elapsed()
		})},
		{name: "exec.merge_release_ns_per_row", unit: "ns", value: perRow(reps, len(lineitem), func() time.Duration {
			merge := exec.NewPartitionMerge(2)
			sink := merge.Sink(0).(exec.ColBatchSink)
			elapsed := stopwatch()
			for _, b := range lb {
				sink.PushColBatch(b)
				merge.ReleasePrefix(exec.Discard)
			}
			return elapsed()
		})},
		// Signed kernels: every batch goes in and comes out again, the
		// insert-then-retract a churn script does to a row.
		{name: "exec.join_delta_ns_per_row", unit: "ns", value: perRow(reps, len(orders)+2*len(lineitem), func() time.Duration {
			j := newJoin()
			elapsed := stopwatch()
			for _, b := range ob {
				j.PushDeltaLeft(b, +1)
			}
			for _, b := range lb {
				j.PushDeltaRight(b, +1)
				j.PushDeltaRight(b, -1)
			}
			return elapsed()
		})},
		{name: "exec.agg_delta_ns_per_row", unit: "ns", value: perRow(reps, 2*len(lineitem), func() time.Duration {
			agg := newAgg()
			agg.EnableMaintenance()
			sink := exec.Discard.(exec.DeltaSink)
			elapsed := stopwatch()
			for _, b := range lb {
				agg.PushDelta(b, +1)
				agg.EmitRevisionsTo(sink)
				agg.PushDelta(b, -1)
				agg.EmitRevisionsTo(sink)
			}
			return elapsed()
		})},
	}

	// state: build on lineitem's order key, probe with every order.
	var table *state.HashTable
	out = append(out,
		metric{name: "state.insert_ns_per_row", unit: "ns", value: perRow(reps, len(lineitem), func() time.Duration {
			table = state.NewHashTable(datagen.LineitemSchema, key)
			elapsed := stopwatch()
			for _, t := range lineitem {
				table.Insert(t)
			}
			return elapsed()
		})},
		metric{name: "state.probe_ns_per_row", unit: "ns", value: perRow(reps, len(orders), func() time.Duration {
			hits := 0
			elapsed := stopwatch()
			for _, t := range orders {
				table.Probe(t[:1], func(types.Tuple) bool { hits++; return true })
			}
			return elapsed()
		})},
	)
	chain := 0
	for _, t := range orders {
		chain += table.ChainLen(t[:1])
	}
	out = append(out, metric{name: "state.chain_len_mean", unit: "count", value: float64(chain) / float64(len(orders))})

	// types: the key-hash kernel and the two transposes.
	var hashes []uint64
	var rowsBuf []types.Tuple
	out = append(out,
		metric{name: "types.hashkeys_ns_per_row", unit: "ns", value: perRow(reps, len(lineitem), func() time.Duration {
			elapsed := stopwatch()
			for _, b := range lb {
				hashes = types.HashKeys(hashes, b, key)
			}
			return elapsed()
		})},
		metric{name: "types.fromrows_ns_per_row", unit: "ns", value: perRow(reps, len(lineitem), func() time.Duration {
			elapsed := stopwatch()
			batches(lineitem)
			return elapsed()
		})},
		metric{name: "types.torows_ns_per_row", unit: "ns", value: perRow(reps, len(lineitem), func() time.Duration {
			elapsed := stopwatch()
			for _, b := range lb {
				rowsBuf = b.ToRows(rowsBuf[:0])
			}
			return elapsed()
		})},
	)

	// ivm: the ingress clamp over lineitem and the run's delta script (the
	// lineitem rows themselves, retracted, where the workload has none),
	// and the fold of the result asserted as updates.
	script := e.in.script
	tracked := len(lineitem) + len(script)
	if len(script) == 0 {
		tracked = 2 * len(lineitem)
	}
	updates := make([]ivm.Update, len(result))
	for i, r := range result {
		updates[i] = ivm.Update{Row: r, Sign: +1}
	}
	out = append(out,
		metric{name: "ivm.tracker_ns_per_delta", unit: "ns", value: perRow(reps, tracked, func() time.Duration {
			tr := ivm.NewBaseTracker()
			elapsed := stopwatch()
			for _, t := range lineitem {
				tr.Add(t)
			}
			for _, d := range script {
				if d.Sign > 0 {
					tr.Add(d.Row)
				} else {
					tr.Remove(d.Row)
				}
			}
			if len(script) == 0 {
				for _, t := range lineitem {
					tr.Remove(t)
				}
			}
			return elapsed()
		})},
		metric{name: "ivm.fold_ns_per_update", unit: "ns", value: perRow(reps, len(updates), func() time.Duration {
			elapsed := stopwatch()
			ivm.Fold(updates)
			return elapsed()
		})},
	)

	// server: the frame encoder over the result rows, into a reused
	// buffer flushed at the handler's threshold.
	var wire int
	encode := perRow(reps, len(result), func() time.Duration {
		buf := make([]byte, 0, 16<<10)
		wire = 0
		elapsed := stopwatch()
		for _, r := range result {
			if e.in.spec.standing {
				buf = server.AppendUpdateFrame(buf, r, +1)
			} else {
				buf = server.AppendRowFrame(buf, r)
			}
			if len(buf) >= 8<<10 {
				wire += len(buf)
				buf = buf[:0]
			}
		}
		wire += len(buf)
		return elapsed()
	})
	out = append(out,
		metric{name: "server.encode_ns_per_row", unit: "ns", value: encode},
		metric{name: "server.encode_bytes_per_row", unit: "B", value: float64(wire) / float64(len(result))},
	)
	return out, nil
}
