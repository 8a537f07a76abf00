package exec

import (
	"github.com/tukwila/adp/internal/types"
)

// Columnar kernels. The engine moves unsigned rows as row batches only
// (see Sink): every hash build retains its rows as tuples, so a columnar
// frame between two joins is transposed in at one and back out at the
// next, and both end-to-end measurements of that wiring came out behind
// the row batches (docs/architecture.md has the numbers). This file holds
// what the signed path runs on — a delta batch is a ColBatch with a sign
// (delta.go) — and the unsigned entries only benchmark/probes.go still
// calls (HashJoin's and AggTable's; Exchange's is in exchange.go). Both
// share the key machinery: one types.HashKeys sweep hashes a whole batch's
// key columns into a reused hash vector that state.HashTable's
// InsertHashedBatch / ProbeHashedBatch and AggTable group routing then
// spend. An unsigned entry means exactly what pushing the equivalent row
// batch means: output order, counters and clock are identical.

// ColBatchSink is a Sink that also accepts struct-of-arrays batches. The
// batch is owned by the caller and valid only for the duration of the call;
// receivers that retain rows must materialize them as tuples (which copies
// the values).
type ColBatchSink interface {
	Sink
	// PushColBatch pushes the batch's rows in order. b must not be
	// retained.
	PushColBatch(b *types.ColBatch)
}

// colDelivery is the downstream-delivery machinery shared by columnar
// producers: the columnar entry when the sink has one, a row batch
// otherwise. The rows are carved from a slab arena (downstream may retain
// them), and the row-header slice is reused across batches.
type colDelivery struct {
	arena ValueArena
	rows  []types.Tuple
}

// materialize converts b into retention-safe row tuples. The returned
// slice obeys the batch contract (reused across calls; the tuples
// themselves are arena-backed and live forever). The whole batch's value
// storage is carved in one arena allocation and the tuples are
// capacity-capped sub-slices of it, so the steady-state cost is one slab
// amortization instead of a per-row arena bump.
func (d *colDelivery) materialize(b *types.ColBatch) []types.Tuple {
	w := b.Width()
	n := b.Len()
	rows := d.rows[:0]
	flat := d.arena.Alloc(n * w)
	for i := 0; i < n; i++ {
		t := flat[i*w : (i+1)*w : (i+1)*w]
		b.ReadRow(t, i)
		rows = append(rows, t)
	}
	d.rows = rows
	return rows
}

// PushColAll delivers a columnar batch to any sink.
func (d *colDelivery) PushColAll(s Sink, b *types.ColBatch) {
	if cs, ok := s.(ColBatchSink); ok {
		cs.PushColBatch(b)
		return
	}
	s.PushBatch(d.materialize(b))
}

// PushColBatch implements ColBatchSink for Discard.
func (discardSink) PushColBatch(*types.ColBatch) {}

// --- HashJoin ---------------------------------------------------------

// PushLeftColBatch feeds a columnar batch into the left input. This is
// the vectorized key path: one HashKeys sweep hashes the batch's key
// columns column-at-a-time, the build side bulk-inserts against that hash
// vector (InsertHashedBatch), and the opposite side is probed once per
// row through the batched probe driver — no per-tuple hashing or probe-
// key extraction anywhere. Output order and counters are identical to the
// row paths; clock totals agree up to float summation order.
func (j *HashJoin) PushLeftColBatch(b *types.ColBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if j.Style == NestedLoops {
		j.PushLeftBatch(j.colIn.materialize(b))
		return
	}
	j.counters.In += int64(n)
	j.counters.InLeft += int64(n)
	j.hashVec = types.HashKeys(j.hashVec, b, j.leftKey)
	rows := j.colIn.materialize(b)
	j.leftHT.InsertHashedBatch(j.hashVec, rows)
	if j.Style == Pipelined || j.rightDone {
		j.probeBatch(false, b, j.hashVec, rows, j.leftKey)
	} else {
		for range rows {
			j.ctx.Clock.Charge(j.ctx.Cost.HashInsert)
		}
		j.pendingProbes = append(j.pendingProbes, rows...)
	}
	j.endBatch()
}

// PushRightColBatch feeds a columnar batch into the right input (the
// mirror of PushLeftColBatch; build-then-probe joins only build here).
func (j *HashJoin) PushRightColBatch(b *types.ColBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if j.Style == NestedLoops {
		j.PushRightBatch(j.colIn.materialize(b))
		return
	}
	j.counters.In += int64(n)
	j.counters.InRight += int64(n)
	j.hashVec = types.HashKeys(j.hashVec, b, j.rightKey)
	rows := j.colIn.materialize(b)
	j.rightHT.InsertHashedBatch(j.hashVec, rows)
	if j.Style == Pipelined {
		j.probeBatch(true, b, j.hashVec, rows, j.rightKey)
	} else {
		for range rows {
			j.ctx.Clock.Charge(j.ctx.Cost.HashInsert)
		}
	}
	j.endBatch()
}

// probeBatch probes the opposite table once per batch row: hashes[i] and
// rows[i]'s keyCols form row i's probe. The batch's rows were already
// bulk-inserted into their own table, but insert and chain-walk work is
// charged per row in the row path's exact interleave (insert, probe
// work, then that row's emit Moves) — float summation order is
// observable, and the equivalence pins require byte-identical clocks.
// The probed table does not change during the batch, so charging rows as
// the probe driver reaches them is exact. Matches emit in row order;
// probedLeft says the probed table is the left one, so matches are the
// left operand.
//
// With a columnar downstream, output is built directly from the probe
// hits: the hit emitter gathers probe-side values column-at-a-time out of
// b's dense storage and spreads match tuples into the output columns — no
// output row is ever materialized, and the reused output batch means the
// steady-state emit allocates nothing. Otherwise hits emit through the
// shared row emitter exactly as before.
//
//adp:hotpath gated by BenchmarkPipelinedJoinPush/columnar (scripts/check_allocs.sh)
func (j *HashJoin) probeBatch(probedLeft bool, b *types.ColBatch, hashes []uint64, rows []types.Tuple, keyCols []int) {
	table := j.rightHT
	if probedLeft {
		table = j.leftHT
	}
	// chargeThrough accounts rows [next, i] the moment the probe driver
	// reaches row i (or, after the sweep, the hitless tail): one insert
	// plus 1+chainLen probe work each, exactly like the row path.
	next := 0
	chargeThrough := func(i int) {
		for ; next <= i; next++ {
			j.ctx.Clock.Charge(j.ctx.Cost.HashInsert)
			work := 1.0 + float64(table.ChainLenHashed(hashes[next]))
			j.ctx.Clock.Charge(work * j.ctx.Cost.HashProbe)
		}
	}
	if j.colOut != nil {
		// Output layout is left ++ right: when the probed table is the
		// left one, b holds right-side rows and matches are left tuples.
		probeOff, matchOff := 0, j.leftWidth
		if probedLeft {
			probeOff, matchOff = j.leftWidth, 0
		}
		j.hits.begin(j.schema.Len())
		table.ProbeHashedBatch(hashes, rows, keyCols, func(i int, match types.Tuple) bool {
			chargeThrough(i)
			j.ctx.Clock.Charge(j.ctx.Cost.Move)
			j.counters.Out++
			j.hits.add(j.colOut, b, probeOff, matchOff, int32(i), match)
			return true
		})
		chargeThrough(len(rows) - 1)
		j.hits.flush(j.colOut, b, probeOff, matchOff)
		return
	}
	if probedLeft {
		table.ProbeHashedBatch(hashes, rows, keyCols, func(i int, lt types.Tuple) bool {
			chargeThrough(i)
			j.emit(lt, rows[i])
			return true
		})
	} else {
		table.ProbeHashedBatch(hashes, rows, keyCols, func(i int, rt types.Tuple) bool {
			chargeThrough(i)
			j.emit(rows[i], rt)
			return true
		})
	}
	chargeThrough(len(rows) - 1)
}

// --- AggTable ---------------------------------------------------------

// PushColBatch implements ColBatchSink: group routing consumes one
// HashKeys vector for the whole batch — the group-by columns are hashed
// column-at-a-time, and each row's group is found by hash plus strict
// value equality, with no per-row key encoding.
func (a *AggTable) PushColBatch(b *types.ColBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if a.maint {
		// Maintenance mode: unsigned columnar input is an insert batch.
		a.PushDelta(b, 1)
		return
	}
	a.hashVec = types.HashKeys(a.hashVec, b, a.groupIdx)
	w := b.Width()
	if cap(a.rowView) < w {
		a.rowView = make(types.Tuple, w)
	}
	row := a.rowView[:w]
	for i := 0; i < n; i++ {
		a.counters.In++
		a.ctx.Clock.Charge(a.ctx.Cost.AggUpdate)
		vals := a.groupScratch(len(a.groupIdx))
		for k, gi := range a.groupIdx {
			vals[k] = b.At(i, gi)
		}
		g := a.groupForHashed(a.hashVec[i], vals)
		if a.hasArgs {
			// Argument evaluators want a row view; skip the
			// materialization entirely for arg-less aggregates (COUNT).
			b.ReadRow(row, i)
		}
		for k, spec := range a.aggs {
			var v types.Value
			if a.argEvals[k] != nil {
				v = a.argEvals[k](row)
			}
			g.states[k].accumulate(spec.Kind, v)
		}
	}
}
