package exec

import (
	"github.com/tukwila/adp/internal/types"
)

// Columnar shims. Rows travel the engine as row batches only, signed or not
// (see Sink and DeltaSink), from the leaves to the partition merge: every
// hash build retains its rows as tuples, so a columnar frame between two
// operators is transposed in at one and back out at the next, and both
// end-to-end measurements of that wiring came out behind the row batches
// (docs/architecture.md has the numbers). What remains columnar is the
// shims below, which benchmark/probes.go compiles against: each materializes
// its batch once and calls the row entry the engine runs, so a shim means
// exactly what pushing the equivalent row batch means — output order,
// counters and clock are identical.

// ColBatchSink is a Sink that also accepts struct-of-arrays batches. The
// batch is owned by the caller and valid only for the duration of the call.
type ColBatchSink interface {
	Sink
	// PushColBatch pushes the batch's rows in order. b must not be
	// retained.
	PushColBatch(b *types.ColBatch)
}

// colDelivery turns columnar batches into row batches: the rows are carved
// from a slab arena (downstream may retain them), and the row-header slice
// is reused across batches.
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

// PushLeftColBatch is PushLeftBatch of b's rows.
func (j *HashJoin) PushLeftColBatch(b *types.ColBatch) { j.push(0, j.colIn.materialize(b), 0) }

// PushRightColBatch is PushRightBatch of b's rows.
func (j *HashJoin) PushRightColBatch(b *types.ColBatch) { j.push(1, j.colIn.materialize(b), 0) }

// PushDeltaLeft is the left side's PushSigned of b's rows.
func (j *HashJoin) PushDeltaLeft(b *types.ColBatch, sign int) {
	j.push(0, j.colIn.materialize(b), sign)
}

// PushDeltaRight is the right side's PushSigned of b's rows.
func (j *HashJoin) PushDeltaRight(b *types.ColBatch, sign int) {
	j.push(1, j.colIn.materialize(b), sign)
}

// PushColBatch implements ColBatchSink as PushBatch of b's rows.
func (a *AggTable) PushColBatch(b *types.ColBatch) { a.PushBatch(a.colIn.materialize(b)) }

// PushDelta is PushSigned of b's rows.
func (a *AggTable) PushDelta(b *types.ColBatch, sign int) { a.PushSigned(a.colIn.materialize(b), sign) }

// PushColBatch implements ColBatchSink as PushBatch of b's rows.
func (e *Exchange) PushColBatch(b *types.ColBatch) { e.PushBatch(e.colIn.materialize(b)) }

// RouteCol does nothing: every partition's rows leave through the row route
// the exchange was built with. It remains for benchmark/probes.go, which
// installs a columnar route before it times PushColBatch.
func (e *Exchange) RouteCol(func(part int, b *types.ColBatch)) {}

// PushColBatch implements ColBatchSink as PushBatch of b's rows.
func (b *partitionBuf) PushColBatch(cb *types.ColBatch) { b.PushBatch(b.colIn.materialize(cb)) }
