package exec

import (
	"github.com/tukwila/adp/internal/types"
)

// BatchSink is the vectorized extension of Sink: operators that implement
// it accept a whole slice of tuples per call, letting a pipeline segment
// amortize per-tuple call and allocation overhead across the batch. The
// batch slice is owned by the caller and is only valid for the duration of
// the call — receivers must not retain it (retaining the tuples themselves
// is fine). Semantics are exactly those of pushing each tuple in order:
// counters, virtual-clock charges, and output ordering are identical to
// the tuple-at-a-time path.
type BatchSink interface {
	Sink
	// PushBatch pushes ts in order. ts must not be retained.
	PushBatch(ts []types.Tuple)
}

// PushAll delivers a batch to any sink, using the vectorized fast path
// when the sink advertises one and falling back to tuple-at-a-time Push
// otherwise.
func PushAll(s Sink, ts []types.Tuple) {
	if bs, ok := s.(BatchSink); ok {
		bs.PushBatch(ts)
		return
	}
	for _, t := range ts {
		s.Push(t)
	}
}

// InputCopier is implemented by sinks that copy whatever they keep out of
// a pushed tuple before the push returns — an aggregate absorbing values
// into its groups, a result sink adapting rows into its own storage. A
// producer feeding such a sink may reuse the storage of the tuples it has
// pushed (see BatchEmitter); every other sink may retain what it is given.
type InputCopier interface {
	CopiesInput()
}

// discardSink drops tuples and batches (benchmarks disable query output to
// eliminate client feedback, §3.5).
type discardSink struct{}

func (discardSink) Push(types.Tuple)        {}
func (discardSink) PushBatch([]types.Tuple) {}

// Discard is a Sink that drops tuples.
var Discard Sink = discardSink{}

// arenaSlab is the value-arena slab size (values, not tuples).
const arenaSlab = 4096

// valueArena carves tuple storage out of large slabs so that operators
// whose outputs are retained downstream (join results, projections) pay
// one allocation per slab instead of one per tuple. Unless the owner calls
// rewind, slabs are never reused, so handed-out tuples remain valid
// forever; the returned slices are capacity-capped so appending to one
// cannot clobber a neighbour.
type valueArena struct {
	slab []types.Value
	// spilled counts the values of slabs abandoned since the last rewind.
	spilled int
}

// alloc returns a tuple of n values carved from the current slab (zeroed
// unless the arena has been rewound).
func (a *valueArena) alloc(n int) types.Tuple {
	if cap(a.slab)-len(a.slab) < n {
		sz := arenaSlab
		if n > sz {
			sz = n
		}
		a.spilled += len(a.slab)
		a.slab = make([]types.Value, 0, sz)
	}
	off := len(a.slab)
	a.slab = a.slab[:off+n]
	return types.Tuple(a.slab[off : off+n : off+n])
}

// concat builds lt ++ rt in arena storage (the join-emit fast path).
func (a *valueArena) concat(lt, rt types.Tuple) types.Tuple {
	out := a.alloc(len(lt) + len(rt))
	copy(out, lt)
	copy(out[len(lt):], rt)
	return out
}

// rewind hands every value carved since the last rewind back to the arena:
// the caller guarantees nobody holds them any more. A cycle that outgrew
// its slab gets one slab sized for the whole cycle, so a steady producer
// settles on a single slab and allocates nothing further.
func (a *valueArena) rewind() {
	if a.spilled > 0 {
		a.slab = make([]types.Value, 0, a.spilled+cap(a.slab))
		a.spilled = 0
		return
	}
	a.slab = a.slab[:0]
}

// emitFlushLen caps how many buffered outputs a BatchEmitter accumulates
// before delivering them downstream mid-batch, bounding memory on highly
// multiplicative joins without changing delivery order.
const emitFlushLen = 1024

// BatchEmitter is the shared emit machinery of the join-shaped operators
// (HashJoin, MergeJoin, the complementary pair's mini stitch-up): between
// Begin and Flush, concatenated outputs are carved from a slab arena and
// buffered so a whole batch's results reach the downstream sink in one
// PushAll; outside a batch, EmitConcat degrades to a per-tuple Push of a
// freshly allocated concatenation. Delivery order is always the emit
// order.
type BatchEmitter struct {
	active bool
	// recycle rewinds the arena after every delivery instead of abandoning
	// its slabs: set when the downstream sink copies what it keeps (see
	// InputCopier), so nothing outlives the delivery.
	recycle bool
	buf     []types.Tuple
	arena   valueArena
}

// Begin switches emits to the buffered arena path.
func (e *BatchEmitter) Begin() { e.active = true }

// EmitConcat emits lt ++ rt.
func (e *BatchEmitter) EmitConcat(out Sink, lt, rt types.Tuple) {
	if !e.active {
		out.Push(lt.Concat(rt))
		return
	}
	e.buf = append(e.buf, e.arena.concat(lt, rt))
	if len(e.buf) >= emitFlushLen {
		e.deliver(out)
	}
}

// Flush ends the batch, delivering any buffered outputs downstream.
func (e *BatchEmitter) Flush(out Sink) {
	e.active = false
	if len(e.buf) > 0 {
		e.deliver(out)
	}
}

// deliver hands the buffer downstream and clears it before reuse so it
// does not pin arena-backed results downstream has already dropped.
func (e *BatchEmitter) deliver(out Sink) {
	PushAll(out, e.buf)
	clear(e.buf)
	e.buf = e.buf[:0]
	if e.recycle {
		e.arena.rewind()
	}
}
