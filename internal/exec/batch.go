package exec

import (
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// InputCopier is implemented by sinks that copy whatever they keep out of
// a pushed tuple before the push returns — an aggregate absorbing values
// into its groups, a result sink adapting rows into its own storage. A
// producer feeding such a sink may reuse the storage of the tuples it has
// pushed (see BatchEmitter); every other sink may retain what it is given.
type InputCopier interface {
	CopiesInput()
}

// discardSink drops what it is pushed, whatever the sign (benchmarks
// disable query output to eliminate client feedback, §3.5).
type discardSink struct{}

func (discardSink) Push([]types.Tuple, int) {}

// Discard is a Sink that drops tuples.
var Discard Sink = discardSink{}

// arenaSlab is the value-arena slab size (values, not tuples).
const arenaSlab = 4096

// ValueArena carves tuple storage out of large slabs, which its context's
// spare lends until the run ends (Context.Arena, state.Spare.Values), so
// that operators whose outputs are retained downstream (join results) pay
// one slab per many tuples. Unless the owner calls Rewind, handed-out
// tuples stay valid until the run ends; the returned slices are
// capacity-capped so appending to one cannot clobber a neighbour.
type ValueArena struct {
	slab []types.Value
	// spilled counts the values of slabs abandoned since the last Rewind.
	spilled int
	spare   *state.Spare
}

// Alloc returns a tuple of n values carved from the current slab (zeroed
// unless the arena has been rewound).
func (a *ValueArena) Alloc(n int) types.Tuple {
	if cap(a.slab)-len(a.slab) < n {
		a.spilled += len(a.slab)
		if n > arenaSlab {
			a.slab = make([]types.Value, 0, n)
		} else {
			a.slab = a.spare.Values(arenaSlab)
		}
	}
	off := len(a.slab)
	a.slab = a.slab[:off+n]
	return types.Tuple(a.slab[off : off+n : off+n])
}

// concat builds lt ++ rt in arena storage (the join-emit fast path).
func (a *ValueArena) concat(lt, rt types.Tuple) types.Tuple {
	out := a.Alloc(len(lt) + len(rt))
	copy(out, lt)
	copy(out[len(lt):], rt)
	return out
}

// Rewind hands every value carved since the last Rewind back to the arena:
// the caller guarantees nobody holds them any more. A cycle that outgrew
// its slab gets one slab sized for the whole cycle, lent by the spare as
// the others are, so a steady producer settles on a single slab, and the
// next run takes it back.
func (a *ValueArena) Rewind() {
	if a.spilled > 0 {
		a.slab = a.spare.Values(a.spilled + cap(a.slab))
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
// (HashJoin, MergeJoin, the complementary pair's mini stitch-up):
// concatenated outputs are carved from a slab arena and buffered until
// Flush, so the results of one input batch (or one drain) reach the
// downstream sink in one Push. Whoever emits must Flush before it returns
// to its caller. Delivery order is always the emit order.
type BatchEmitter struct {
	// recycle rewinds the arena after every delivery instead of abandoning
	// its slabs: set when the downstream sink copies what it keeps (see
	// InputCopier), so nothing outlives the delivery.
	recycle bool
	// sign is what every delivery carries: a join arms it for each probe
	// sweep (HashJoin.sweep); 0 otherwise.
	sign  int
	buf   []types.Tuple
	arena ValueArena
}

// EmitConcat emits lt ++ rt.
func (e *BatchEmitter) EmitConcat(out Sink, lt, rt types.Tuple) {
	e.buf = append(e.buf, e.arena.concat(lt, rt))
	if len(e.buf) >= emitFlushLen {
		e.deliver(out)
	}
}

// Flush delivers any buffered outputs downstream.
func (e *BatchEmitter) Flush(out Sink) {
	if len(e.buf) > 0 {
		e.deliver(out)
	}
}

// deliver hands the buffer downstream and clears it before reuse so it
// does not pin arena-backed results downstream has already dropped.
func (e *BatchEmitter) deliver(out Sink) {
	out.Push(e.buf, e.sign)
	clear(e.buf)
	e.buf = e.buf[:0]
	if e.recycle {
		e.arena.Rewind()
	}
}
