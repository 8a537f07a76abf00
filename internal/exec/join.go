package exec

import (
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// Sink receives the output of a push operator. Rows travel between operators
// as row batches and in no other form — a single tuple is a batch of one —
// so a pipeline segment amortizes per-call and allocation overhead across
// the batch. Every row of a batch carries the batch's sign: 0 in ordinary
// (unsigned) execution, +1 for an insertion into a standing query's result
// and -1 for a retraction (delta.go). The batch slice is owned by the caller
// and is only valid for the duration of the call: receivers must not retain
// it. They may retain the tuples themselves, unless they declare that they
// do not (InputCopier).
type Sink interface {
	// Push pushes ts, in order, with sign. ts must not be retained.
	Push(ts []types.Tuple, sign int)
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(ts []types.Tuple, sign int)

// Push implements Sink.
func (f SinkFunc) Push(ts []types.Tuple, sign int) { f(ts, sign) }

// JoinStyle names a join node's iterator module (§3.1). Only the
// pipelined hash join is reproduced: its one constant and NewHashJoin's
// style parameter remain for benchmark/probes.go, which passes it.
type JoinStyle uint8

// Pipelined is the symmetric (data-availability-driven) hash join: each
// arriving tuple is inserted into its side's table and probes the opposite
// table immediately.
const Pipelined JoinStyle = 0

// HashJoin is a binary equijoin push node: the pipelined hash join. Both
// inputs are buffered in state structures — the ADP requirement that "every
// plan must buffer the source data fed into it at the leaves, so this data
// can be joined with data in the other plans" (§3.4) — and those structures
// are exposed for reuse by stitch-up plans.
type HashJoin struct {
	ctx    *Context
	out    Sink
	schema *types.Schema

	// in holds the two inputs' buffered rows, left then right.
	in [2]joinInput

	// The emitter a sweep's outputs accumulate into before one downstream
	// delivery, and the materializer of the columnar entries (colbatch.go).
	em    BatchEmitter
	colIn colDelivery

	counters stats.OpCounters
}

// joinInput is one input of a HashJoin: its key columns, its main table and
// — from its first retraction on — its negative table (delta.go).
type joinInput struct {
	key       []int
	main, neg *state.HashTable
}

// NewHashJoin creates a join node; style must be Pipelined. leftKey/rightKey
// are column positions of the equijoin keys in the respective input
// layouts; leftSchema and rightSchema describe the inputs; out receives
// concatenated (left ++ right) tuples. When out is an InputCopier the emit path reuses one
// arena for every delivery; otherwise emitted tuples are never overwritten
// and out may retain them.
func NewHashJoin(ctx *Context, _ JoinStyle, leftSchema, rightSchema *types.Schema, leftKey, rightKey []int, out Sink) *HashJoin {
	return NewHashJoinSized(ctx, leftSchema, rightSchema, leftKey, rightKey, 0, 0, out)
}

// NewHashJoinSized is NewHashJoin with fixed-bucket hash tables allocated
// from the optimizer's cardinality estimates, reproducing Tukwila's
// behaviour: table memory can grow, but bucket counts are fixed at creation,
// so an under-estimated input suffers bucket collisions for the rest of the
// query (§4.4). Without an estimate for either side the tables start at the
// default size and grow. Every table takes its storage from the context's
// spare.
func NewHashJoinSized(ctx *Context, leftSchema, rightSchema *types.Schema, leftKey, rightKey []int, estLeft, estRight float64, out Sink) *HashJoin {
	j := &HashJoin{
		ctx:    ctx,
		out:    out,
		schema: leftSchema.Concat(rightSchema),
		em:     ctx.Emitter(),
	}
	_, j.em.recycle = out.(InputCopier)
	ctx.owned = append(ctx.owned, j)
	j.in[0].key, j.in[1].key = leftKey, rightKey
	ests := [2]float64{estLeft, estRight}
	for i, schema := range [2]*types.Schema{leftSchema, rightSchema} {
		nbuckets := 0 // no estimate: a growing table
		if estLeft > 0 || estRight > 0 {
			nbuckets = int(min(max(ests[i], 64), 1<<26))
		}
		j.in[i].main = state.NewHashTableSized(schema, j.in[i].key, nbuckets, ctx.Spare)
	}
	return j
}

// Schema returns the output layout.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Counters exposes the operator's statistics block (§3.3).
func (j *HashJoin) Counters() *stats.OpCounters { return &j.counters }

// Tables exposes the buffered state structures for stitch-up reuse.
func (j *HashJoin) Tables() (left, right *state.HashTable) { return j.in[0].main, j.in[1].main }

// Release gives the index storage of the join's tables to spare once nothing
// will push into or probe the join again; its lists stay (SideLists).
func (j *HashJoin) Release(spare *state.Spare) {
	for i := range j.in {
		j.in[i].release(spare, false)
	}
}

// free gives everything j holds to spare at the end of its run: its
// tables' index storage and its lists' rows.
func (j *HashJoin) free(spare *state.Spare) {
	for i := range j.in {
		j.in[i].release(spare, true)
	}
}

// joinSide exposes one input of a HashJoin (i: 0 left, 1 right) as a sink,
// so plan lowering can wire either side.
type joinSide struct {
	j *HashJoin
	i int
}

// Push implements Sink.
func (s joinSide) Push(ts []types.Tuple, sign int) { s.j.push(s.i, ts, sign) }

// LeftSink returns the join's left input as a sink.
func (j *HashJoin) LeftSink() Sink { return joinSide{j: j, i: 0} }

// RightSink returns the join's right input as a sink.
func (j *HashJoin) RightSink() Sink { return joinSide{j: j, i: 1} }

// push is the join's one entry, for both inputs and every sign (0 for
// unsigned traffic): rows of input i build into its main table — its
// negative table when sign < 0 — and probe the other input's tables by the
// bilinear delta rule (delta.go): its main table emits the
// rows' sign, its negative table the opposite one. The asserting sweep runs
// first: downstream consumers that track value multisets (the signed
// aggregate's min/max bags) need every retraction to find a live assertion,
// and since the negative table is a sub-multiset of the main one,
// assert-first ordering guarantees that prefix property. Unsigned rows
// assert; they never meet a negative table, as unsigned traffic ends before
// the first retraction.
//
//adp:hotpath gated by BenchmarkPipelinedJoinPush and BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (j *HashJoin) push(i int, rows []types.Tuple, sign int) {
	n := int64(len(rows))
	if n == 0 {
		return
	}
	j.counters.In += n
	if i == 0 {
		j.counters.InLeft += n
	} else {
		j.counters.InRight += n
	}
	build, other := j.in[i].main, &j.in[1-i]
	first, second, firstSign := other.main, other.neg, sign
	if sign < 0 {
		build = j.in[i].negTable(j.ctx.Spare)
		first, second, firstSign = other.neg, other.main, 1
	}
	j.sweep(i, rows, build, first, firstSign)
	j.sweep(i, rows, nil, second, -1)
}

// hashBlock is how many rows a sweep hashes at a time: into a vector on its
// own stack, so that no join keeps one sized to its largest batch.
const hashBlock = 64

// sweep runs rows of input i through the join's state: each row builds into
// build and probes probe (either may be nil), and every hit leaves, left
// operand first, with sign — downstream at every emitFlushLen and at the
// sweep's end, in row order and, per row, in probe's chain order. Each row's
// key is hashed once for both. The work is charged at once, which nothing
// the sweep emits can change: per row a HashInsert; per probe 1 + chain
// length hash probes — collisions in under-sized fixed tables make this the
// dominant cost of a mis-planned query; one Move per hit. A table that
// exists is probed, and charged, even when it is empty; a negative table
// never created costs nothing.
//
//adp:hotpath gated by BenchmarkPipelinedJoinPush and BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (j *HashJoin) sweep(i int, rows []types.Tuple, build, probe *state.HashTable, sign int) {
	if build == nil && probe == nil {
		return
	}
	n, cost, hits := int64(len(rows)), j.ctx.Cost, j.counters.Out
	j.em.sign = sign
	block := rows
	emit := func(k int, m types.Tuple) bool {
		lt, rt := block[k], m
		if i == 1 {
			lt, rt = m, block[k]
		}
		j.counters.Out++
		j.em.EmitConcat(j.out, lt, rt)
		return true
	}
	var buf [hashBlock]uint64
	work := int64(0)
	for lo := 0; lo < len(rows); lo += hashBlock {
		block = rows[lo:min(lo+hashBlock, len(rows))]
		hs := buf[:len(block)]
		for k, r := range block {
			hs[k] = r.HashKey(j.in[i].key)
		}
		if build != nil {
			build.InsertHashedBatch(hs, block)
		}
		if probe != nil {
			work += int64(len(block))
			for _, h := range hs {
				work += int64(probe.ChainLenHashed(h))
			}
			probe.ProbeHashedBatch(hs, block, j.in[i].key, emit)
		}
	}
	if build != nil {
		j.ctx.Clock.Charge(n * cost.HashInsert)
	}
	j.ctx.Clock.Charge(work * cost.HashProbe)
	j.ctx.Clock.Charge((j.counters.Out - hits) * cost.Move)
	j.em.Flush(j.out)
	j.em.sign = 0
}
