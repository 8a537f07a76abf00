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

// JoinStyle selects the iterator module driving a join node's state
// structures (§3.1): data-availability-driven (pipelined hash),
// build-then-probe (hybrid hash), or nested-loops-style iteration.
// Merge-driven joins have their own node type (MergeJoin).
type JoinStyle uint8

// Join styles.
const (
	// Pipelined is the symmetric (data-availability-driven) hash join:
	// each arriving tuple is inserted into its side's table and probes
	// the opposite table immediately.
	Pipelined JoinStyle = iota
	// BuildThenProbe buffers probe-side (left) tuples until the build
	// side (right) finishes, as in a hybrid hash join.
	BuildThenProbe
	// NestedLoops buffers the inner (right) side in a list and scans it
	// per outer tuple.
	NestedLoops
)

// String names the style.
func (s JoinStyle) String() string {
	switch s {
	case Pipelined:
		return "pipelined-hash"
	case BuildThenProbe:
		return "hybrid-hash"
	default:
		return "nested-loops"
	}
}

// HashJoin is a binary equijoin push node. Both inputs are buffered in
// state structures — the ADP requirement that "every plan must buffer the
// source data fed into it at the leaves, so this data can be joined with
// data in the other plans" (§3.4) — and those structures are exposed for
// reuse by stitch-up plans.
type HashJoin struct {
	Style  JoinStyle
	ctx    *Context
	out    Sink
	schema *types.Schema

	// in holds the two inputs' buffered rows, left then right.
	in [2]joinInput

	pendingProbes []types.Tuple // BuildThenProbe: left tuples awaiting build
	leftDone      bool
	rightDone     bool

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
	main, neg *joinTable
}

// joinTable is one multiset of buffered rows: the rows in arrival order and,
// for the hash styles, the hash table indexing them (nil for nested loops).
type joinTable struct {
	list *state.List
	ht   *state.HashTable
}

// NewHashJoin creates a join node. leftKey/rightKey are column positions
// of the equijoin keys in the respective input layouts; leftSchema and
// rightSchema describe the inputs; out receives concatenated
// (left ++ right) tuples. When out is an InputCopier the emit path reuses one
// arena for every delivery; otherwise emitted tuples are never overwritten
// and out may retain them.
func NewHashJoin(ctx *Context, style JoinStyle, leftSchema, rightSchema *types.Schema, leftKey, rightKey []int, out Sink) *HashJoin {
	return NewHashJoinSized(ctx, style, leftSchema, rightSchema, leftKey, rightKey, 0, 0, out)
}

// NewHashJoinSized is NewHashJoin with fixed-bucket hash tables allocated
// from the optimizer's cardinality estimates, reproducing Tukwila's
// behaviour: table memory can grow, but bucket counts are fixed at creation,
// so an under-estimated input suffers bucket collisions for the rest of the
// query (§4.4). Without an estimate for either side the tables start at the
// default size and grow; nested-loops joins have lists and ignore both.
func NewHashJoinSized(ctx *Context, style JoinStyle, leftSchema, rightSchema *types.Schema, leftKey, rightKey []int, estLeft, estRight float64, out Sink) *HashJoin {
	j := &HashJoin{
		Style:  style,
		ctx:    ctx,
		out:    out,
		schema: leftSchema.Concat(rightSchema),
	}
	_, j.em.recycle = out.(InputCopier)
	var buckets [2]int
	if estLeft > 0 || estRight > 0 {
		for i, est := range [2]float64{estLeft, estRight} {
			buckets[i] = int(min(max(est, 64), 1<<26))
		}
	}
	j.in[0].key, j.in[1].key = leftKey, rightKey
	for i, schema := range [2]*types.Schema{leftSchema, rightSchema} {
		j.in[i].main = j.newTable(schema, j.in[i].key, buckets[i])
	}
	return j
}

// newTable creates an empty table for an input of the given layout: a list
// for nested loops, else a hash table over one — fixed at buckets buckets
// when buckets > 0, growing from the default size otherwise.
func (j *HashJoin) newTable(schema *types.Schema, key []int, buckets int) *joinTable {
	var ht *state.HashTable
	switch {
	case j.Style == NestedLoops:
		return &joinTable{list: state.NewList(schema)}
	case buckets > 0:
		ht = state.NewHashTableSized(schema, key, buckets)
		ht.Fixed = true
	default:
		ht = state.NewHashTable(schema, key)
	}
	return &joinTable{list: ht.List(), ht: ht}
}

// Schema returns the output layout.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Counters exposes the operator's statistics block (§3.3).
func (j *HashJoin) Counters() *stats.OpCounters { return &j.counters }

// Tables exposes the buffered state structures for stitch-up reuse; nil
// for nested-loops (whose lists are exposed via SideLists).
func (j *HashJoin) Tables() (left, right *state.HashTable) { return j.in[0].main.ht, j.in[1].main.ht }

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

// push is the join's one entry, for both inputs, every style and every
// sign (0 for unsigned traffic): rows of input i build into its main
// table — its negative table when sign < 0 — and probe the other input's
// tables by the bilinear delta rule (delta.go): its main table emits the
// rows' sign, its negative table the opposite one. The asserting sweep runs
// first: downstream consumers that track value multisets (the signed
// aggregate's min/max bags) need every retraction to find a live assertion,
// and since the negative table is a sub-multiset of the main one,
// assert-first ordering guarantees that prefix property. Unsigned rows
// assert; they never meet a negative table, as unsigned traffic ends before
// the first retraction. Only an unsigned push into a build-then-probe join
// that is still building defers its probes: a left batch waits in
// pendingProbes for FinishRight, a right batch probes nothing (the drain
// meets it). Signed rows arrive once both inputs have finished their
// initial run, and probe at once whatever the style.
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
		build = j.negTable(i)
		first, second, firstSign = other.neg, other.main, 1
	}
	if sign == 0 && j.Style == BuildThenProbe && (i == 1 || !j.rightDone) {
		first, second = nil, nil
		if i == 0 {
			j.pendingProbes = append(j.pendingProbes, rows...)
		}
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
// sweep's end, in row order and, per row, in probe's chain (or list) order.
// A hash style hashes each row's key once for both. The work is charged at
// once, which nothing the sweep emits can change: per row a HashInsert (a
// Move into a nested-loops list); per probe 1 + chain length hash probes —
// collisions in under-sized fixed tables make this the dominant cost of a
// mis-planned query — or one Compare per buffered row; one Move per hit. A
// table that exists is probed, and charged, even when it is empty; a
// negative table never created costs nothing.
//
//adp:hotpath gated by BenchmarkPipelinedJoinPush and BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (j *HashJoin) sweep(i int, rows []types.Tuple, build, probe *joinTable, sign int) {
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
	if j.Style == NestedLoops {
		if build != nil {
			build.list.InsertBatch(rows)
			j.ctx.Clock.Charge(n * cost.Move)
		}
		if probe != nil {
			j.ctx.Clock.Charge(n * int64(probe.list.Len()) * cost.Compare)
			for k, r := range rows {
				probe.list.Scan(func(m types.Tuple) bool {
					if r.KeyEquals(j.in[i].key, m, j.in[1-i].key) {
						emit(k, m)
					}
					return true
				})
			}
		}
	} else {
		var buf [hashBlock]uint64
		work := int64(0)
		for lo := 0; lo < len(rows); lo += hashBlock {
			block = rows[lo:min(lo+hashBlock, len(rows))]
			hs := buf[:len(block)]
			for k, r := range block {
				hs[k] = r.HashKey(j.in[i].key)
			}
			if build != nil {
				build.ht.InsertHashedBatch(hs, block)
			}
			if probe != nil {
				work += int64(len(block))
				for _, h := range hs {
					work += int64(probe.ht.ChainLenHashed(h))
				}
				probe.ht.ProbeHashedBatch(hs, block, j.in[i].key, emit)
			}
		}
		if build != nil {
			j.ctx.Clock.Charge(n * cost.HashInsert)
		}
		j.ctx.Clock.Charge(work * cost.HashProbe)
	}
	j.ctx.Clock.Charge((j.counters.Out - hits) * cost.Move)
	j.em.Flush(j.out)
	j.em.sign = 0
}

// FinishLeft signals end of the left input.
func (j *HashJoin) FinishLeft() { j.leftDone = true }

// FinishRight signals end of the right (build) input; a build-then-probe
// join drains its buffered probes here, through the same sweep as a pushed
// batch, so the drain reaches downstream as batches.
func (j *HashJoin) FinishRight() {
	j.rightDone = true
	if j.Style == BuildThenProbe {
		j.sweep(0, j.pendingProbes, nil, j.in[1].main, 0)
		j.pendingProbes = nil
	}
}

// Project is a push node permuting/trimming columns via an adapter.
type Project struct {
	ctx      *Context
	adapter  *types.Adapter
	out      Sink
	arena    ValueArena
	scratch  []types.Tuple
	counters stats.OpCounters
}

// NewProject builds a projection node from an adapter.
func NewProject(ctx *Context, adapter *types.Adapter, out Sink) *Project {
	return &Project{ctx: ctx, adapter: adapter, out: out}
}

// Push implements Sink. Output tuples are carved from an arena (projections
// may be retained downstream, so storage is never reused, just allocated in
// slabs) and forwarded as one batch with the input's sign: the column
// permutation is the same for either polarity.
func (p *Project) Push(ts []types.Tuple, sign int) {
	width := p.adapter.To().Len()
	p.scratch = p.scratch[:0]
	p.counters.In += int64(len(ts))
	p.counters.Out += int64(len(ts))
	p.ctx.Clock.Charge(int64(len(ts)) * p.ctx.Cost.Move)
	for _, t := range ts {
		p.scratch = append(p.scratch, p.adapter.AdaptInto(p.arena.Alloc(width), t))
	}
	p.out.Push(p.scratch, sign)
}

// Counters exposes statistics.
func (p *Project) Counters() *stats.OpCounters { return &p.counters }
