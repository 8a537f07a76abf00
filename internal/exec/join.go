package exec

import (
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// Sink receives the output of a push operator. Unsigned rows travel between
// operators as row batches and in no other form — a single tuple is a batch
// of one — so a pipeline segment amortizes per-call and allocation overhead
// across the batch. The batch slice is owned by the caller and is only
// valid for the duration of the call: receivers must not retain it. They
// may retain the tuples themselves, unless they declare that they do not
// (InputCopier).
type Sink interface {
	// PushBatch pushes ts in order. ts must not be retained.
	PushBatch(ts []types.Tuple)
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(ts []types.Tuple)

// PushBatch implements Sink.
func (f SinkFunc) PushBatch(ts []types.Tuple) { f(ts) }

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
	Style    JoinStyle
	ctx      *Context
	out      Sink
	leftKey  []int
	rightKey []int
	schema   *types.Schema

	left  state.Keyed // buffered left tuples (hash or list)
	right state.Keyed

	// leftHT/rightHT are the concrete hash tables behind left/right (nil
	// for nested loops), cached so the batched fast path can use the
	// hashed insert/probe APIs without per-tuple type assertions.
	leftHT  *state.HashTable
	rightHT *state.HashTable

	// leftList/rightList hold each side's rows in arrival order: the
	// nested-loops storage, or the lists the hash tables index.
	leftList  *state.List
	rightList *state.List

	pendingProbes []types.Tuple // BuildThenProbe: left tuples awaiting build
	leftDone      bool
	rightDone     bool

	// Emit scratch: the reused probe-key buffer and the emitter a batch's
	// (or a drain's, or a signed sweep's) outputs accumulate into before
	// one downstream delivery.
	keyScratch types.Tuple
	em         BatchEmitter

	// Signed-push scratch: the reused hash vector of a delta batch's keys,
	// and the materializer of the columnar entries (colbatch.go).
	hashVec []uint64
	colIn   colDelivery

	// Delta-maintenance state (standing queries): deletes build into
	// lazily created negative tables — the z-set representation, where a
	// side's effective multiset is its main state minus its negative
	// state. The negative lists are to the negative tables what
	// leftList/rightList are to the main ones.
	negLeftHT    *state.HashTable
	negRightHT   *state.HashTable
	negLeftList  *state.List
	negRightList *state.List

	counters stats.OpCounters
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
		Style:    style,
		ctx:      ctx,
		out:      out,
		leftKey:  leftKey,
		rightKey: rightKey,
		schema:   leftSchema.Concat(rightSchema),
	}
	_, j.em.recycle = out.(InputCopier)
	switch {
	case style == NestedLoops:
		j.leftList = state.NewList(leftSchema)
		j.rightList = state.NewList(rightSchema)
		return j
	case estLeft > 0 || estRight > 0:
		size := func(est float64) int { return int(min(max(est, 64), 1<<26)) }
		j.leftHT = state.NewHashTableSized(leftSchema, leftKey, size(estLeft))
		j.rightHT = state.NewHashTableSized(rightSchema, rightKey, size(estRight))
		j.leftHT.Fixed, j.rightHT.Fixed = true, true
	default:
		j.leftHT = state.NewHashTable(leftSchema, leftKey)
		j.rightHT = state.NewHashTable(rightSchema, rightKey)
	}
	j.left, j.right = j.leftHT, j.rightHT
	j.leftList, j.rightList = j.leftHT.List(), j.rightHT.List()
	return j
}

// Schema returns the output layout.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Counters exposes the operator's statistics block (§3.3).
func (j *HashJoin) Counters() *stats.OpCounters { return &j.counters }

// Tables exposes the buffered state structures for stitch-up reuse; nil
// for nested-loops (whose lists are exposed via SideLists).
func (j *HashJoin) Tables() (left, right state.Keyed) { return j.left, j.right }

// joinSide exposes one input of a HashJoin as a sink, so plan lowering can
// wire either side.
type joinSide struct {
	j    *HashJoin
	left bool
}

// PushBatch implements Sink.
func (s joinSide) PushBatch(ts []types.Tuple) {
	if s.left {
		s.j.PushLeftBatch(ts)
	} else {
		s.j.PushRightBatch(ts)
	}
}

// LeftSink returns the join's left input as a sink.
func (j *HashJoin) LeftSink() Sink { return joinSide{j: j, left: true} }

// RightSink returns the join's right input as a sink.
func (j *HashJoin) RightSink() Sink { return joinSide{j: j, left: false} }

// PushLeftBatch feeds a batch of tuples into the left input. For hash
// styles each tuple's key is hashed exactly once (shared between the
// build-side insert and the opposite-side probe), probe keys live in a
// reused scratch buffer, join results are carved from an arena, and the
// batch's outputs are delivered downstream in one call, in the order the
// tuples produced them.
//
//adp:hotpath gated by BenchmarkPipelinedJoinPush (scripts/check_allocs.sh)
func (j *HashJoin) PushLeftBatch(ts []types.Tuple) {
	for _, t := range ts {
		j.counters.In++
		j.counters.InLeft++
		if j.Style == NestedLoops {
			j.leftList.Insert(t)
			j.ctx.Clock.Charge(j.ctx.Cost.Move)
			j.scan(j.rightList, t, true)
			continue
		}
		h := t.HashKey(j.leftKey)
		j.leftHT.InsertHashed(h, t)
		j.ctx.Clock.Charge(j.ctx.Cost.HashInsert)
		if j.Style == Pipelined || j.rightDone {
			j.probeRightHashed(h, t)
		} else {
			j.pendingProbes = append(j.pendingProbes, t)
		}
	}
	j.endBatch()
}

// PushRightBatch feeds a batch of tuples into the right input.
//
//adp:hotpath gated by BenchmarkPipelinedJoinPush (scripts/check_allocs.sh)
func (j *HashJoin) PushRightBatch(ts []types.Tuple) {
	for _, t := range ts {
		j.counters.In++
		j.counters.InRight++
		if j.Style == NestedLoops {
			j.rightList.Insert(t)
			j.ctx.Clock.Charge(j.ctx.Cost.Move)
			// A late inner tuple must join with all buffered outers
			// (symmetric nested loops keeps results complete regardless of
			// arrival interleaving).
			j.scan(j.leftList, t, false)
			continue
		}
		h := t.HashKey(j.rightKey)
		j.rightHT.InsertHashed(h, t)
		j.ctx.Clock.Charge(j.ctx.Cost.HashInsert)
		if j.Style == Pipelined {
			j.probeLeftHashed(h, t)
		}
		// BuildThenProbe: probes wait for FinishRight.
	}
	j.endBatch()
}

// endBatch delivers the accumulated outputs downstream in one call.
func (j *HashJoin) endBatch() { j.em.Flush(j.out) }

// keyFor extracts t's key columns into the reused scratch buffer. The
// result is only valid until the next keyFor call; probe callees do not
// retain it.
func (j *HashJoin) keyFor(t types.Tuple, cols []int) types.Tuple {
	if cap(j.keyScratch) < len(cols) {
		j.keyScratch = make(types.Tuple, len(cols))
	}
	k := j.keyScratch[:len(cols)]
	for i, c := range cols {
		k[i] = t[c]
	}
	return k
}

// probeRightHashed probes the right table with lt's key and its
// precomputed hash, zero-allocation except for emitted results. The charge
// is the scan work of one probe — hashing plus walking the bucket chain:
// collisions in under-sized fixed tables make this the dominant cost of a
// mis-planned query.
func (j *HashJoin) probeRightHashed(h uint64, lt types.Tuple) {
	key := j.keyFor(lt, j.leftKey)
	work := 1.0 + float64(j.rightHT.ChainLenHashed(h))
	j.ctx.Clock.Charge(work * j.ctx.Cost.HashProbe)
	j.rightHT.ProbeHashed(h, key, func(rt types.Tuple) bool {
		j.emit(lt, rt)
		return true
	})
}

// probeLeftHashed is the mirror of probeRightHashed.
func (j *HashJoin) probeLeftHashed(h uint64, rt types.Tuple) {
	key := j.keyFor(rt, j.rightKey)
	work := 1.0 + float64(j.leftHT.ChainLenHashed(h))
	j.ctx.Clock.Charge(work * j.ctx.Cost.HashProbe)
	j.leftHT.ProbeHashed(h, key, func(lt types.Tuple) bool {
		j.emit(lt, rt)
		return true
	})
}

// scan is the nested-loops probe: t against every row of the opposite
// side's list l, one Compare each; tLeft says t is the left operand.
func (j *HashJoin) scan(l *state.List, t types.Tuple, tLeft bool) {
	l.Scan(func(m types.Tuple) bool {
		j.ctx.Clock.Charge(j.ctx.Cost.Compare)
		lt, rt := t, m
		if !tLeft {
			lt, rt = m, t
		}
		if lt.KeyEquals(j.leftKey, rt, j.rightKey) {
			j.emit(lt, rt)
		}
		return true
	})
}

func (j *HashJoin) emit(lt, rt types.Tuple) {
	j.ctx.Clock.Charge(j.ctx.Cost.Move)
	j.counters.Out++
	j.em.EmitConcat(j.out, lt, rt)
}

// FinishLeft signals end of the left input.
func (j *HashJoin) FinishLeft() { j.leftDone = true }

// FinishRight signals end of the right (build) input; a build-then-probe
// join drains its buffered probes here, through the same hashed probe and
// emitter as a pushed batch, so the drain reaches downstream as batches.
func (j *HashJoin) FinishRight() {
	j.rightDone = true
	if j.Style == BuildThenProbe {
		for _, lt := range j.pendingProbes {
			j.probeRightHashed(lt.HashKey(j.leftKey), lt)
		}
		j.pendingProbes = nil
		j.endBatch()
	}
}

// Filter is a push node applying a bound predicate.
type Filter struct {
	ctx      *Context
	pred     func(types.Tuple) bool
	out      Sink
	scratch  []types.Tuple
	counters stats.OpCounters
}

// NewFilter builds a filter node.
func NewFilter(ctx *Context, pred func(types.Tuple) bool, out Sink) *Filter {
	return &Filter{ctx: ctx, pred: pred, out: out}
}

// PushBatch implements Sink: survivors are collected into a reused
// scratch batch and forwarded in one downstream call.
func (f *Filter) PushBatch(ts []types.Tuple) { f.push(ts, 0) }

// PushSigned implements DeltaSink: the predicate sweep is sign-blind,
// survivors keep the batch's sign.
func (f *Filter) PushSigned(ts []types.Tuple, sign int) { f.push(ts, sign) }

func (f *Filter) push(ts []types.Tuple, sign int) {
	f.scratch = f.scratch[:0]
	for _, t := range ts {
		f.counters.In++
		f.ctx.Clock.Charge(f.ctx.Cost.Compare)
		if f.pred(t) {
			f.counters.Out++
			f.scratch = append(f.scratch, t)
		}
	}
	deliver(f.out, f.scratch, sign)
}

// Counters exposes statistics.
func (f *Filter) Counters() *stats.OpCounters { return &f.counters }

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

// PushBatch implements Sink. Output tuples are carved from an arena
// (projections may be retained downstream, so storage is never reused,
// just allocated in slabs) and forwarded as one batch.
func (p *Project) PushBatch(ts []types.Tuple) { p.push(ts, 0) }

// PushSigned implements DeltaSink: the column permutation is sign-blind.
func (p *Project) PushSigned(ts []types.Tuple, sign int) { p.push(ts, sign) }

func (p *Project) push(ts []types.Tuple, sign int) {
	width := p.adapter.To().Len()
	p.scratch = p.scratch[:0]
	for _, t := range ts {
		p.counters.In++
		p.counters.Out++
		p.ctx.Clock.Charge(p.ctx.Cost.Move)
		p.scratch = append(p.scratch, p.adapter.AdaptInto(p.arena.Alloc(width), t))
	}
	deliver(p.out, p.scratch, sign)
}

// Counters exposes statistics.
func (p *Project) Counters() *stats.OpCounters { return &p.counters }

// Combine unions several producers into one sink, counting pass-through
// (the paper's combine operator, §3).
type Combine struct {
	out      Sink
	counters stats.OpCounters
}

// NewCombine builds a combine node.
func NewCombine(out Sink) *Combine { return &Combine{out: out} }

// PushBatch implements Sink (pass-through).
func (c *Combine) PushBatch(ts []types.Tuple) { c.push(ts, 0) }

// PushSigned implements DeltaSink (signed pass-through).
func (c *Combine) PushSigned(ts []types.Tuple, sign int) { c.push(ts, sign) }

func (c *Combine) push(ts []types.Tuple, sign int) {
	c.counters.In += int64(len(ts))
	c.counters.Out += int64(len(ts))
	deliver(c.out, ts, sign)
}

// Counters exposes statistics.
func (c *Combine) Counters() *stats.OpCounters { return &c.counters }

// Queue buffers tuples between producer and consumer, modelling the
// inter-thread queues of Tukwila's engine (the "Q" boxes of Figure 4).
// Drain delivers buffered tuples to the downstream sink.
type Queue struct {
	buf      []types.Tuple
	out      Sink
	counters stats.OpCounters
}

// NewQueue builds a queue in front of out.
func NewQueue(out Sink) *Queue { return &Queue{out: out} }

// PushBatch implements Sink (enqueue).
func (q *Queue) PushBatch(ts []types.Tuple) {
	q.counters.In += int64(len(ts))
	q.buf = append(q.buf, ts...)
}

// Len returns the queued count.
func (q *Queue) Len() int { return len(q.buf) }

// Drain flushes up to max tuples (max<=0 flushes all) as one batch. The
// drained prefix is compacted out of the backing array (rather than
// re-slicing past it, which would pin the drained tuples in memory and
// leak the array's head for the queue's lifetime) and the vacated tail is
// cleared so drained tuples become collectable as soon as downstream is
// done with them.
func (q *Queue) Drain(max int) int {
	n := len(q.buf)
	if max > 0 && max < n {
		n = max
	}
	if n == 0 {
		return 0
	}
	q.counters.Out += int64(n)
	q.out.PushBatch(q.buf[:n])
	rest := copy(q.buf, q.buf[n:])
	clear(q.buf[rest:])
	q.buf = q.buf[:rest]
	return n
}

// Counters exposes statistics.
func (q *Queue) Counters() *stats.OpCounters { return &q.counters }
