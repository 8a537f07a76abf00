package core

import (
	"container/heap"

	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// DefaultPQCap is the paper's reorder buffer size: "a priority queue
// (holding up to 1024 tuples) to reorder recently received elements
// before routing them" (§5).
const DefaultPQCap = 1024

// CompJoinStats instruments the complementary pair for Table 3: how many
// tuples each component routed and produced.
type CompJoinStats struct {
	MergeRoutedLeft  int64
	MergeRoutedRight int64
	HashRoutedLeft   int64
	HashRoutedRight  int64
	MergeOut         int64
	HashOut          int64
	StitchOut        int64
}

// statSink counts component output tuples and forwards them to the pair's
// sink.
type statSink struct {
	n   *int64
	out exec.Sink
}

// Push implements exec.Sink.
func (s *statSink) Push(ts []types.Tuple, sign int) {
	*s.n += int64(len(ts))
	s.out.Push(ts, sign)
}

// ComplementaryJoin is the complementary join pair of Figure 4: a merge
// join and a pipelined hash join sharing four hash tables. A split
// (router) operator sends each input tuple to the merge join when it
// conforms to the speculated ascending key order and to the hash join
// otherwise; an optional per-input priority queue reorders recently
// received tuples before routing. After both inputs finish, a mini
// stitch-up joins each side's hash-partition against the other side's
// merge-partition.
type ComplementaryJoin struct {
	ctx      *exec.Context
	out      exec.Sink
	leftKey  []int
	rightKey []int
	merge    *exec.MergeJoin
	hash     *exec.HashJoin
	// toMerge and toHash are the components' inputs, left then right.
	toMerge, toHash [2]exec.Sink

	// PQCap enables the priority-queue router when > 0.
	pqLeft  *tupleHeap
	pqRight *tupleHeap

	// lastLeft/lastRight are the highest-keyed tuples sent to the merge
	// join (the router watermarks); retaining the tuple instead of a
	// materialized key keeps routing allocation-free.
	lastLeft  types.Tuple
	lastRight types.Tuple

	// routeScratch collects priority-queue evictions so a whole batch's
	// evictions route as one stream.
	routeScratch []types.Tuple
	// stitchEm batches the mini stitch-up's emits.
	stitchEm exec.BatchEmitter

	Stats    CompJoinStats
	finished bool
}

// NewComplementaryJoin builds the pair. pqCap <= 0 selects the naive
// router; DefaultPQCap reproduces the paper's configuration.
func NewComplementaryJoin(ctx *exec.Context, leftSchema, rightSchema *types.Schema, leftKey, rightKey []int, pqCap int, out exec.Sink) *ComplementaryJoin {
	c := &ComplementaryJoin{
		ctx:      ctx,
		out:      out,
		leftKey:  leftKey,
		rightKey: rightKey,
		stitchEm: ctx.Emitter(),
	}
	c.merge = exec.NewMergeJoin(ctx, leftSchema, rightSchema, leftKey, rightKey,
		&statSink{n: &c.Stats.MergeOut, out: out})
	c.hash = exec.NewHashJoin(ctx, exec.Pipelined, leftSchema, rightSchema, leftKey, rightKey,
		&statSink{n: &c.Stats.HashOut, out: out})
	c.toMerge = [2]exec.Sink{c.merge.LeftSink(), c.merge.RightSink()}
	c.toHash = [2]exec.Sink{c.hash.LeftSink(), c.hash.RightSink()}
	if pqCap > 0 {
		c.pqLeft = newTupleHeap(leftKey, pqCap)
		c.pqRight = newTupleHeap(rightKey, pqCap)
	}
	return c
}

// Schema returns the output layout (left ++ right).
func (c *ComplementaryJoin) Schema() *types.Schema { return c.hash.Schema() }

// PushLeftBatch routes a batch of left-input tuples through the router:
// consecutive tuples bound for the same component are delivered to it as
// one sub-batch, and the pair's output order is that of routing the tuples
// one by one. The batch slice is not retained.
func (c *ComplementaryJoin) PushLeftBatch(ts []types.Tuple) { c.route(c.pqLeft, ts, true) }

// PushRightBatch is the right-input mirror of PushLeftBatch.
func (c *ComplementaryJoin) PushRightBatch(ts []types.Tuple) { c.route(c.pqRight, ts, false) }

// route passes one input's batch through its reorder buffer pq, if any, and
// routes what leaves it.
func (c *ComplementaryJoin) route(pq *tupleHeap, ts []types.Tuple, left bool) {
	if pq != nil {
		c.routeScratch = c.routeScratch[:0]
		for _, t := range ts {
			if evicted, ok := pq.offer(t); ok {
				c.routeScratch = append(c.routeScratch, evicted)
			}
		}
		ts = c.routeScratch
	}
	c.routeRun(ts, left)
}

// classify makes the router decision for one tuple of the left or right
// input — true routes to the merge join — updating that input's watermark
// and routing statistics.
func (c *ComplementaryJoin) classify(t types.Tuple, left bool) bool {
	last, key, merged, hashed := &c.lastRight, c.rightKey, &c.Stats.MergeRoutedRight, &c.Stats.HashRoutedRight
	if left {
		last, key, merged, hashed = &c.lastLeft, c.leftKey, &c.Stats.MergeRoutedLeft, &c.Stats.HashRoutedLeft
	}
	if *last == nil || types.CompareKey(*last, key, t, key) <= 0 {
		*last = t
		*merged++
		return true
	}
	*hashed++
	return false
}

// routeRun routes an ordered stream of tuples, grouping consecutive
// same-destination tuples into sub-batches; each routing decision is
// charged one comparison. Classification only touches the watermark, never
// the components, so classifying a run ahead of delivering it leaves every
// routing decision — and therefore the output sequence — what routing tuple
// by tuple would give.
func (c *ComplementaryJoin) routeRun(ts []types.Tuple, left bool) {
	c.ctx.Clock.Charge(int64(len(ts)) * c.ctx.Cost.Compare)
	side := 1
	if left {
		side = 0
	}
	deliver := func(run []types.Tuple, toMerge bool) {
		switch {
		case len(run) == 0:
		case toMerge:
			// In-order by the watermark invariant: the merge join's
			// out-of-order panic is unreachable.
			c.toMerge[side].Push(run, 0)
		default:
			c.toHash[side].Push(run, 0)
		}
	}
	start, toMerge := 0, false
	for i, t := range ts {
		m := c.classify(t, left)
		if i == 0 {
			toMerge = m
			continue
		}
		if m != toMerge {
			deliver(ts[start:i], toMerge)
			start, toMerge = i, m
		}
	}
	deliver(ts[start:], toMerge)
}

// Finish drains the reorder buffers, closes the merge join, and performs the
// mini stitch-up: h(L)hash ⋈ h(R)merge and h(L)merge ⋈ h(R)hash, choosing
// scan/probe sides by size as the stitch-up join does (§3.4.3).
func (c *ComplementaryJoin) Finish() {
	if c.finished {
		return
	}
	c.finished = true
	if c.pqLeft != nil {
		c.routeScratch = c.routeScratch[:0]
		c.pqLeft.drain(func(t types.Tuple) { c.routeScratch = append(c.routeScratch, t) })
		c.routeRun(c.routeScratch, true)
	}
	if c.pqRight != nil {
		c.routeScratch = c.routeScratch[:0]
		c.pqRight.drain(func(t types.Tuple) { c.routeScratch = append(c.routeScratch, t) })
		c.routeRun(c.routeScratch, false)
	}
	c.merge.FinishLeft()
	c.merge.FinishRight()

	hashL, hashR := c.hash.Tables()
	mergeL, mergeR := c.merge.Tables()
	c.stitch(hashL, mergeR)
	c.stitch(mergeL, hashR)
}

// stitch cross-joins a left-side table against a right-side table,
// scanning the smaller and probing the larger through the hashed fast path
// with a reused key buffer; emits are batched through the emitter so
// downstream receives whole result vectors.
func (c *ComplementaryJoin) stitch(left, right *state.HashTable) {
	if left.Len() == 0 || right.Len() == 0 {
		return
	}
	out := c.Stats.StitchOut
	emit := func(lt, rt types.Tuple) {
		c.Stats.StitchOut++
		c.stitchEm.EmitConcat(c.out, lt, rt)
	}
	if left.Len() <= right.Len() {
		cols := left.KeyCols()
		key := make(types.Tuple, len(cols))
		c.ctx.Clock.Charge(int64(left.Len()) * c.ctx.Cost.HashProbe)
		left.Scan(func(lt types.Tuple) bool {
			for i, col := range cols {
				key[i] = lt[col]
			}
			right.ProbeHashed(key.HashKey(types.Identity(len(key))), key, func(rt types.Tuple) bool {
				emit(lt, rt)
				return true
			})
			return true
		})
	} else {
		cols := right.KeyCols()
		key := make(types.Tuple, len(cols))
		c.ctx.Clock.Charge(int64(right.Len()) * c.ctx.Cost.HashProbe)
		right.Scan(func(rt types.Tuple) bool {
			for i, col := range cols {
				key[i] = rt[col]
			}
			left.ProbeHashed(key.HashKey(types.Identity(len(key))), key, func(lt types.Tuple) bool {
				emit(lt, rt)
				return true
			})
			return true
		})
	}
	c.ctx.Clock.Charge((c.Stats.StitchOut - out) * c.ctx.Cost.Move)
	c.stitchEm.Flush(c.out)
}

// tupleHeap is a bounded min-heap keyed on tuple columns: the priority
// queue of the sophisticated router. offer returns the evicted minimum
// once the buffer is full.
type tupleHeap struct {
	keyCols []int
	cap     int
	items   []types.Tuple
}

func newTupleHeap(keyCols []int, cap int) *tupleHeap {
	return &tupleHeap{keyCols: keyCols, cap: cap}
}

// Len, Less, Swap, Push, Pop implement heap.Interface.
func (h *tupleHeap) Len() int { return len(h.items) }
func (h *tupleHeap) Less(i, j int) bool {
	return types.CompareKey(h.items[i], h.keyCols, h.items[j], h.keyCols) < 0
}
func (h *tupleHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

// Push implements heap.Interface.
func (h *tupleHeap) Push(x any) { h.items = append(h.items, x.(types.Tuple)) }

// Pop implements heap.Interface.
func (h *tupleHeap) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}

// offer inserts t; when the buffer exceeds capacity the minimum element
// is evicted and returned.
func (h *tupleHeap) offer(t types.Tuple) (types.Tuple, bool) {
	heap.Push(h, t)
	if len(h.items) > h.cap {
		return heap.Pop(h).(types.Tuple), true
	}
	return nil, false
}

// drain pops remaining elements in key order.
func (h *tupleHeap) drain(route func(types.Tuple)) {
	for len(h.items) > 0 {
		route(heap.Pop(h).(types.Tuple))
	}
}
