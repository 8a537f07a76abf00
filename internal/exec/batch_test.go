package exec

import (
	"math"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/types"
)

// feedJoin pushes ls/rs in alternating chunks of chunkSize per side — the
// same arrival order either way — delivering each chunk through the
// batched entry points (batched=true) or tuple-at-a-time (batched=false),
// so any output difference isolates the batch machinery itself.
func feedJoin(j *HashJoin, ls, rs []types.Tuple, chunkSize int, batched bool) {
	i, k := 0, 0
	deliver := func(push func(types.Tuple), pushBatch func([]types.Tuple), chunk []types.Tuple) {
		if batched {
			pushBatch(chunk)
			return
		}
		for _, t := range chunk {
			push(t)
		}
	}
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			end := min(i+chunkSize, len(ls))
			deliver(j.PushLeft, j.PushLeftBatch, ls[i:end])
			i = end
		}
		if k < len(rs) {
			end := min(k+chunkSize, len(rs))
			deliver(j.PushRight, j.PushRightBatch, rs[k:end])
			k = end
		}
	}
	j.FinishLeft()
	j.FinishRight()
}

// TestBatchPushMatchesTupleAtATime verifies the batched join path is
// semantically identical to tuple-at-a-time pushing: same outputs in the
// same order, same counters, same virtual-clock charges.
func TestBatchPushMatchesTupleAtATime(t *testing.T) {
	ls := randTuples(2000, 300, 1, rRow)
	rs := randTuples(2000, 300, 2, sRow)
	for _, style := range []JoinStyle{Pipelined, BuildThenProbe} {
		ctx1, ctx2 := NewContext(), NewContext()
		out1, out2 := &collectSink{}, &collectSink{}
		j1 := NewHashJoin(ctx1, style, rSchema, sSchema, []int{0}, []int{0}, out1)
		j2 := NewHashJoin(ctx2, style, rSchema, sSchema, []int{0}, []int{0}, out2)
		feedJoin(j1, ls, rs, 64, false)
		feedJoin(j2, ls, rs, 64, true)
		if len(out1.rows) != len(out2.rows) {
			t.Fatalf("%v: %d vs %d output tuples", style, len(out1.rows), len(out2.rows))
		}
		for i := range out1.rows {
			if out1.rows[i].String() != out2.rows[i].String() {
				t.Fatalf("%v: output %d differs: %v vs %v", style, i, out1.rows[i], out2.rows[i])
			}
		}
		c1, c2 := j1.Counters(), j2.Counters()
		if *c1 != *c2 {
			t.Fatalf("%v: counters differ: %+v vs %+v", style, c1, c2)
		}
		if ctx1.Clock.CPU != ctx2.Clock.CPU || ctx1.Clock.Now != ctx2.Clock.Now {
			t.Fatalf("%v: clocks differ: (%v, %v) vs (%v, %v)",
				style, ctx1.Clock.Now, ctx1.Clock.CPU, ctx2.Clock.Now, ctx2.Clock.CPU)
		}
	}
}

// TestBatchPipelineSegment pushes batches through a Filter → HashJoin →
// AggTable segment and checks the final aggregate equals the
// tuple-at-a-time result.
func TestBatchPipelineSegment(t *testing.T) {
	full := rSchema.Concat(sSchema)
	aggs := []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}}
	build := func() (*Filter, *HashJoin, *AggTable, *Context) {
		ctx := NewContext()
		agg, err := NewAggTable(ctx, full, []string{"r.k"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		j := NewHashJoin(ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, agg)
		f := NewFilter(ctx, func(tp types.Tuple) bool { return tp[1].I%3 != 0 }, j.LeftSink())
		return f, j, agg, ctx
	}
	ls := randTuples(3000, 200, 3, rRow)
	rs := randTuples(3000, 200, 4, sRow)

	f1, j1, a1, ctx1 := build()
	for i := range ls {
		f1.Push(ls[i])
		j1.PushRight(rs[i])
	}
	f2, j2, a2, ctx2 := build()
	for i := 0; i < len(ls); i += 128 {
		end := min(i+128, len(ls))
		f2.PushBatch(ls[i:end])
		j2.PushRightBatch(rs[i:end])
	}

	r1, r2 := a1.EmitFinal(), a2.EmitFinal()
	if len(r1) != len(r2) || len(r1) == 0 {
		t.Fatalf("group counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].String() != r2[i].String() {
			t.Fatalf("group %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
	// Charges are summed in a different order across operators in the
	// batched path, so the totals agree only up to float non-associativity.
	if diff := math.Abs(ctx1.Clock.CPU - ctx2.Clock.CPU); diff > 1e-9*ctx1.Clock.CPU {
		t.Fatalf("pipeline clocks differ: %v vs %v", ctx1.Clock.CPU, ctx2.Clock.CPU)
	}
}

// TestQueueDrainCompacts covers the Drain memory fix: partial drains
// preserve order and compact the backing buffer rather than pinning the
// drained prefix.
func TestQueueDrainCompacts(t *testing.T) {
	sink := &collectSink{}
	q := NewQueue(sink)
	for i := int64(0); i < 10; i++ {
		q.Push(rRow(i, i))
	}
	if n := q.Drain(3); n != 3 || q.Len() != 7 {
		t.Fatalf("Drain(3) = %d, len %d", n, q.Len())
	}
	q.PushBatch([]types.Tuple{rRow(10, 10), rRow(11, 11)})
	if n := q.Drain(0); n != 9 || q.Len() != 0 {
		t.Fatalf("Drain(0) = %d, len %d", n, q.Len())
	}
	if len(sink.rows) != 12 {
		t.Fatalf("delivered %d tuples, want 12", len(sink.rows))
	}
	for i, row := range sink.rows {
		if row[0].I != int64(i) {
			t.Fatalf("row %d out of order: %v", i, row)
		}
	}
	if n := q.Drain(5); n != 0 {
		t.Fatalf("Drain on empty = %d", n)
	}
}

// joinAllocsPerTuple measures total heap allocations of constructing and
// running a pipelined join over n tuples per side, divided by the tuple
// count.
func joinAllocsPerTuple(n, batchSize int) float64 {
	ls := randTuples(n, int64(n/4), 5, rRow)
	rs := randTuples(n, int64(n/4), 6, sRow)
	allocs := testing.AllocsPerRun(1, func() {
		j := NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, Discard)
		feedJoin(j, ls, rs, 64, batchSize > 1)
	})
	return allocs / float64(2*n)
}

// TestBatchAllocsAtLeastHalved enforces the PR's headline acceptance
// criterion as a regression test: the batched pipelined-join path
// performs at most half the allocations per tuple of the tuple-at-a-time
// baseline.
func TestBatchAllocsAtLeastHalved(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	tuple := joinAllocsPerTuple(4096, 1)
	batch := joinAllocsPerTuple(4096, 64)
	t.Logf("allocs/tuple: tuple-at-a-time %.3f, batch %.3f", tuple, batch)
	if batch > tuple/2 {
		t.Fatalf("batched path allocates %.3f/tuple, more than half of baseline %.3f/tuple", batch, tuple)
	}
}

// copySink is an InputCopier consumer: it clones what it keeps, and
// records where each delivery's first tuple lives.
type copySink struct {
	rows  []types.Tuple
	first []*types.Value
}

func (s *copySink) CopiesInput() {}

func (s *copySink) Push(t types.Tuple) { s.rows = append(s.rows, t.Clone()) }

func (s *copySink) PushBatch(ts []types.Tuple) {
	s.first = append(s.first, &ts[0][0])
	for _, t := range ts {
		s.Push(t)
	}
}

// TestJoinRecyclesEmitArenaForCopyingSink pins the emit-arena rule: a join
// feeding an InputCopier rewinds its arena after every delivery — the same
// storage carries every batch once the slab has grown to a batch's size —
// and what the consumer copied out is exactly what a retaining consumer is
// handed; a join feeding any other sink never reuses a tuple's storage.
func TestJoinRecyclesEmitArenaForCopyingSink(t *testing.T) {
	ls := randTuples(2000, 300, 1, rRow)
	rs := randTuples(2000, 300, 2, sRow)
	for _, style := range []JoinStyle{Pipelined, BuildThenProbe} {
		kept, copied := &collectSink{}, &copySink{}
		feedJoin(NewHashJoin(NewContext(), style, rSchema, sSchema, []int{0}, []int{0}, kept), ls, rs, 64, true)
		feedJoin(NewHashJoin(NewContext(), style, rSchema, sSchema, []int{0}, []int{0}, copied), ls, rs, 64, true)
		if len(kept.rows) == 0 || len(kept.rows) != len(copied.rows) {
			t.Fatalf("%v: %d rows retained, %d copied", style, len(kept.rows), len(copied.rows))
		}
		for i := range kept.rows {
			if kept.rows[i].String() != copied.rows[i].String() {
				t.Fatalf("%v: row %d = %v through the recycled arena, %v retained", style, i, copied.rows[i], kept.rows[i])
			}
		}
	}

	// Steady state: same-sized deliveries land on the same storage.
	right := make([]types.Tuple, 64)
	for i := range right {
		right[i] = sRow(int64(i), int64(i))
	}
	left := make([]types.Tuple, 64)
	for i := range left {
		left[i] = rRow(int64(i), int64(i))
	}
	copied := &copySink{}
	j := NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, copied)
	j.PushRightBatch(right)
	for i := 0; i < 8; i++ {
		j.PushLeftBatch(left) // each left row matches one right row: 64 emits a delivery
	}
	if len(copied.first) != 8 {
		t.Fatalf("%d deliveries, want 8", len(copied.first))
	}
	for i := 1; i < len(copied.first); i++ {
		if copied.first[i] != copied.first[0] {
			t.Fatalf("delivery %d starts at %p, delivery 0 at %p: the arena was not rewound", i, copied.first[i], copied.first[0])
		}
	}

	// A retaining consumer's tuples are never overwritten.
	kept := &collectSink{}
	j = NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, kept)
	j.PushRightBatch(right)
	for i := 0; i < 8; i++ {
		j.PushLeftBatch(left)
	}
	seen := map[*types.Value]bool{}
	for _, r := range kept.rows {
		if seen[&r[0]] {
			t.Fatalf("retained tuple storage %p handed out twice", &r[0])
		}
		seen[&r[0]] = true
	}
}
