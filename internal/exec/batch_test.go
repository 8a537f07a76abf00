package exec

import (
	"context"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// feedJoin pushes ls/rs in alternating chunks of chunkSize per side — the
// same arrival order whatever batch — each chunk delivered as batches of
// batch rows, so any output difference isolates how the input was cut.
func feedJoin(j *HashJoin, ls, rs []types.Tuple, chunkSize, batch int) {
	i, k := 0, 0
	deliver := func(in Sink, chunk []types.Tuple) {
		for len(chunk) > 0 {
			n := min(batch, len(chunk))
			in.Push(chunk[:n], 0)
			chunk = chunk[n:]
		}
	}
	left, right := j.LeftSink(), j.RightSink()
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			end := min(i+chunkSize, len(ls))
			deliver(left, ls[i:end])
			i = end
		}
		if k < len(rs) {
			end := min(k+chunkSize, len(rs))
			deliver(right, rs[k:end])
			k = end
		}
	}
}

// TestJoinBatchSizeInvariant verifies that how a join's input is cut into
// batches does not show: batches of one and batches of 64 give the same
// outputs in the same order, the same counters, the same virtual-clock
// charges.
func TestJoinBatchSizeInvariant(t *testing.T) {
	ls := randTuples(2000, 300, 1, rRow)
	rs := randTuples(2000, 300, 2, sRow)
	ctx1, ctx2 := NewContext(), NewContext()
	out1, out2 := &collectSink{}, &collectSink{}
	j1 := NewHashJoin(ctx1, Pipelined, rSchema, sSchema, []int{0}, []int{0}, out1)
	j2 := NewHashJoin(ctx2, Pipelined, rSchema, sSchema, []int{0}, []int{0}, out2)
	feedJoin(j1, ls, rs, 64, 1)
	feedJoin(j2, ls, rs, 64, 64)
	if len(out1.rows) != len(out2.rows) {
		t.Fatalf("%d vs %d output tuples", len(out1.rows), len(out2.rows))
	}
	for i := range out1.rows {
		if out1.rows[i].String() != out2.rows[i].String() {
			t.Fatalf("output %d differs: %v vs %v", i, out1.rows[i], out2.rows[i])
		}
	}
	c1, c2 := j1.Counters(), j2.Counters()
	if *c1 != *c2 {
		t.Fatalf("counters differ: %+v vs %+v", c1, c2)
	}
	if ctx1.Clock.CPU != ctx2.Clock.CPU || ctx1.Clock.Now != ctx2.Clock.Now {
		t.Fatalf("clocks differ: (%v, %v) vs (%v, %v)",
			ctx1.Clock.Now, ctx1.Clock.CPU, ctx2.Clock.Now, ctx2.Clock.CPU)
	}
}

// TestBatchPipelineSegment drives a leaf-filtered HashJoin → AggTable
// segment, the shape of a lowered phase plan, and checks that batches of
// one and batches of up to the driver's default give equal final
// aggregates and clocks.
func TestBatchPipelineSegment(t *testing.T) {
	full := rSchema.Concat(sSchema)
	aggs := []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}}
	ls := randTuples(3000, 200, 3, rRow)
	rs := randTuples(3000, 200, 4, sRow)
	run := func(batch int) (*AggTable, *Context) {
		ctx := NewContext()
		agg, err := NewAggTable(ctx, full, []string{"r.k"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		j := NewHashJoin(ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, agg)
		// r arrives ten times as fast as s, so runs of r rows queue up
		// between two s rows.
		d := NewDriver(ctx,
			&Leaf{Provider: source.NewProvider(source.NewRelation("r", rSchema, ls), source.Bandwidth{TuplesPerSec: 1e5}),
				PushBatch: Feed(j.LeftSink()), Pred: func(tp types.Tuple) bool { return tp[1].I%3 != 0 }},
			&Leaf{Provider: source.NewProvider(source.NewRelation("s", sSchema, rs), source.Bandwidth{TuplesPerSec: 1e4}),
				PushBatch: Feed(j.RightSink())},
		)
		d.run(context.Background(), batch, 0, nil)
		return agg, ctx
	}
	a1, ctx1 := run(1)
	a2, ctx2 := run(DefaultBatch)

	r1, r2 := finalRows(a1), finalRows(a2)
	if len(r1) != len(r2) || len(r1) == 0 {
		t.Fatalf("group counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].String() != r2[i].String() {
			t.Fatalf("group %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
	if *ctx1.Clock != *ctx2.Clock {
		t.Fatalf("pipeline clocks differ: %+v vs %+v", ctx1.Clock, ctx2.Clock)
	}
}

// copySink is an InputCopier consumer: it clones what it keeps, and
// records where each delivery's first tuple lives.
type copySink struct {
	rows  []types.Tuple
	first []*types.Value
}

func (s *copySink) CopiesInput() {}

func (s *copySink) Push(ts []types.Tuple, _ int) {
	s.first = append(s.first, &ts[0][0])
	for _, t := range ts {
		s.rows = append(s.rows, t.Clone())
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
	kept, copied := &collectSink{}, &copySink{}
	feedJoin(NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, kept), ls, rs, 64, 64)
	feedJoin(NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, copied), ls, rs, 64, 64)
	if len(kept.rows) == 0 || len(kept.rows) != len(copied.rows) {
		t.Fatalf("%d rows retained, %d copied", len(kept.rows), len(copied.rows))
	}
	for i := range kept.rows {
		if kept.rows[i].String() != copied.rows[i].String() {
			t.Fatalf("row %d = %v through the recycled arena, %v retained", i, copied.rows[i], kept.rows[i])
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
	copied = &copySink{}
	j := NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, copied)
	j.RightSink().Push(right, 0)
	for i := 0; i < 8; i++ {
		j.LeftSink().Push(left, 0) // each left row matches one right row: 64 emits a delivery
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
	kept = &collectSink{}
	j = NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, kept)
	j.RightSink().Push(right, 0)
	for i := 0; i < 8; i++ {
		j.LeftSink().Push(left, 0)
	}
	seen := map[*types.Value]bool{}
	for _, r := range kept.rows {
		if seen[&r[0]] {
			t.Fatalf("retained tuple storage %p handed out twice", &r[0])
		}
		seen[&r[0]] = true
	}
}
