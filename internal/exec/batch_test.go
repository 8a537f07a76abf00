package exec

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/stats"
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
	j.FinishLeft()
	j.FinishRight()
}

// TestJoinBatchSizeInvariant verifies that how a join's input is cut into
// batches does not show: batches of one and batches of 64 give the same
// outputs in the same order, the same counters, the same virtual-clock
// charges.
func TestJoinBatchSizeInvariant(t *testing.T) {
	ls := randTuples(2000, 300, 1, rRow)
	rs := randTuples(2000, 300, 2, sRow)
	for _, style := range []JoinStyle{Pipelined, BuildThenProbe, NestedLoops} {
		ctx1, ctx2 := NewContext(), NewContext()
		out1, out2 := &collectSink{}, &collectSink{}
		j1 := NewHashJoin(ctx1, style, rSchema, sSchema, []int{0}, []int{0}, out1)
		j2 := NewHashJoin(ctx2, style, rSchema, sSchema, []int{0}, []int{0}, out2)
		feedJoin(j1, ls, rs, 64, 1)
		feedJoin(j2, ls, rs, 64, 64)
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

	r1, r2 := a1.EmitFinal(), a2.EmitFinal()
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
	for _, style := range []JoinStyle{Pipelined, BuildThenProbe} {
		kept, copied := &collectSink{}, &copySink{}
		feedJoin(NewHashJoin(NewContext(), style, rSchema, sSchema, []int{0}, []int{0}, kept), ls, rs, 64, 64)
		feedJoin(NewHashJoin(NewContext(), style, rSchema, sSchema, []int{0}, []int{0}, copied), ls, rs, 64, 64)
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
	kept := &collectSink{}
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

// TestHybridHashDrain pins what a build-then-probe join's drain of its
// buffered probes delivers and costs. The rows (in order), the counters and
// the join's clock were written by the commit before the drain moved onto
// the hashed batch path — it probed unhashed, one heap-allocated key and
// one heap-allocated row per hit, one push per hit — and must not move:
// the probes, their charges and the hit order are the same, only their
// delivery is batched. The drain allocates within the batched push's
// budget (scripts/check_allocs.sh: 2 per pushed pair of tuples).
func TestHybridHashDrain(t *testing.T) {
	ls := randTuples(2000, 300, 1, rRow)
	rs := randTuples(2000, 300, 2, sRow)
	ctx, out := NewContext(), &collectSink{}
	j := NewHashJoin(ctx, BuildThenProbe, rSchema, sSchema, []int{0}, []int{0}, out)
	feedJoin(j, ls, rs, 64, 64)
	var sb strings.Builder
	for _, r := range out.rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	if got, want := fmt.Sprintf("%d:%x", len(out.rows), sum[:8]), "13396:52a8b0b8681c4068"; got != want {
		t.Errorf("drained rows = %s, want %s", got, want)
	}
	if got, want := *j.Counters(), (stats.OpCounters{In: 4000, InLeft: 2000, InRight: 2000, Out: 13396}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
	if want := int64(24954400); ctx.Clock.Now != want || ctx.Clock.CPU != want {
		t.Errorf("clock = (%v, %v), want %v for both", ctx.Clock.Now, ctx.Clock.CPU, want)
	}

	const runs = 5
	joins := make([]*HashJoin, 0, runs+1) // AllocsPerRun warms up with one extra call
	for len(joins) < cap(joins) {
		j := NewHashJoin(NewContext(), BuildThenProbe, rSchema, sSchema, []int{0}, []int{0}, Discard)
		j.LeftSink().Push(ls, 0)
		j.RightSink().Push(rs, 0)
		joins = append(joins, j)
	}
	perProbe := testing.AllocsPerRun(runs, func() {
		joins[0].FinishRight()
		joins = joins[1:]
	}) / float64(len(ls))
	if perProbe > 2 {
		t.Errorf("drain allocates %.2f per buffered probe, budget 2", perProbe)
	}
}
