package exec

import (
	"fmt"
	"math"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// TestColumnarEntryMatchesRows pins each columnar shim benchmark/probes.go
// times against the row entry it stands for: the same chunks pushed as
// columnar batches and as row batches give identical outputs in identical
// order, identical counters and an identical virtual clock — for the
// exchange, the same rows per partition; for the partition merge, the same
// released sequence.
func TestColumnarEntryMatchesRows(t *testing.T) {
	ls := randTuples(2000, 300, 1, rRow)
	rs := randTuples(2000, 300, 2, sRow)
	lbs, rbs := toColBatches(ls, 64), toColBatches(rs, 64)
	chunk := func(rows []types.Tuple, i int) []types.Tuple { return rows[i*64 : min((i+1)*64, len(rows))] }
	type side struct {
		ctx *Context
		out *updateLog
	}
	newSide := func() side { return side{NewContext(), &updateLog{}} }
	check := func(t *testing.T, name string, col, row side, colCtr, rowCtr stats.OpCounters) {
		t.Helper()
		if len(col.out.rows) != len(row.out.rows) || len(row.out.rows) == 0 {
			t.Fatalf("%s: %d columnar vs %d row outputs", name, len(col.out.rows), len(row.out.rows))
		}
		for i := range row.out.rows {
			if col.out.signs[i] != row.out.signs[i] || col.out.rows[i].String() != row.out.rows[i].String() {
				t.Fatalf("%s: output %d differs: %v/%d vs %v/%d", name, i,
					col.out.rows[i], col.out.signs[i], row.out.rows[i], row.out.signs[i])
			}
		}
		if colCtr != rowCtr {
			t.Fatalf("%s: counters differ: %+v vs %+v", name, colCtr, rowCtr)
		}
		if *col.ctx.Clock != *row.ctx.Clock {
			t.Fatalf("%s: clocks differ: %+v vs %+v", name, col.ctx.Clock, row.ctx.Clock)
		}
	}
	newJoin := func(s side) *HashJoin {
		return NewHashJoin(s.ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, s.out)
	}
	// PushLeftColBatch / PushRightColBatch.
	col, row := newSide(), newSide()
	jc, jr := newJoin(col), newJoin(row)
	for i := range lbs {
		jc.PushLeftColBatch(lbs[i])
		jc.PushRightColBatch(rbs[i])
		jr.LeftSink().Push(chunk(ls, i), 0)
		jr.RightSink().Push(chunk(rs, i), 0)
	}
	check(t, "join", col, row, *jc.Counters(), *jr.Counters())

	// PushDeltaLeft / PushDeltaRight: assert both sides, retract the right.
	col, row = newSide(), newSide()
	jc, jr = newJoin(col), newJoin(row)
	for i := range lbs {
		jc.PushDeltaLeft(lbs[i], +1)
		jc.PushDeltaRight(rbs[i], +1)
		jr.LeftSink().Push(chunk(ls, i), +1)
		jr.RightSink().Push(chunk(rs, i), +1)
	}
	for i := range rbs {
		jc.PushDeltaRight(rbs[i], -1)
		jr.RightSink().Push(chunk(rs, i), -1)
	}
	check(t, "join/signed", col, row, *jc.Counters(), *jr.Counters())

	newAgg := func(s side) *AggTable {
		a, err := NewAggTable(s.ctx, rSchema, []string{"r.k"}, []algebra.AggSpec{
			{Kind: algebra.AggSum, Arg: expr.Column("r.a"), As: "sm"},
			{Kind: algebra.AggCount, As: "ct"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// AggTable.PushColBatch.
	col, row = newSide(), newSide()
	ac, ar := newAgg(col), newAgg(row)
	for i := range lbs {
		ac.PushColBatch(lbs[i])
		ar.Push(chunk(ls, i), 0)
	}
	col.out.Push(finalRows(ac), 0)
	row.out.Push(finalRows(ar), 0)
	check(t, "agg", col, row, *ac.Counters(), *ar.Counters())

	// AggTable.PushDelta: assert every batch, retract every other one.
	col, row = newSide(), newSide()
	ac, ar = newAgg(col), newAgg(row)
	ac.EnableMaintenance()
	ar.EnableMaintenance()
	for i := range lbs {
		ac.PushDelta(lbs[i], +1)
		ar.Push(chunk(ls, i), +1)
	}
	for i := 0; i < len(lbs); i += 2 {
		ac.PushDelta(lbs[i], -1)
		ar.Push(chunk(ls, i), -1)
	}
	ac.EmitRevisionsTo(col.out)
	ar.EmitRevisionsTo(row.out)
	check(t, "agg/signed", col, row, *ac.Counters(), *ar.Counters())

	// Exchange.PushColBatch: the same rows reach every partition, in order.
	const parts = 4
	routed := func(push func(*Exchange, int)) ([][]string, stats.OpCounters) {
		got := make([][]string, parts)
		ex := NewExchange(parts, []int{0}, func(p int, ts []types.Tuple) {
			for _, tp := range ts {
				got[p] = append(got[p], tp.String())
			}
		})
		for i := range lbs {
			push(ex, i)
		}
		return got, *ex.Counters()
	}
	colParts, colCtr := routed(func(ex *Exchange, i int) { ex.PushColBatch(lbs[i]) })
	rowParts, rowCtr := routed(func(ex *Exchange, i int) { ex.Push(chunk(ls, i), 0) })
	if colCtr != rowCtr || rowCtr.In != int64(len(ls)) || rowCtr.Out != rowCtr.In {
		t.Fatalf("exchange: counters %+v vs %+v", colCtr, rowCtr)
	}
	for p := range rowParts {
		if fmt.Sprint(colParts[p]) != fmt.Sprint(rowParts[p]) {
			t.Fatalf("exchange: partition %d got %d rows from the columnar entry, %d from the row entry, or in another order",
				p, len(colParts[p]), len(rowParts[p]))
		}
	}

	// partitionBuf.PushColBatch: the merge releases the same sequence.
	released := func(push func(s Sink, i int)) []string {
		merge := NewPartitionMerge(parts)
		var got []string
		out := SinkFunc(func(ts []types.Tuple, _ int) {
			for _, tp := range ts {
				got = append(got, tp.String())
			}
		})
		for i := range lbs {
			push(merge.Sink(i%parts), i)
			if i%3 == 2 {
				merge.ReleasePrefix(out)
			}
		}
		merge.Drain(out)
		return got
	}
	colRel := released(func(s Sink, i int) { s.(ColBatchSink).PushColBatch(lbs[i]) })
	rowRel := released(func(s Sink, i int) { s.Push(chunk(ls, i), 0) })
	if len(rowRel) != len(ls) || fmt.Sprint(colRel) != fmt.Sprint(rowRel) {
		t.Fatalf("merge: %d rows released from the columnar entry, %d from the row entry, or in another order", len(colRel), len(rowRel))
	}
}

// TestAggTableColumnarGrouping pins the hashed group routing against the
// scalar path on adversarial keys: kinds that compare equal but must
// group apart (Int(1) vs Float(1) vs Str("1")), NaNs (one group), and
// ±0 (distinct groups) — the byte codec's grouping semantics.
func TestAggTableColumnarGrouping(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "g.k", Kind: types.KindFloat},
		types.Column{Name: "g.v", Kind: types.KindInt},
	)
	keys := []types.Value{
		types.Int(1), types.Float(1), types.Str("1"),
		types.Float(math.NaN()), types.Float(math.NaN()),
		types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Null(), types.Str(""),
	}
	var rows []types.Tuple
	for rep := 0; rep < 3; rep++ {
		for i, k := range keys {
			rows = append(rows, types.Tuple{k, types.Int(int64(i))})
		}
	}
	aggs := []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}}
	mk := func(t *testing.T) *AggTable {
		t.Helper()
		a, err := NewAggTable(NewContext(), schema, []string{"g.k"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := mk(t)
	for _, r := range rows {
		a1.AbsorbRaw(r)
	}
	a2 := mk(t)
	cb := types.FromRows(rows, 2)
	a2.PushColBatch(cb)
	// 8 groups: {Int 1, Float 1, Str "1", NaN, +0, -0, Null, ""}.
	if a1.Groups() != 8 || a2.Groups() != 8 {
		t.Fatalf("groups: scalar %d, columnar %d, want 8", a1.Groups(), a2.Groups())
	}
	r1, r2 := finalRows(a1), finalRows(a2)
	counts := func(rs []types.Tuple) map[string]string {
		m := map[string]string{}
		for _, r := range rs {
			m[types.EncodeKey(r, []int{0})] = r[1].String()
		}
		return m
	}
	c1, c2 := counts(r1), counts(r2)
	if len(c1) != len(c2) {
		t.Fatalf("emitted group counts differ: %d vs %d", len(c1), len(c2))
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("group %q count differs: %s vs %s", k, v, c2[k])
		}
	}
}

// TestColumnarAllocsNotWorse enforces the allocation acceptance bound as
// a like-for-like regression test: the columnar join path must not
// allocate more per tuple than the row-batch path (the shared floor is
// bucket-chain storage).
func TestColumnarAllocsNotWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const n = 4096
	ls := randTuples(n, n/4, 5, rRow)
	rs := randTuples(n, n/4, 6, sRow)
	lbs := toColBatches(ls, 64)
	rbs := toColBatches(rs, 64)
	perTuple := func(fn func()) float64 {
		return testing.AllocsPerRun(3, fn) / float64(2*n)
	}
	rows := perTuple(func() {
		j := NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, Discard)
		feedJoin(j, ls, rs, 64, 64)
	})
	columnar := perTuple(func() {
		j := NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, Discard)
		for i := range lbs {
			j.PushLeftColBatch(lbs[i])
			j.PushRightColBatch(rbs[i])
		}
	})
	t.Logf("allocs/tuple: rows %.3f, columnar %.3f", rows, columnar)
	// Small tolerance: the columnar path's extra slab arenas amortize to
	// well under 0.1 allocs/tuple.
	if columnar > rows+0.1 {
		t.Fatalf("columnar path allocates %.3f/tuple, row path %.3f/tuple", columnar, rows)
	}
}
