package exec

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/types"
)

var aggIn = types.NewSchema(
	types.Column{Name: "t.g", Kind: types.KindInt},
	types.Column{Name: "t.v", Kind: types.KindInt},
)

func aggRow(g, v int64) types.Tuple { return types.Tuple{types.Int(g), types.Int(v)} }

func allAggs() []algebra.AggSpec {
	return []algebra.AggSpec{
		{Kind: algebra.AggMin, Arg: expr.Column("t.v"), As: "mn"},
		{Kind: algebra.AggMax, Arg: expr.Column("t.v"), As: "mx"},
		{Kind: algebra.AggSum, Arg: expr.Column("t.v"), As: "sm"},
		{Kind: algebra.AggCount, As: "ct"},
		{Kind: algebra.AggAvg, Arg: expr.Column("t.v"), As: "av"},
	}
}

// refAgg computes expected aggregates per group.
type refG struct {
	mn, mx int64
	sum    float64
	cnt    int64
}

func refAgg(rows []types.Tuple) map[int64]*refG {
	m := map[int64]*refG{}
	for _, r := range rows {
		g, v := r[0].I, r[1].I
		e, ok := m[g]
		if !ok {
			e = &refG{mn: v, mx: v}
			m[g] = e
		}
		if v < e.mn {
			e.mn = v
		}
		if v > e.mx {
			e.mx = v
		}
		e.sum += float64(v)
		e.cnt++
	}
	return m
}

// finalRows is EmitFinal into rows of their own.
func finalRows(a *AggTable) []types.Tuple {
	rows := []types.Tuple{}
	a.EmitFinal(func(width int) types.Tuple {
		rows = append(rows, make(types.Tuple, width))
		return rows[len(rows)-1]
	})
	return rows
}

func checkAggResult(t *testing.T, rows []types.Tuple, got []types.Tuple) {
	t.Helper()
	want := refAgg(rows)
	if len(got) != len(want) {
		t.Fatalf("groups = %d, want %d", len(got), len(want))
	}
	for _, r := range got {
		g := r[0].I
		w, ok := want[g]
		if !ok {
			t.Fatalf("unexpected group %d", g)
		}
		if r[1].I != w.mn || r[2].I != w.mx {
			t.Errorf("group %d min/max = %v/%v, want %d/%d", g, r[1], r[2], w.mn, w.mx)
		}
		if math.Abs(r[3].F-w.sum) > 1e-9 {
			t.Errorf("group %d sum = %v, want %g", g, r[3], w.sum)
		}
		if r[4].I != w.cnt {
			t.Errorf("group %d count = %v, want %d", g, r[4], w.cnt)
		}
		if math.Abs(r[5].F-w.sum/float64(w.cnt)) > 1e-9 {
			t.Errorf("group %d avg = %v", g, r[5])
		}
	}
}

func TestAggTableRaw(t *testing.T) {
	ctx := NewContext()
	a, err := NewAggTable(ctx, aggIn, []string{"t.g"}, allAggs())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var rows []types.Tuple
	for i := 0; i < 2000; i++ {
		rows = append(rows, aggRow(rng.Int63n(20), rng.Int63n(1000)-500))
	}
	a.Push(rows, 0) // unsigned Push == AbsorbRaw of each
	if a.Groups() != 20 {
		t.Errorf("Groups = %d", a.Groups())
	}
	checkAggResult(t, rows, finalRows(a))
	if a.Counters().In != 2000 {
		t.Error("counters wrong")
	}
	if a.Schema().Len() != 6 || a.PartialSchema().Len() != 7 {
		t.Errorf("schemas: final=%d partial=%d", a.Schema().Len(), a.PartialSchema().Len())
	}
}

func TestAggTableEmitDeterministic(t *testing.T) {
	mk := func() []types.Tuple {
		ctx := NewContext()
		a, _ := NewAggTable(ctx, aggIn, []string{"t.g"}, allAggs())
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 500; i++ {
			a.AbsorbRaw(aggRow(rng.Int63n(50), rng.Int63n(100)))
		}
		return finalRows(a)
	}
	a, b := mk(), mk()
	for i := range a {
		for j := range a[i] {
			if types.Compare(a[i][j], b[i][j]) != 0 {
				t.Fatal("EmitFinal not deterministic")
			}
		}
	}
	// Sorted by group key.
	for i := 1; i < len(a); i++ {
		if a[i][0].I < a[i-1][0].I {
			t.Fatal("EmitFinal not sorted")
		}
	}
}

func TestPreAggregationDistributesOverUnion(t *testing.T) {
	// Property (paper §2.3): windowed pre-aggregation with ANY window
	// schedule, followed by a coalescing final aggregate, equals direct
	// aggregation. Try several window sizes and random data.
	rng := rand.New(rand.NewSource(3))
	var rows []types.Tuple
	for i := 0; i < 3000; i++ {
		rows = append(rows, aggRow(rng.Int63n(15), rng.Int63n(2000)-1000))
	}
	// Direct.
	ctx := NewContext()
	direct, _ := NewAggTable(ctx, aggIn, []string{"t.g"}, allAggs())
	for _, r := range rows {
		direct.AbsorbRaw(r)
	}
	wantRows := finalRows(direct)

	for _, w0 := range []int{1, 2, 7, 64, 100000} {
		ctx := NewContext()
		final, _ := NewAggTable(ctx, aggIn, []string{"t.g"}, allAggs())
		pre, err := NewWindowPreAgg(ctx, aggIn, []string{"t.g"}, allAggs(),
			SinkFunc(func(ts []types.Tuple, _ int) {
				for _, t := range ts {
					final.AbsorbPartial(t)
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		pre.W = w0
		for _, r := range rows {
			pre.Push(one(r), 0)
		}
		pre.Finish()
		got := finalRows(final)
		if len(got) != len(wantRows) {
			t.Fatalf("w=%d: groups %d vs %d", w0, len(got), len(wantRows))
		}
		for i := range got {
			for j := range got[i] {
				gv, wv := got[i][j], wantRows[i][j]
				if gv.K == types.KindFloat {
					if math.Abs(gv.F-wv.F) > 1e-6 {
						t.Fatalf("w=%d: value mismatch at %d/%d: %v vs %v", w0, i, j, gv, wv)
					}
				} else if types.Compare(gv, wv) != 0 {
					t.Fatalf("w=%d: mismatch at %d/%d: %v vs %v", w0, i, j, gv, wv)
				}
			}
		}
	}
}

// TestPseudogroupEquivalentToWindowOne pins the pseudogroup of §3.2 — a
// pre-aggregation over each successive singleton tuple set — as
// WindowPreAgg's w=1 mode: one partial per input row, in the partial
// layout, each equal to what a table aggregating that row alone emits as
// its partial, and coalescing to the direct aggregate.
func TestPseudogroupEquivalentToWindowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var rows []types.Tuple
	for i := 0; i < 500; i++ {
		rows = append(rows, aggRow(rng.Int63n(5), rng.Int63n(100)))
	}
	ctx := NewContext()
	finalA, _ := NewAggTable(ctx, aggIn, []string{"t.g"}, allAggs())
	var partials []types.Tuple
	pg, err := NewWindowPreAgg(ctx, aggIn, []string{"t.g"}, allAggs(), SinkFunc(func(ts []types.Tuple, _ int) {
		partials = append(partials, ts...)
		for _, t := range ts {
			finalA.AbsorbPartial(t)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	pg.W = 1
	for _, r := range rows {
		pg.Push(one(r), 0)
	}
	pg.Finish()
	if pg.Counters().Out != int64(len(rows)) || len(partials) != len(rows) {
		t.Fatalf("pseudogroup must be 1:1: %d rows in, %d partials out", len(rows), len(partials))
	}
	if !pg.Schema().Equal(algebra.GroupSchema(aggIn, []string{"t.g"}, allAggs(), true)) {
		t.Error("pseudogroup schema mismatch with partial schema")
	}
	for i, r := range rows {
		single, _ := NewAggTable(NewContext(), aggIn, []string{"t.g"}, allAggs())
		single.AbsorbRaw(r)
		if want := single.EmitPartial()[0]; partials[i].String() != want.String() {
			t.Fatalf("row %d: singleton partial %v, want %v", i, partials[i], want)
		}
	}
	checkAggResult(t, rows, finalRows(finalA))
}

func TestWindowPreAggAdaptsWindow(t *testing.T) {
	// High-repetition stream: window should grow.
	ctx := NewContext()
	pre, _ := NewWindowPreAgg(ctx, aggIn, []string{"t.g"}, allAggs(), Discard)
	pre.W = 16
	for i := 0; i < 4096; i++ {
		pre.Push(one(aggRow(int64(i%4), 1)), 0) // 4 groups only
	}
	pre.Finish()
	if pre.W <= 16 {
		t.Errorf("window should grow on repetitive data, W=%d", pre.W)
	}
	if pre.Coalesced == 0 || pre.WindowsFlushed == 0 {
		t.Error("instrumentation empty")
	}

	// All-distinct stream: window should shrink toward 1.
	ctx2 := NewContext()
	pre2, _ := NewWindowPreAgg(ctx2, aggIn, []string{"t.g"}, allAggs(), Discard)
	pre2.W = 64
	for i := 0; i < 4096; i++ {
		pre2.Push(one(aggRow(int64(i), 1)), 0) // every tuple its own group
	}
	pre2.Finish()
	if pre2.W >= 64 {
		t.Errorf("window should shrink on distinct data, W=%d", pre2.W)
	}
}

func TestWindowPreAggBounds(t *testing.T) {
	ctx := NewContext()
	pre, _ := NewWindowPreAgg(ctx, aggIn, []string{"t.g"}, allAggs(), Discard)
	pre.W, pre.MinW, pre.MaxW = 2, 1, 4
	// Shrink to floor.
	for i := 0; i < 64; i++ {
		pre.Push(one(aggRow(int64(i), 1)), 0)
	}
	if pre.W < pre.MinW {
		t.Error("window under MinW")
	}
	// Grow to cap.
	for i := 0; i < 256; i++ {
		pre.Push(one(aggRow(0, 1)), 0)
	}
	if pre.W > pre.MaxW {
		t.Error("window over MaxW")
	}
}

func TestAggNullHandling(t *testing.T) {
	ctx := NewContext()
	a, _ := NewAggTable(ctx, aggIn, []string{"t.g"}, allAggs())
	a.AbsorbRaw(types.Tuple{types.Int(1), types.Null()})
	a.AbsorbRaw(types.Tuple{types.Int(1), types.Int(5)})
	out := finalRows(a)
	if len(out) != 1 {
		t.Fatal("one group expected")
	}
	r := out[0]
	if r[1].I != 5 || r[2].I != 5 {
		t.Error("nulls must not affect min/max")
	}
	if r[3].F != 5 {
		t.Error("nulls must not affect sum")
	}
	if r[4].I != 2 {
		t.Error("count(*) counts nulls")
	}
	if r[5].F != 5 {
		t.Error("avg over non-null values")
	}
}

func TestAggErrorsOnBadColumns(t *testing.T) {
	ctx := NewContext()
	if _, err := NewAggTable(ctx, aggIn, []string{"zzz"}, nil); err == nil {
		t.Error("bad group col should error")
	}
	bad := []algebra.AggSpec{{Kind: algebra.AggSum, Arg: expr.Column("zzz"), As: "s"}}
	if _, err := NewAggTable(ctx, aggIn, nil, bad); err == nil {
		t.Error("bad agg col should error")
	}
	if _, err := NewWindowPreAgg(ctx, aggIn, []string{"zzz"}, nil, Discard); err == nil {
		t.Error("window pre-agg bad group col should error")
	}
	if _, err := NewWindowPreAgg(ctx, aggIn, nil, bad, Discard); err == nil {
		t.Error("window pre-agg bad agg col should error")
	}
}

func TestGlobalAggregateNoGroupBy(t *testing.T) {
	ctx := NewContext()
	a, _ := NewAggTable(ctx, aggIn, nil, []algebra.AggSpec{
		{Kind: algebra.AggSum, Arg: expr.Column("t.v"), As: "s"},
	})
	for i := int64(1); i <= 10; i++ {
		a.AbsorbRaw(aggRow(0, i))
	}
	out := finalRows(a)
	if len(out) != 1 || out[0][0].F != 55 {
		t.Errorf("global sum = %v", out)
	}
}
