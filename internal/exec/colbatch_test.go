package exec

import (
	"math"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/types"
)

// feedJoinCol mirrors feedJoin's chunked alternating delivery, but
// transposes each chunk into a columnar batch first.
func feedJoinCol(j *HashJoin, ls, rs []types.Tuple, chunkSize int) {
	i, k := 0, 0
	lb, rb := types.NewColBatch(2), types.NewColBatch(2)
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			end := min(i+chunkSize, len(ls))
			lb.Reset()
			lb.AppendRows(ls[i:end])
			j.PushLeftColBatch(lb)
			i = end
		}
		if k < len(rs) {
			end := min(k+chunkSize, len(rs))
			rb.Reset()
			rb.AppendRows(rs[k:end])
			j.PushRightColBatch(rb)
			k = end
		}
	}
	j.FinishLeft()
	j.FinishRight()
}

// TestColumnarEntryMatchesRows is the equivalence pin for the join's
// columnar entries (the kernel benchmark/probes.go times): the same chunks
// pushed as columnar batches and as row batches must produce byte-identical
// outputs in identical order with identical counters. Virtual-clock totals
// agree up to float summation order (the columnar path charges a batch's
// inserts ahead of its probes).
func TestColumnarEntryMatchesRows(t *testing.T) {
	ls := randTuples(2000, 300, 1, rRow)
	rs := randTuples(2000, 300, 2, sRow)
	for _, style := range []JoinStyle{Pipelined, BuildThenProbe, NestedLoops} {
		ctxR, ctx := NewContext(), NewContext()
		outR, out := &collectSink{}, &collectSink{}
		jR := NewHashJoin(ctxR, style, rSchema, sSchema, []int{0}, []int{0}, outR)
		j := NewHashJoin(ctx, style, rSchema, sSchema, []int{0}, []int{0}, out)
		feedJoin(jR, ls, rs, 64, 64)
		feedJoinCol(j, ls, rs, 64)
		if len(out.rows) != len(outR.rows) || len(out.rows) == 0 {
			t.Fatalf("%v: %d vs %d output tuples", style, len(out.rows), len(outR.rows))
		}
		for i := range out.rows {
			if out.rows[i].String() != outR.rows[i].String() {
				t.Fatalf("%v: output %d differs: %v vs %v", style, i, out.rows[i], outR.rows[i])
			}
		}
		if *j.Counters() != *jR.Counters() {
			t.Fatalf("%v: counters differ: %+v vs %+v", style, j.Counters(), jR.Counters())
		}
		if diff := math.Abs(ctx.Clock.CPU - ctxR.Clock.CPU); diff > 1e-9*ctxR.Clock.CPU {
			t.Fatalf("%v: clocks differ: %v vs %v", style, ctx.Clock.CPU, ctxR.Clock.CPU)
		}
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
	r1, r2 := a1.EmitFinal(), a2.EmitFinal()
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
		j.FinishLeft()
		j.FinishRight()
	})
	t.Logf("allocs/tuple: rows %.3f, columnar %.3f", rows, columnar)
	// Small tolerance: the columnar path's extra slab arenas amortize to
	// well under 0.1 allocs/tuple.
	if columnar > rows+0.1 {
		t.Fatalf("columnar path allocates %.3f/tuple, row path %.3f/tuple", columnar, rows)
	}
}
