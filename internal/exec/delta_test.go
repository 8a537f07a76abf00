package exec

import (
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

func deltaBatch(rows ...types.Tuple) []types.Tuple { return rows }

// updateLog collects signed deliveries from a DeltaSink target.
type updateLog struct {
	rows  []types.Tuple
	signs []int
}

func (u *updateLog) PushBatch(ts []types.Tuple) {
	for _, t := range ts {
		u.add(t, 1)
	}
}
func (u *updateLog) PushSigned(ts []types.Tuple, sign int) {
	for _, t := range ts {
		u.add(t, sign)
	}
}
func (u *updateLog) add(t types.Tuple, sign int) {
	u.rows = append(u.rows, t.Clone())
	u.signs = append(u.signs, sign)
}

// net folds the signed log into a multiset count per row rendering.
func (u *updateLog) net() map[string]int {
	m := map[string]int{}
	for i, r := range u.rows {
		m[r.String()] += u.signs[i]
		if m[r.String()] == 0 {
			delete(m, r.String())
		}
	}
	return m
}

func maintAggFixture(t *testing.T, aggs []algebra.AggSpec) *AggTable {
	t.Helper()
	s := types.NewSchema(
		types.Column{Name: "A.k", Kind: types.KindInt},
		types.Column{Name: "A.v", Kind: types.KindInt},
	)
	a, err := NewAggTable(NewContext(), s, []string{"A.k"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	a.EnableMaintenance()
	return a
}

func row(k, v int64) types.Tuple { return types.Tuple{types.Int(k), types.Int(v)} }

// signedPush pushes ts with sign through s's signed entry.
func signedPush(s Sink, ts []types.Tuple, sign int) { s.(DeltaSink).PushSigned(ts, sign) }

// collectRevisions drains pending revisions into parallel slices.
func collectRevisions(a *AggTable) ([]types.Tuple, []int) {
	var rows []types.Tuple
	var signs []int
	a.EmitRevisions(func(t types.Tuple, sign int) {
		rows = append(rows, t.Clone())
		signs = append(signs, sign)
	})
	return rows, signs
}

// TestAggDeltaMinMaxRetraction: deleting the current extreme must
// surface the runner-up via the value bag.
func TestAggDeltaMinMaxRetraction(t *testing.T) {
	a := maintAggFixture(t, []algebra.AggSpec{
		{Kind: algebra.AggMax, Arg: expr.Column("A.v"), As: "mx"},
		{Kind: algebra.AggMin, Arg: expr.Column("A.v"), As: "mn"},
		{Kind: algebra.AggCount, As: "ct"},
	})
	a.PushSigned(deltaBatch(row(1, 3), row(1, 0), row(1, 1)), 1)
	rows, signs := collectRevisions(a)
	if len(rows) != 1 || signs[0] != 1 {
		t.Fatalf("baseline revisions = %v %v", rows, signs)
	}
	if rows[0][1].I != 3 || rows[0][2].I != 0 || rows[0][3].I != 3 {
		t.Fatalf("baseline row = %v, want max 3 min 0 count 3", rows[0])
	}

	a.PushSigned(deltaBatch(row(1, 3)), -1)
	rows, signs = collectRevisions(a)
	if len(rows) != 2 || signs[0] != -1 || signs[1] != 1 {
		t.Fatalf("revision = %v %v, want retraction+assertion", rows, signs)
	}
	if rows[1][1].I != 1 || rows[1][2].I != 0 || rows[1][3].I != 2 {
		t.Fatalf("revised row = %v, want max 1 min 0 count 2", rows[1])
	}

	// Delete everything: the group retracts, never asserts an empty row.
	a.PushSigned(deltaBatch(row(1, 0), row(1, 1)), -1)
	rows, signs = collectRevisions(a)
	if len(rows) != 1 || signs[0] != -1 {
		t.Fatalf("zero-weight revision = %v %v, want single retraction", rows, signs)
	}
	// Revive the group: a fresh assertion, not a resurrection artifact.
	a.PushSigned(deltaBatch(row(1, 7)), 1)
	rows, signs = collectRevisions(a)
	if len(rows) != 1 || signs[0] != 1 || rows[0][1].I != 7 {
		t.Fatalf("revival revision = %v %v", rows, signs)
	}
}

// TestAggDeltaUnchangedGroupEmitsNothing: churn that cancels out within
// one watermark window must not produce a revision.
func TestAggDeltaUnchangedGroupEmitsNothing(t *testing.T) {
	a := maintAggFixture(t, []algebra.AggSpec{
		{Kind: algebra.AggSum, Arg: expr.Column("A.v"), As: "sm"},
	})
	a.PushSigned(deltaBatch(row(1, 5)), 1)
	collectRevisions(a)
	a.PushSigned(deltaBatch(row(1, 9)), 1)
	a.PushSigned(deltaBatch(row(1, 9)), -1)
	rows, signs := collectRevisions(a)
	if len(rows) != 0 {
		t.Fatalf("cancelling churn emitted %v %v", rows, signs)
	}
}

// TestAggDeltaRevisionsColumnar: EmitRevisionsTo delivers the same
// revisions as EmitRevisions, as signed row batches cut at sign runs.
func TestAggDeltaRevisionsColumnar(t *testing.T) {
	mk := func() *AggTable {
		a := maintAggFixture(t, []algebra.AggSpec{
			{Kind: algebra.AggSum, Arg: expr.Column("A.v"), As: "sm"},
			{Kind: algebra.AggCount, As: "ct"},
		})
		a.PushSigned(deltaBatch(row(1, 5), row(2, 6), row(3, 7)), 1)
		collectRevisions(a)
		a.PushSigned(deltaBatch(row(1, 1), row(2, 2)), 1)
		a.PushSigned(deltaBatch(row(3, 7)), -1)
		return a
	}
	wantRows, wantSigns := collectRevisions(mk())
	var log updateLog
	mk().EmitRevisionsTo(&log)
	if len(log.rows) != len(wantRows) {
		t.Fatalf("batched revisions = %d, want %d", len(log.rows), len(wantRows))
	}
	for i := range wantRows {
		if log.signs[i] != wantSigns[i] || log.rows[i].String() != wantRows[i].String() {
			t.Fatalf("revision %d: %v/%d vs %v/%d", i, log.rows[i], log.signs[i], wantRows[i], wantSigns[i])
		}
	}
}

func joinFixture(t *testing.T, style JoinStyle, out Sink) (*HashJoin, *types.Schema, *types.Schema) {
	t.Helper()
	ls := types.NewSchema(
		types.Column{Name: "L.k", Kind: types.KindInt},
		types.Column{Name: "L.a", Kind: types.KindInt},
	)
	rs := types.NewSchema(
		types.Column{Name: "R.k", Kind: types.KindInt},
		types.Column{Name: "R.b", Kind: types.KindInt},
	)
	return NewHashJoin(NewContext(), style, ls, rs, []int{0}, []int{0}, out), ls, rs
}

// TestJoinDeltaBothSidesBothSigns: the z-set re-probe rule — inserts
// join the opposite side's live state, deletes retract exactly the rows
// their insertions produced, and a retraction followed by a re-insert of
// the same row cancels (negative state annihilation).
func TestJoinDeltaBothSidesBothSigns(t *testing.T) {
	for _, style := range []JoinStyle{Pipelined, BuildThenProbe, NestedLoops} {
		var log updateLog
		j, _, _ := joinFixture(t, style, &log)
		signedPush(j.LeftSink(), deltaBatch(row(1, 10), row(2, 20)), 1)
		signedPush(j.RightSink(), deltaBatch(row(1, 100), row(1, 101), row(3, 300)), 1)
		// Current result: (1,10)×(1,100), (1,10)×(1,101).
		if got := len(log.net()); got != 2 {
			t.Fatalf("style %v: net join rows = %d, want 2 (%v)", style, got, log.net())
		}
		// Delete one right row: one retraction.
		signedPush(j.RightSink(), deltaBatch(row(1, 100)), -1)
		if got := len(log.net()); got != 1 {
			t.Fatalf("style %v: net after delete = %d, want 1 (%v)", style, got, log.net())
		}
		// Delete a left row whose partner is already gone plus re-insert:
		// net must return to the same single row.
		signedPush(j.LeftSink(), deltaBatch(row(1, 10)), -1)
		if got := len(log.net()); got != 0 {
			t.Fatalf("style %v: net after left delete = %d, want 0", style, got)
		}
		signedPush(j.LeftSink(), deltaBatch(row(1, 10)), 1)
		net := log.net()
		if len(net) != 1 {
			t.Fatalf("style %v: net after re-insert = %v", style, net)
		}
		for _, cnt := range net {
			if cnt != 1 {
				t.Fatalf("style %v: multiplicity = %v", style, net)
			}
		}
	}
}

// TestJoinDeltaDuplicateMultiplicity: duplicate build rows multiply
// probe hits; deleting one duplicate removes exactly one hit's worth.
func TestJoinDeltaDuplicateMultiplicity(t *testing.T) {
	var log updateLog
	j, _, _ := joinFixture(t, Pipelined, &log)
	dup := row(1, 10)
	signedPush(j.LeftSink(), deltaBatch(dup, dup.Clone()), 1)
	signedPush(j.RightSink(), deltaBatch(row(1, 100)), 1)
	for _, cnt := range log.net() {
		if cnt != 2 {
			t.Fatalf("duplicate build must double the hit: %v", log.net())
		}
	}
	signedPush(j.LeftSink(), deltaBatch(row(1, 10)), -1)
	for _, cnt := range log.net() {
		if cnt != 1 {
			t.Fatalf("one delete must remove one occurrence: %v", log.net())
		}
	}
}

// TestFilterProjectDeltaSignPassthrough: unary operators forward signs
// untouched and apply identical row logic to both polarities.
func TestFilterProjectDeltaSignPassthrough(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "A.k", Kind: types.KindInt},
		types.Column{Name: "A.v", Kind: types.KindInt},
	)
	var log updateLog
	pred, err := expr.Gt(expr.Column("A.v"), expr.IntLit(5)).BindPred(s)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFilter(NewContext(), pred, &log)
	f.PushSigned(deltaBatch(row(1, 10), row(2, 3)), 1)
	f.PushSigned(deltaBatch(row(1, 10)), -1)
	net := log.net()
	if len(net) != 0 {
		t.Fatalf("filtered churn must cancel: %v", net)
	}
	if len(log.rows) != 2 {
		t.Fatalf("filter must pass v=10 both ways and drop v=3: %d deliveries", len(log.rows))
	}
}

// TestInsertOnlySignedMatchesPlain pins PR 10's observation that an
// insert-only delta stream is indistinguishable from ordinary execution:
// the same chunks pushed through each operator's signed entry with sign +1
// and through its unsigned entry give the same output rows in the same
// order, the same counters and the same virtual clock.
func TestInsertOnlySignedMatchesPlain(t *testing.T) {
	ls := randTuples(600, 100, 1, rRow)
	rs := randTuples(600, 100, 2, sRow)
	cases := []struct {
		name string
		// build wires the operator to out and returns its inputs (input i is
		// fed [ls, rs][i]), its counters, and what runs after the last push.
		build func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func())
	}{
		{"join/pipelined", func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			j := NewHashJoin(ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, out)
			return []Sink{j.LeftSink(), j.RightSink()}, j.Counters(), nil
		}},
		{"join/build-then-probe-after-finish", func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			j := NewHashJoin(ctx, BuildThenProbe, rSchema, sSchema, []int{0}, []int{0}, out)
			j.PushRightBatch(rs)
			j.FinishLeft()
			j.FinishRight()
			return []Sink{j.LeftSink()}, j.Counters(), nil
		}},
		{"join/nested-loops", func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			j := NewHashJoin(ctx, NestedLoops, rSchema, sSchema, []int{0}, []int{0}, out)
			return []Sink{j.LeftSink(), j.RightSink()}, j.Counters(), nil
		}},
		{"filter", func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			f := NewFilter(ctx, func(tp types.Tuple) bool { return tp[1].I%3 != 0 }, out)
			return []Sink{f}, f.Counters(), nil
		}},
		{"project", func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			ad, err := types.NewAdapter(rSchema, types.NewSchema(rSchema.Cols[1], rSchema.Cols[0]))
			if err != nil {
				t.Fatal(err)
			}
			p := NewProject(ctx, ad, out)
			return []Sink{p}, p.Counters(), nil
		}},
		{"combine", func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			c := NewCombine(out)
			return []Sink{c}, c.Counters(), nil
		}},
		{"agg/maintenance", func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			a, err := NewAggTable(ctx, rSchema, []string{"r.k"}, []algebra.AggSpec{
				{Kind: algebra.AggSum, Arg: expr.Column("r.a"), As: "sm"},
				{Kind: algebra.AggMin, Arg: expr.Column("r.a"), As: "mn"},
				{Kind: algebra.AggCount, As: "ct"},
			})
			if err != nil {
				t.Fatal(err)
			}
			a.EnableMaintenance()
			return []Sink{a}, a.Counters(), func() {
				a.EmitRevisions(func(r types.Tuple, sign int) { out.PushBatch(one(r)) })
			}
		}},
	}
	run := func(t *testing.T, build func(*testing.T, *Context, Sink) ([]Sink, *stats.OpCounters, func()), signed bool) (*updateLog, stats.OpCounters, int64) {
		ctx, log := NewContext(), &updateLog{}
		ins, counters, drain := build(t, ctx, log)
		data := [][]types.Tuple{ls, rs}
		for lo := 0; lo < len(ls); lo += 64 {
			for i, in := range ins {
				chunk := data[i][lo:min(lo+64, len(data[i]))]
				if signed {
					signedPush(in, chunk, +1)
				} else {
					in.PushBatch(chunk)
				}
			}
		}
		if drain != nil {
			drain()
		}
		return log, *counters, ctx.Clock.CPU
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, plainCtr, plainCPU := run(t, c.build, false)
			signed, signedCtr, signedCPU := run(t, c.build, true)
			if len(plain.rows) == 0 || len(signed.rows) != len(plain.rows) {
				t.Fatalf("%d signed rows, %d plain", len(signed.rows), len(plain.rows))
			}
			for i := range plain.rows {
				if signed.signs[i] != 1 || signed.rows[i].String() != plain.rows[i].String() {
					t.Fatalf("row %d: signed %v/%d, plain %v", i, signed.rows[i], signed.signs[i], plain.rows[i])
				}
			}
			if signedCtr != plainCtr {
				t.Fatalf("counters: signed %+v, plain %+v", signedCtr, plainCtr)
			}
			if signedCPU != plainCPU {
				t.Fatalf("clocks: signed %v, plain %v", signedCPU, plainCPU)
			}
		})
	}
}
