package exec

import (
	"math"
	"slices"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

func deltaBatch(rows ...types.Tuple) []types.Tuple { return rows }

// updateLog collects every delivery with its sign.
type updateLog struct {
	rows  []types.Tuple
	signs []int
}

func (u *updateLog) Push(ts []types.Tuple, sign int) {
	for _, t := range ts {
		u.rows = append(u.rows, t.Clone())
		u.signs = append(u.signs, sign)
	}
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
	a.Push(deltaBatch(row(1, 3), row(1, 0), row(1, 1)), 1)
	rows, signs := collectRevisions(a)
	if len(rows) != 1 || signs[0] != 1 {
		t.Fatalf("baseline revisions = %v %v", rows, signs)
	}
	if rows[0][1].I != 3 || rows[0][2].I != 0 || rows[0][3].I != 3 {
		t.Fatalf("baseline row = %v, want max 3 min 0 count 3", rows[0])
	}

	a.Push(deltaBatch(row(1, 3)), -1)
	rows, signs = collectRevisions(a)
	if len(rows) != 2 || signs[0] != -1 || signs[1] != 1 {
		t.Fatalf("revision = %v %v, want retraction+assertion", rows, signs)
	}
	if rows[1][1].I != 1 || rows[1][2].I != 0 || rows[1][3].I != 2 {
		t.Fatalf("revised row = %v, want max 1 min 0 count 2", rows[1])
	}

	// Delete everything: the group retracts, never asserts an empty row.
	a.Push(deltaBatch(row(1, 0), row(1, 1)), -1)
	rows, signs = collectRevisions(a)
	if len(rows) != 1 || signs[0] != -1 {
		t.Fatalf("zero-weight revision = %v %v, want single retraction", rows, signs)
	}
	// Revive the group: a fresh assertion, not a resurrection artifact.
	a.Push(deltaBatch(row(1, 7)), 1)
	rows, signs = collectRevisions(a)
	if len(rows) != 1 || signs[0] != 1 || rows[0][1].I != 7 {
		t.Fatalf("revival revision = %v %v", rows, signs)
	}
}

// TestAggDeltaRevisionOrderIsTotal: groups whose keys tie under CompareKey
// but are distinct groups — Int(1) and Float(1), +0 and -0, NaN beside the
// numbers — revise in one order whatever order they were absorbed in. The
// parent sorted dirty groups by CompareKey, so absorbing Int(1) then
// Float(1) revised [int float] and the reverse absorption [float int].
func TestAggDeltaRevisionOrderIsTotal(t *testing.T) {
	keys := []types.Value{
		types.Int(1), types.Float(1), types.Float(0), types.Float(math.Copysign(0, -1)),
		types.Float(math.NaN()), types.Int(0), types.Float(2),
	}
	revise := func(order []int) string {
		a := maintAggFixture(t, []algebra.AggSpec{{Kind: algebra.AggCount, As: "ct"}})
		for _, i := range order {
			a.AbsorbSigned(types.Tuple{keys[i], types.Int(int64(i))}, 1)
		}
		rows, _ := collectRevisions(a)
		return exactRows(rows)
	}
	forward := []int{0, 1, 2, 3, 4, 5, 6}
	want := revise(forward)
	for _, order := range [][]int{{1, 0, 3, 2, 4, 6, 5}, {6, 5, 4, 3, 2, 1, 0}, {4, 2, 0, 6, 1, 3, 5}} {
		if got := revise(order); got != want {
			t.Fatalf("absorbed in order %v, revised\n%s\nwant (absorbed in order %v)\n%s", order, got, forward, want)
		}
	}
}

// TestAggDeltaUnchangedGroupEmitsNothing: churn that cancels out within
// one watermark window must not produce a revision.
func TestAggDeltaUnchangedGroupEmitsNothing(t *testing.T) {
	a := maintAggFixture(t, []algebra.AggSpec{
		{Kind: algebra.AggSum, Arg: expr.Column("A.v"), As: "sm"},
	})
	a.Push(deltaBatch(row(1, 5)), 1)
	collectRevisions(a)
	a.Push(deltaBatch(row(1, 9)), 1)
	a.Push(deltaBatch(row(1, 9)), -1)
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
		a.Push(deltaBatch(row(1, 5), row(2, 6), row(3, 7)), 1)
		collectRevisions(a)
		a.Push(deltaBatch(row(1, 1), row(2, 2)), 1)
		a.Push(deltaBatch(row(3, 7)), -1)
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

func joinFixture(t *testing.T, out Sink) (*HashJoin, *types.Schema, *types.Schema) {
	t.Helper()
	ls := types.NewSchema(
		types.Column{Name: "L.k", Kind: types.KindInt},
		types.Column{Name: "L.a", Kind: types.KindInt},
	)
	rs := types.NewSchema(
		types.Column{Name: "R.k", Kind: types.KindInt},
		types.Column{Name: "R.b", Kind: types.KindInt},
	)
	return NewHashJoin(NewContext(), Pipelined, ls, rs, []int{0}, []int{0}, out), ls, rs
}

// TestJoinDeltaBothSidesBothSigns: the z-set re-probe rule — inserts
// join the opposite side's live state, deletes retract exactly the rows
// their insertions produced, and a retraction followed by a re-insert of
// the same row cancels (negative state annihilation).
func TestJoinDeltaBothSidesBothSigns(t *testing.T) {
	var log updateLog
	j, _, _ := joinFixture(t, &log)
	j.LeftSink().Push(deltaBatch(row(1, 10), row(2, 20)), 1)
	j.RightSink().Push(deltaBatch(row(1, 100), row(1, 101), row(3, 300)), 1)
	// Current result: (1,10)×(1,100), (1,10)×(1,101).
	if got := len(log.net()); got != 2 {
		t.Fatalf("net join rows = %d, want 2 (%v)", got, log.net())
	}
	// Delete one right row: one retraction.
	j.RightSink().Push(deltaBatch(row(1, 100)), -1)
	if got := len(log.net()); got != 1 {
		t.Fatalf("net after delete = %d, want 1 (%v)", got, log.net())
	}
	// Delete a left row whose partner is already gone plus re-insert:
	// net must return to the same single row.
	j.LeftSink().Push(deltaBatch(row(1, 10)), -1)
	if got := len(log.net()); got != 0 {
		t.Fatalf("net after left delete = %d, want 0", got)
	}
	j.LeftSink().Push(deltaBatch(row(1, 10)), 1)
	net := log.net()
	if len(net) != 1 {
		t.Fatalf("net after re-insert = %v", net)
	}
	for _, cnt := range net {
		if cnt != 1 {
			t.Fatalf("multiplicity = %v", net)
		}
	}
}

// TestJoinDeltaDuplicateMultiplicity: duplicate build rows multiply
// probe hits; deleting one duplicate removes exactly one hit's worth.
func TestJoinDeltaDuplicateMultiplicity(t *testing.T) {
	var log updateLog
	j, _, _ := joinFixture(t, &log)
	dup := row(1, 10)
	j.LeftSink().Push(deltaBatch(dup, dup.Clone()), 1)
	j.RightSink().Push(deltaBatch(row(1, 100)), 1)
	for _, cnt := range log.net() {
		if cnt != 2 {
			t.Fatalf("duplicate build must double the hit: %v", log.net())
		}
	}
	j.LeftSink().Push(deltaBatch(row(1, 10)), -1)
	for _, cnt := range log.net() {
		if cnt != 1 {
			t.Fatalf("one delete must remove one occurrence: %v", log.net())
		}
	}
}

// TestInsertOnlySignedMatchesPlain pins PR 10's observation that an
// insert-only delta stream is indistinguishable from ordinary execution:
// the same chunks pushed into each operator with sign +1 and with sign 0
// give the same output rows in the same order, the same counters and the
// same virtual clock. An operator that keeps signed state passes the +1 on;
// a sign-blind one (no maintenance tree reaches it) emits what it emits at
// 0, and refuses a retraction with SignBlind's panic.
func TestInsertOnlySignedMatchesPlain(t *testing.T) {
	ls := randTuples(600, 100, 1, rRow)
	rs := randTuples(600, 100, 2, sRow)
	byKey := func(ts []types.Tuple) []types.Tuple {
		out := slices.Clone(ts)
		slices.SortStableFunc(out, func(a, b types.Tuple) int { return types.Compare(a[0], b[0]) })
		return out
	}
	cases := []struct {
		name string
		// blind marks a sign-blind operator; sorted feeds it key-ordered
		// inputs.
		blind, sorted bool
		// build wires the operator to out and returns its inputs (input i is
		// fed [ls, rs][i]), its counters, and what runs after the last push.
		build func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func())
	}{
		{name: "join/pipelined", build: func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			j := NewHashJoin(ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, out)
			return []Sink{j.LeftSink(), j.RightSink()}, j.Counters(), nil
		}},
		{name: "agg/maintenance", build: func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
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
				a.EmitRevisions(func(r types.Tuple, sign int) { out.Push(one(r), sign) })
			}
		}},
		{name: "exchange", blind: true, build: func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			ex := NewExchange(4, []int{0}, func(_ int, rows []types.Tuple) { out.Push(rows, 0) })
			return []Sink{ex}, ex.Counters(), nil
		}},
		{name: "partition-merge", blind: true, build: func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			m := NewPartitionMerge(2)
			return []Sink{m.Sink(0), m.Sink(1)}, &stats.OpCounters{}, func() { m.Drain(out) }
		}},
		{name: "window-preagg", blind: true, build: func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			w, err := NewWindowPreAgg(ctx, rSchema, []string{"r.k"}, []algebra.AggSpec{
				{Kind: algebra.AggSum, Arg: expr.Column("r.a"), As: "sm"},
				{Kind: algebra.AggCount, As: "ct"},
			}, out)
			if err != nil {
				t.Fatal(err)
			}
			return []Sink{w}, w.Counters(), w.Finish
		}},
		{name: "merge-join", blind: true, sorted: true, build: func(t *testing.T, ctx *Context, out Sink) ([]Sink, *stats.OpCounters, func()) {
			m := NewMergeJoin(ctx, rSchema, sSchema, []int{0}, []int{0}, out)
			return []Sink{m.LeftSink(), m.RightSink()}, m.Counters(), func() {
				m.FinishLeft()
				m.FinishRight()
			}
		}},
	}
	run := func(t *testing.T, build func(*testing.T, *Context, Sink) ([]Sink, *stats.OpCounters, func()), data [][]types.Tuple, sign int) (*updateLog, stats.OpCounters, int64) {
		ctx, log := NewContext(), &updateLog{}
		ins, counters, drain := build(t, ctx, log)
		for lo := 0; lo < len(ls); lo += 64 {
			for i, in := range ins {
				in.Push(data[i][lo:min(lo+64, len(data[i]))], sign)
			}
		}
		if drain != nil {
			drain()
		}
		return log, *counters, ctx.Clock.CPU
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := [][]types.Tuple{ls, rs}
			if c.sorted {
				data = [][]types.Tuple{byKey(ls), byKey(rs)}
			}
			plain, plainCtr, plainCPU := run(t, c.build, data, 0)
			signed, signedCtr, signedCPU := run(t, c.build, data, +1)
			if len(plain.rows) == 0 || len(signed.rows) != len(plain.rows) {
				t.Fatalf("%d signed rows, %d plain", len(signed.rows), len(plain.rows))
			}
			wantSign := 1
			if c.blind {
				wantSign = 0
			}
			for i := range plain.rows {
				if signed.signs[i] != wantSign || signed.rows[i].String() != plain.rows[i].String() {
					t.Fatalf("row %d: signed %v/%d, plain %v", i, signed.rows[i], signed.signs[i], plain.rows[i])
				}
			}
			if signedCtr != plainCtr {
				t.Fatalf("counters: signed %+v, plain %+v", signedCtr, plainCtr)
			}
			if signedCPU != plainCPU {
				t.Fatalf("clocks: signed %v, plain %v", signedCPU, plainCPU)
			}
			if !c.blind {
				return
			}
			ins, _, _ := c.build(t, NewContext(), Discard)
			defer func() {
				if got := recover(); got != errSignBlind {
					t.Fatalf("a retraction panicked with %v, want %q", got, errSignBlind)
				}
			}()
			ins[0].Push(one(data[0][0]), -1)
		})
	}

	// An aggregate outside maintenance mode refuses either sign.
	for _, sign := range []int{+1, -1} {
		a, err := NewAggTable(NewContext(), rSchema, []string{"r.k"}, []algebra.AggSpec{{Kind: algebra.AggCount, As: "ct"}})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if got, want := recover(), "exec: signed Push on an AggTable without maintenance enabled"; got != want {
					t.Fatalf("sign %d: panicked with %v, want %q", sign, got, want)
				}
			}()
			a.Push(one(ls[0]), sign)
		}()
	}
}
