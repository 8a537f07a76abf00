package exec

import (
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/types"
)

func deltaBatch(rows ...types.Tuple) *types.ColBatch {
	b := types.NewColBatch(len(rows[0]))
	b.AppendRows(rows)
	return b
}

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
func (u *updateLog) PushDelta(b *types.ColBatch, sign int) {
	for i := 0; i < b.Len(); i++ {
		row := make(types.Tuple, b.Width())
		b.ReadRow(row, i)
		u.add(row, sign)
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
	a.PushDelta(deltaBatch(row(1, 3), row(1, 0), row(1, 1)), 1)
	rows, signs := collectRevisions(a)
	if len(rows) != 1 || signs[0] != 1 {
		t.Fatalf("baseline revisions = %v %v", rows, signs)
	}
	if rows[0][1].I != 3 || rows[0][2].I != 0 || rows[0][3].I != 3 {
		t.Fatalf("baseline row = %v, want max 3 min 0 count 3", rows[0])
	}

	a.PushDelta(deltaBatch(row(1, 3)), -1)
	rows, signs = collectRevisions(a)
	if len(rows) != 2 || signs[0] != -1 || signs[1] != 1 {
		t.Fatalf("revision = %v %v, want retraction+assertion", rows, signs)
	}
	if rows[1][1].I != 1 || rows[1][2].I != 0 || rows[1][3].I != 2 {
		t.Fatalf("revised row = %v, want max 1 min 0 count 2", rows[1])
	}

	// Delete everything: the group retracts, never asserts an empty row.
	a.PushDelta(deltaBatch(row(1, 0), row(1, 1)), -1)
	rows, signs = collectRevisions(a)
	if len(rows) != 1 || signs[0] != -1 {
		t.Fatalf("zero-weight revision = %v %v, want single retraction", rows, signs)
	}
	// Revive the group: a fresh assertion, not a resurrection artifact.
	a.PushDelta(deltaBatch(row(1, 7)), 1)
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
	a.PushDelta(deltaBatch(row(1, 5)), 1)
	collectRevisions(a)
	a.PushDelta(deltaBatch(row(1, 9)), 1)
	a.PushDelta(deltaBatch(row(1, 9)), -1)
	rows, signs := collectRevisions(a)
	if len(rows) != 0 {
		t.Fatalf("cancelling churn emitted %v %v", rows, signs)
	}
}

// TestAggDeltaRevisionsColumnar: EmitRevisionsTo delivers the same
// revisions as EmitRevisions, batched by sign runs.
func TestAggDeltaRevisionsColumnar(t *testing.T) {
	mk := func() *AggTable {
		a := maintAggFixture(t, []algebra.AggSpec{
			{Kind: algebra.AggSum, Arg: expr.Column("A.v"), As: "sm"},
			{Kind: algebra.AggCount, As: "ct"},
		})
		a.PushDelta(deltaBatch(row(1, 5), row(2, 6), row(3, 7)), 1)
		collectRevisions(a)
		a.PushDelta(deltaBatch(row(1, 1), row(2, 2)), 1)
		a.PushDelta(deltaBatch(row(3, 7)), -1)
		return a
	}
	wantRows, wantSigns := collectRevisions(mk())
	var log updateLog
	mk().EmitRevisionsTo(&log)
	if len(log.rows) != len(wantRows) {
		t.Fatalf("columnar revisions = %d, want %d", len(log.rows), len(wantRows))
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
		j.PushDeltaLeft(deltaBatch(row(1, 10), row(2, 20)), 1)
		j.PushDeltaRight(deltaBatch(row(1, 100), row(1, 101), row(3, 300)), 1)
		// Current result: (1,10)×(1,100), (1,10)×(1,101).
		if got := len(log.net()); got != 2 {
			t.Fatalf("style %v: net join rows = %d, want 2 (%v)", style, got, log.net())
		}
		// Delete one right row: one retraction.
		j.PushDeltaRight(deltaBatch(row(1, 100)), -1)
		if got := len(log.net()); got != 1 {
			t.Fatalf("style %v: net after delete = %d, want 1 (%v)", style, got, log.net())
		}
		// Delete a left row whose partner is already gone plus re-insert:
		// net must return to the same single row.
		j.PushDeltaLeft(deltaBatch(row(1, 10)), -1)
		if got := len(log.net()); got != 0 {
			t.Fatalf("style %v: net after left delete = %d, want 0", style, got)
		}
		j.PushDeltaLeft(deltaBatch(row(1, 10)), 1)
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
	j.PushDeltaLeft(deltaBatch(dup, dup.Clone()), 1)
	j.PushDeltaRight(deltaBatch(row(1, 100)), 1)
	for _, cnt := range log.net() {
		if cnt != 2 {
			t.Fatalf("duplicate build must double the hit: %v", log.net())
		}
	}
	j.PushDeltaLeft(deltaBatch(row(1, 10)), -1)
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
	f.PushDelta(deltaBatch(row(1, 10), row(2, 3)), 1)
	f.PushDelta(deltaBatch(row(1, 10)), -1)
	net := log.net()
	if len(net) != 0 {
		t.Fatalf("filtered churn must cancel: %v", net)
	}
	if len(log.rows) != 2 {
		t.Fatalf("filter must pass v=10 both ways and drop v=3: %d deliveries", len(log.rows))
	}
}
