package source

import (
	"slices"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// TestDeltaRelationAdoptsSignedRows: a row laid out as its delta-relation
// row — the value just past it, within its capacity, is its sign — is the
// relation's row and shares its backing array, and the delta provider
// delivers it, at its stamp, in place. Every other row is copied with its
// sign: one whose spare slot holds anything else, and the rows Ins and Del
// build, which have no spare slot.
func TestDeltaRelationAdoptsSignedRows(t *testing.T) {
	base := types.NewSchema(
		types.Column{Name: "r.k", Kind: types.KindInt},
		types.Column{Name: "r.v", Kind: types.KindString},
	)
	slab := []types.Value{
		types.Int(1), types.Str("a"), types.Int(1),
		types.Int(2), types.Str("b"), types.Int(-1),
		types.Int(3), types.Str("c"), types.Int(1),
		types.Int(4), types.Str("d"), types.Str("x"),
	}
	deltas := []Delta{
		{Row: slab[0:2:3], Sign: 1, At: 0.1},
		{Row: slab[3:5:6], Sign: -1, At: 0.2},
		{Row: slab[6:8:9], Sign: -1, At: 0.3},  // the spare slot holds +1
		{Row: slab[9:11:12], Sign: 1, At: 0.4}, // the spare slot holds a string
		Ins(0.5, types.Int(5), types.Str("e")),
		Del(0.6, types.Int(6), types.Str("f")),
	}
	adopted := []bool{true, true, false, false, false, false}
	rel := DeltaRelation("r", base, deltas)
	if rel.Schema.Len() != 3 || len(rel.Rows) != len(deltas) {
		t.Fatalf("relation %v with %d rows, want 3 columns and %d rows", rel.Schema.Names(), len(rel.Rows), len(deltas))
	}
	for i, d := range deltas {
		row := rel.Rows[i]
		want := append(slices.Clone(d.Row), types.Int(int64(d.Sign)))
		if !slices.Equal(row, want) {
			t.Errorf("row %d = %v, want %v", i, row, want)
		}
		if cap(row) != len(row) {
			t.Errorf("row %d: capacity %d past its %d values", i, cap(row), len(row))
		}
		if shared := &row[0] == &d.Row[0]; shared != adopted[i] {
			t.Errorf("row %d shares the delta's backing array: %v, want %v", i, shared, adopted[i])
		}
	}
	p, err := NewDeltaProvider(NewProvider(NewRelation("r", base, nil), nil), deltas)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		if at, _ := p.PeekArrival(); at != d.At {
			t.Errorf("provider row %d arrives at %v, want %v", i, at, d.At)
		}
		r, ok := p.Next()
		if !ok || !slices.Equal(r.T, rel.Rows[i]) || r.At != d.At || cap(r.T) != len(r.T) {
			t.Fatalf("provider row %d = %v at %v (%v), want %v at %v", i, r.T, r.At, ok, rel.Rows[i], d.At)
		}
		if shared := &r.T[0] == &d.Row[0]; shared != adopted[i] {
			t.Errorf("provider row %d shares the delta's backing array: %v, want %v", i, shared, adopted[i])
		}
	}
	if _, ok := p.Next(); ok || !p.Exhausted() || p.Total() != len(deltas) {
		t.Errorf("provider past its %d deltas: not exhausted", len(deltas))
	}
	if slab[8] != types.Int(1) || slab[11] != types.Str("x") {
		t.Errorf("copying wrote the deltas' spare slots: %v, %v", slab[8], slab[11])
	}
}
