package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/types"
)

// exactRows renders rows with every float as its bit pattern, so two
// renderings are equal only when the rows are identical to the last bit.
func exactRows(rows []types.Tuple) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			if v.K == types.KindFloat {
				fmt.Fprintf(&sb, "f%016x|", math.Float64bits(v.F))
			} else {
				sb.WriteString(v.String() + "|")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func newAllAggs(t testing.TB) *AggTable {
	t.Helper()
	a, err := NewAggTable(NewContext(), aggIn, []string{"t.g"}, allAggs())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAggTableEmitOrderIsTotal: groups whose keys tie under CompareKey but
// are distinct groups (Int(k) vs Float(k), ±0, NaN) must leave EmitFinal and
// EmitPartial in one order, whatever the map iteration of the run. On the
// parent this fixture gave a different order on every one of 300 runs.
func TestAggTableEmitOrderIsTotal(t *testing.T) {
	build := func() *AggTable {
		a := newAllAggs(t)
		for k := int64(0); k < 200; k++ {
			a.AbsorbRaw(aggRow(k, k))
			if k%3 == 0 {
				a.AbsorbRaw(types.Tuple{types.Float(float64(k)), types.Int(k)})
			}
		}
		for _, g := range []types.Value{
			types.Float(math.Copysign(0, -1)), types.Float(math.NaN()), types.Str("0"), types.Null(),
		} {
			a.AbsorbRaw(types.Tuple{g, types.Int(1)})
		}
		return a
	}
	first := build()
	wantFinal, wantPartial := exactRows(finalRows(first)), exactRows(first.EmitPartial())
	for run := 1; run < 300; run++ {
		a := build()
		if got := exactRows(finalRows(a)); got != wantFinal {
			t.Fatalf("run %d: EmitFinal order differs from run 0", run)
		}
		if got := exactRows(a.EmitPartial()); got != wantPartial {
			t.Fatalf("run %d: EmitPartial order differs from run 0", run)
		}
	}
	// The order refines CompareKey's, and NaN has one place in it.
	rows := finalRows(first)
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1][0], rows[i][0]
		aNaN, bNaN := a.K == types.KindFloat && math.IsNaN(a.F), b.K == types.KindFloat && math.IsNaN(b.F)
		if !aNaN && !bNaN && types.Compare(a, b) > 0 {
			t.Fatalf("rows %d,%d out of Compare order: %v after %v", i-1, i, b, a)
		}
	}
	if compareGroupVals([]types.Value{types.Int(0)}, []types.Value{types.Float(0)}) >= 0 ||
		compareGroupVals([]types.Value{types.Float(0)}, []types.Value{types.Float(math.Copysign(0, -1))}) >= 0 ||
		compareGroupVals([]types.Value{types.Float(1e300)}, []types.Value{types.Float(math.NaN())}) >= 0 ||
		compareGroupVals([]types.Value{types.Float(math.NaN())}, []types.Value{types.Str("")}) >= 0 {
		t.Error("tie-breaks: want Int(0) < Float(+0) < Float(-0), every number < NaN < strings")
	}
}

// mergeInput is a seeded input over nGroups integer groups whose argument is
// a float that does not add exactly, with a share of NULL arguments.
func mergeInput(seed int64, n, nGroups int) []types.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]types.Tuple, n)
	for i := range rows {
		v := types.Float(float64(rng.Int63n(2000)-1000) * 0.1)
		if rng.Intn(10) == 0 {
			v = types.Null()
		}
		rows[i] = types.Tuple{types.Int(rng.Int63n(int64(nGroups))), v}
	}
	return rows
}

// assertRowsWithin compares aggregate rows: everything exact except float
// columns, which may differ by rel (0 = exact to the bit).
func assertRowsWithin(t *testing.T, got, want []types.Tuple, rel float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			g, w := got[i][c], want[i][c]
			if rel > 0 && g.K == types.KindFloat && w.K == types.KindFloat {
				if math.Abs(g.F-w.F) > rel*math.Max(math.Abs(w.F), 1) {
					t.Fatalf("row %d col %d = %v, want %v (rel %g)", i, c, g, w, rel)
				}
				continue
			}
			if !types.StrictEqual(g, w) {
				t.Fatalf("row %d col %d = %v, want %v", i, c, g, w)
			}
		}
	}
}

// TestMergeFromEqualsOneTable is the merge law for every aggregate kind,
// NULL arguments included: P tables over any partition of an input, merged
// in order into an empty table, are one table over the whole input — to the
// bit when no group spans two parts, up to float reassociation when groups
// do. Either way the destination is charged exactly what absorbing the same
// tables' partial rows would have charged it.
func TestMergeFromEqualsOneTable(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 7} {
		for _, split := range []string{"disjoint", "overlapping"} {
			t.Run(fmt.Sprintf("P=%d/%s", parts, split), func(t *testing.T) {
				rows := mergeInput(int64(parts), 4000, 97)
				whole := newAllAggs(t)
				whole.Push(rows, 0)

				build := func() []*AggTable {
					ts := make([]*AggTable, parts)
					for p := range ts {
						ts[p] = newAllAggs(t)
					}
					for i, r := range rows {
						p := i % parts
						if split == "disjoint" {
							p = int(r[0].I) % parts
						}
						ts[p].AbsorbRaw(r)
					}
					return ts
				}

				merged := newAllAggs(t)
				groups := 0
				for _, src := range build() {
					groups += src.Groups()
					if err := merged.MergeFrom(src); err != nil {
						t.Fatal(err)
					}
				}
				// The same tables, folded through their partial rows.
				viaPartials := newAllAggs(t)
				for _, src := range build() {
					for _, t := range src.EmitPartial() {
						viaPartials.AbsorbPartial(t)
					}
				}
				if got, want := merged.Counters().In, viaPartials.Counters().In; got != want || got != int64(groups) {
					t.Errorf("In = %d, via partials %d, source groups %d", got, want, groups)
				}
				if mc, pc := merged.ctx.Clock, viaPartials.ctx.Clock; mc.Now != pc.Now || mc.CPU != pc.CPU {
					t.Errorf("clock = %d/%d, via partials %d/%d", mc.Now, mc.CPU, pc.Now, pc.CPU)
				}
				if merged.Groups() != whole.Groups() {
					t.Errorf("Groups = %d, want %d", merged.Groups(), whole.Groups())
				}

				rel := 0.0
				if split == "overlapping" && parts > 1 {
					rel = 1e-9
				}
				got := finalRows(merged)
				assertRowsWithin(t, got, finalRows(whole), rel)
				assertRowsWithin(t, got, finalRows(viaPartials), 0)
			})
		}
	}
}

// TestMergeFromEdges: empty tables on either side, and keys that hash alike
// and compare alike but are different groups.
func TestMergeFromEdges(t *testing.T) {
	rows := mergeInput(5, 500, 13)

	t.Run("empty source", func(t *testing.T) {
		dst := newAllAggs(t)
		dst.Push(rows, 0)
		want := exactRows(dst.EmitPartial())
		in, clock := dst.Counters().In, *dst.ctx.Clock
		if err := dst.MergeFrom(newAllAggs(t)); err != nil {
			t.Fatal(err)
		}
		if dst.Counters().In != in || *dst.ctx.Clock != clock {
			t.Error("merging an empty table charged the destination")
		}
		if got := exactRows(dst.EmitPartial()); got != want {
			t.Error("merging an empty table changed the destination")
		}
	})

	t.Run("empty destination", func(t *testing.T) {
		src := newAllAggs(t)
		src.Push(rows, 0)
		want := exactRows(finalRows(src))
		dst := newAllAggs(t)
		if err := dst.MergeFrom(src); err != nil {
			t.Fatal(err)
		}
		if got := exactRows(finalRows(dst)); got != want {
			t.Errorf("adopted groups differ from the source's:\n%s\nwant\n%s", got, want)
		}
		if dst.Counters().In != 13 {
			t.Errorf("In = %d, want one per adopted group (13)", dst.Counters().In)
		}
	})

	t.Run("adversarial keys", func(t *testing.T) {
		keys := []types.Value{
			types.Int(1), types.Float(1), types.Str("1"),
			types.Float(0), types.Float(math.Copysign(0, -1)), types.Int(0),
			types.Float(math.NaN()), types.Null(),
		}
		// Each key is its own group with its own count, in both tables.
		a, b, whole := newAllAggs(t), newAllAggs(t), newAllAggs(t)
		for i, k := range keys {
			for n := 0; n <= i; n++ {
				r := types.Tuple{k, types.Float(float64(n) + 0.5)}
				a.AbsorbRaw(r)
				whole.AbsorbRaw(r)
			}
			r := types.Tuple{k, types.Float(100)}
			b.AbsorbRaw(r)
			whole.AbsorbRaw(r)
		}
		// A second NaN payload is the same group as the first.
		nan2 := types.Tuple{types.Float(math.Float64frombits(0x7ff8000000000001)), types.Float(7)}
		b.AbsorbRaw(nan2)
		whole.AbsorbRaw(nan2)
		if err := a.MergeFrom(b); err != nil {
			t.Fatal(err)
		}
		if a.Groups() != len(keys) {
			t.Fatalf("Groups = %d, want %d distinct keys", a.Groups(), len(keys))
		}
		assertRowsWithin(t, finalRows(a), finalRows(whole), 1e-12)
	})
}

// TestMergeFromRejects: maintenance groups carry weights and value bags a
// state-wise merge would lose, and tables of another shape have no states to
// pair up.
func TestMergeFromRejects(t *testing.T) {
	plain := newAllAggs(t)
	plain.AbsorbRaw(aggRow(1, 1))
	maint := newAllAggs(t)
	maint.EnableMaintenance()
	if err := maint.MergeFrom(plain); err == nil {
		t.Error("merge into a maintenance-mode table was accepted")
	}
	if maint.Groups() != 0 {
		t.Error("rejected merge left groups behind")
	}
	if err := plain.MergeFrom(maint); err == nil {
		t.Error("merge from a maintenance-mode table was accepted")
	}
	other, err := NewAggTable(NewContext(), aggIn, []string{"t.g"}, allAggs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.MergeFrom(other); err == nil {
		t.Error("merge between tables of different aggregates was accepted")
	}
}

// BenchmarkAggTableMergeFrom tracks the fold of one partition's aggregate
// table into the shared one, an op being one 64-group table: "disjoint"
// copies every group into a destination holding one other group (emptied
// and refilled inside the op), "overlapping" merges every group's states
// into one the destination holds, and "adopted" moves the table's chunks to
// an empty destination, which then gives them to the next op. None
// allocates (scripts/check_allocs.sh).
func BenchmarkAggTableMergeFrom(b *testing.B) {
	const groups = 64
	specs := []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}}
	fill := func(groups int64) *AggTable {
		a, err := NewAggTable(NewContext(), rSchema, []string{"r.k"}, specs)
		if err != nil {
			b.Fatal(err)
		}
		for k := int64(0); k < groups; k++ {
			a.AbsorbRaw(rRow(k, k))
		}
		return a
	}
	b.Run("disjoint", func(b *testing.B) {
		src, dst, other := fill(groups), fill(groups), rRow(-1, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst.groups.Reset()
			dst.AbsorbRaw(other)
			if err := dst.MergeFrom(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("overlapping", func(b *testing.B) {
		src, dst := fill(groups), fill(groups)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dst.MergeFrom(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adopted", func(b *testing.B) {
		src, dst := fill(groups), fill(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dst.MergeFrom(src); err != nil {
				b.Fatal(err)
			}
			src, dst = dst, src
		}
		if src.Groups() != groups {
			b.Fatalf("%d groups after the last op, want %d", src.Groups(), groups)
		}
	})
}
