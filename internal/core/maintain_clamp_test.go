package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Delete-clamp pins. A delete reaching a standing query's ingress is
// dropped, and counted in Report.DeltaClamped, when the row it retracts has
// no live occurrence under types.StrictEqual on every column: the base rows
// and the inserts before it, less the deletes before it, counting what the
// ingress holds unflushed in the same leaf batch. Every clamp count and
// update digest below was written by commit cb0439a, whose ingress asked a
// live-multiset tracker seeded from the base partitions.

// clampSchemas are A(k, v), the relation the deltas change, and B(k, w),
// which A joins on k.
func clampSchemas() (a, b *types.Schema) {
	a = types.NewSchema(
		types.Column{Name: "A.k", Kind: types.KindInt},
		types.Column{Name: "A.v", Kind: types.KindFloat},
	)
	b = types.NewSchema(
		types.Column{Name: "B.k", Kind: types.KindInt},
		types.Column{Name: "B.w", Kind: types.KindInt},
	)
	return a, b
}

// clampBase is A's base relation: an integral float, a positive zero and a
// NaN among its v values, every k unique.
func clampBase() []types.Tuple {
	return []types.Tuple{
		{types.Int(1), types.Float(1.5)},
		{types.Int(2), types.Float(0)},
		{types.Int(3), types.Float(math.NaN())},
		{types.Int(4), types.Float(2.5)},
		{types.Int(5), types.Float(3.5)},
		{types.Int(6), types.Float(1)},
	}
}

// clampQuery joins A to B on k and keeps every A column, so each update
// carries the very A row that entered.
func clampQuery(a, b *types.Schema) *algebra.Query {
	return &algebra.Query{
		Name:      "standing-clamp",
		Relations: []algebra.RelRef{{Name: "A", Schema: a}, {Name: "B", Schema: b}},
		Joins:     []algebra.JoinPred{{LeftRel: "A", LeftCol: "k", RightRel: "B", RightCol: "k"}},
		Project:   []string{"A.k", "A.v", "B.w"},
	}
}

// updateDigest renders a standing run's update stream as its length and a
// digest of its signed rows, floats by their bits.
func updateDigest(rep *Report) string {
	var ups strings.Builder
	for _, u := range rep.Updates {
		fmt.Fprintf(&ups, "%+d %s", u.Sign, bitRows([]types.Tuple{u.Row}))
	}
	return fmt.Sprintf("%d:%s clamped=%d", len(rep.Updates), digest(ups.String()), rep.DeltaClamped)
}

// TestMaintenanceClampAgainstLiveRows runs one delete script per case into a
// two-relation standing SPJ whose deltas change the joined relation A, with
// the maintenance tree adopted from a serial run and replayed from a
// four-partition one. Deltas that share a stamp arrive in one leaf batch.
// Each leg pins the clamp count and the update stream, and the maintained
// result to a from-scratch run over the post-delta relations.
func TestMaintenanceClampAgainstLiveRows(t *testing.T) {
	negZero := types.Float(math.Copysign(0, -1))
	otherNaN := types.Float(math.Float64frombits(0x7ff8000000000001))
	cases := []struct {
		name   string
		deltas []source.Delta
		want   string
	}{
		{
			// The delete finds the insert still unflushed beside it; the
			// second delete of Y finds it flushed and already retracted.
			name: "insert-then-delete-in-one-batch",
			want: "13:7059b04b498a63a5 clamped=1",
			deltas: []source.Delta{
				source.Ins(0.1, types.Int(1), types.Float(7.5)),
				source.Del(0.1, types.Int(1), types.Float(7.5)),
				source.Ins(0.2, types.Int(4), types.Float(8.5)),
				source.Del(0.2, types.Int(4), types.Float(8.5)),
				source.Del(0.2, types.Int(4), types.Float(8.5)),
			},
		},
		{
			// Across batches, then inside one: the second delete of a row
			// live once is clamped either way.
			name: "delete-twice-live-once",
			want: "9:dc8924aa8c165363 clamped=2",
			deltas: []source.Delta{
				source.Del(0.1, types.Int(4), types.Float(2.5)),
				source.Del(0.2, types.Int(4), types.Float(2.5)),
				source.Del(0.3, types.Int(5), types.Float(3.5)),
				source.Del(0.3, types.Int(5), types.Float(3.5)),
			},
		},
		{
			// k is live; the row is not.
			name: "live-key-other-column-differs",
			want: "8:46a38173dfcd18ea clamped=2",
			deltas: []source.Delta{
				source.Del(0.1, types.Int(5), types.Float(9.5)),
				source.Del(0.2, types.Int(1), types.Float(1.25)),
				source.Del(0.3, types.Int(5), types.Float(3.5)),
			},
		},
		{
			// Int(1) and Float(1) in the join key and in v, the two zeros:
			// distinct rows. Every NaN is one row.
			name: "strict-identity",
			want: "12:a14d3fcb55c01361 clamped=4",
			deltas: []source.Delta{
				source.Del(0.1, types.Float(1), types.Float(1.5)),
				source.Del(0.2, types.Int(6), types.Int(1)),
				source.Del(0.3, types.Int(2), negZero),
				source.Del(0.4, types.Int(3), otherNaN),
				source.Del(0.5, types.Int(3), types.Float(math.NaN())),
				source.Del(0.6, types.Int(2), types.Float(0)),
				source.Del(0.7, types.Int(6), types.Float(1)),
				source.Del(0.8, types.Int(1), types.Float(1.5)),
			},
		},
	}
	for _, tc := range cases {
		for _, parts := range []int{1, 4} {
			name := fmt.Sprintf("%s/P=%d", tc.name, parts)
			t.Run(name, func(t *testing.T) {
				as, bs := clampSchemas()
				a := source.NewRelation("A", as, clampBase())
				b := source.NewRelation("B", bs, []types.Tuple{
					{types.Int(1), types.Int(10)}, {types.Int(1), types.Int(11)},
					{types.Int(2), types.Int(20)}, {types.Int(3), types.Int(30)},
					{types.Int(4), types.Int(40)}, {types.Int(5), types.Int(50)},
					{types.Int(6), types.Int(60)},
				})
				q := clampQuery(as, bs)
				cat := catalogOf(a, b)
				m := MaintOptions{Deltas: maintDeltaProviders(cat, map[string][]source.Delta{"A": tc.deltas}), FlushEvery: 64}
				rep, err := RunMaintenance(context.Background(), cat, q, Options{Strategy: Static, PollEvery: 64, Partitions: parts}, m, RunHooks{})
				if err != nil {
					t.Fatal(err)
				}
				post, clamped := applyDeltas(a, tc.deltas)
				oracle, err := Run(catalogOf(post, b.Clone()), q, Options{Strategy: Static})
				if err != nil {
					t.Fatal(err)
				}
				assertMaintainedOracle(t, rep, rep.Updates, oracle)
				if rep.DeltaClamped != clamped {
					t.Errorf("DeltaClamped = %d, the oracle clamps %d", rep.DeltaClamped, clamped)
				}
				if got := updateDigest(rep); got != tc.want {
					t.Errorf("update stream = %s, want %s", got, tc.want)
				}
			})
		}
	}
}

// TestMaintenanceClampAfterSwitch: deletes that reach the ingress after the
// monitor switched the maintenance plan mid-stream are clamped against the
// tree the switch built — a base row twice, a delta-inserted row, a row
// never inserted.
func TestMaintenanceClampAfterSwitch(t *testing.T) {
	q, cat, script := maintSwitchFixture(false)
	c := cat()
	deltas := script(c)
	tail := 10.0
	var inserted types.Tuple
	for _, d := range deltas["A"] {
		if d.Sign > 0 {
			inserted = d.Row
			break
		}
	}
	deltas["A"] = append(deltas["A"],
		source.Del(tail, types.Int(0), types.Int(0)),
		source.Del(tail+0.001, types.Int(0), types.Int(0)),
		source.Del(tail+0.002, inserted...),
		source.Del(tail+0.003, inserted...),
		source.Del(tail+0.004, types.Int(3), types.Int(0)),
		source.Del(tail+0.005, types.Int(99_999), types.Int(1)),
	)
	var switchedAt []float64
	rep, err := RunMaintenance(context.Background(), c, q,
		Options{Strategy: Corrective, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 8},
		MaintOptions{Deltas: maintDeltaProviders(c, deltas), FlushEvery: 100}, RunHooks{
			Emit: func(ev Event) {
				if e, ok := ev.(PlanSwitched); ok {
					switchedAt = append(switchedAt, e.VirtualSeconds)
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaintSwitches == 0 || switchedAt[len(switchedAt)-1] >= tail {
		t.Fatalf("switches at %v, want one before the deletes at %v", switchedAt, tail)
	}
	var clamped int64
	post := map[string]*source.Relation{}
	for name, p := range cat().Providers {
		var rows []types.Tuple
		for r, ok := p.Next(); ok; r, ok = p.Next() {
			rows = append(rows, r.T)
		}
		var n int64
		post[name], n = applyDeltas(source.NewRelation(name, p.Schema(), rows), deltas[name])
		clamped += n
	}
	oracle, err := Run(catalogOf(post["A"], post["B"], post["C"]), q, Options{Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	assertMaintainedOracle(t, rep, rep.Updates, oracle)
	if rep.DeltaClamped != clamped {
		t.Errorf("DeltaClamped = %d, the oracle clamps %d", rep.DeltaClamped, clamped)
	}
	if got, want := updateDigest(rep), "389:c627991d4998b609 clamped=43"; got != want {
		t.Errorf("update stream = %s, want %s", got, want)
	}
}

// TestMaintenanceTracksUnbufferedRelation: a single-relation query's scan
// feeds no join side, so its delta stream's deletes are clamped against a
// KeyedSide seeded from the base partition, which sees every survivor.
func TestMaintenanceTracksUnbufferedRelation(t *testing.T) {
	s := kvSchema("A")
	fixture := func(bool) (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta) {
		cat := func() *Catalog {
			return catalogOf(source.NewRelation("A", s, []types.Tuple{{types.Int(1), types.Int(10)}, {types.Int(2), types.Int(20)}}))
		}
		script := func(*Catalog) map[string][]source.Delta {
			return map[string][]source.Delta{"A": {
				source.Ins(0.1, types.Int(3), types.Int(30)),
				source.Del(0.2, types.Int(1), types.Int(10)),
				source.Del(0.3, types.Int(1), types.Int(10)),
				source.Del(0.4, types.Int(3), types.Int(30)),
				source.Del(0.5, types.Int(3), types.Int(30)),
			}}
		}
		return singleRelQuery(s, nil, nil), cat, script
	}
	_, mt, rep := standingRun(t, fixture, false, Options{Strategy: Static}, nil)
	side := mt.tree.leaves["A"]
	if mt.side == nil || side != mt.side {
		t.Fatal("want A buffered by a KeyedSide in front of the tree")
	}
	for _, r := range []types.Tuple{{types.Int(1), types.Int(10)}, {types.Int(2), types.Int(20)}, {types.Int(3), types.Int(30)}} {
		if got, want := side.Live(r), map[int64]int{2: 1}[r[0].I]; got != want {
			t.Errorf("%v live %d times, want %d", r, got, want)
		}
	}
	if rep.DeltaClamped != 2 {
		t.Errorf("DeltaClamped = %d, want 2", rep.DeltaClamped)
	}
	assertRowsIdentical(t, rep.Maintained, []types.Tuple{{types.Int(2), types.Int(20)}})
}
