package algebra

import (
	"testing"

	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/types"
)

func relRef(name string, cols ...string) RelRef {
	cs := make([]types.Column, len(cols))
	for i, c := range cols {
		cs[i] = types.Column{Name: name + "." + c, Kind: types.KindInt}
	}
	return RelRef{Name: name, Schema: types.NewSchema(cs...)}
}

// flightsQuery is Example 2.1 from the paper: F(fid,from,to,when),
// T(ssn,flight), C(p,num) with Group[fid,from] max(num).
func flightsQuery() *Query {
	return &Query{
		Name: "flights",
		Relations: []RelRef{
			relRef("F", "fid", "from", "to", "when"),
			relRef("T", "ssn", "flight"),
			relRef("C", "p", "num"),
		},
		Joins: []JoinPred{
			{LeftRel: "F", LeftCol: "fid", RightRel: "T", RightCol: "flight"},
			{LeftRel: "T", LeftCol: "ssn", RightRel: "C", RightCol: "p"},
		},
		GroupBy: []string{"F.fid", "F.from"},
		Aggs:    []AggSpec{{Kind: AggMax, Arg: expr.Column("C.num"), As: "maxnum"}},
	}
}

func TestQueryValidateOK(t *testing.T) {
	if err := flightsQuery().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryValidateErrors(t *testing.T) {
	mk := flightsQuery
	cases := []struct {
		name string
		mut  func(*Query)
	}{
		{"no relations", func(q *Query) { q.Relations = nil }},
		{"dup relation", func(q *Query) { q.Relations = append(q.Relations, q.Relations[0]) }},
		{"unknown join rel", func(q *Query) { q.Joins[0].LeftRel = "Z" }},
		{"unknown right join rel", func(q *Query) { q.Joins[0].RightRel = "Z" }},
		{"unknown join col", func(q *Query) { q.Joins[0].LeftCol = "zzz" }},
		{"unknown right join col", func(q *Query) { q.Joins[0].RightCol = "zzz" }},
		{"filter unknown rel", func(q *Query) {
			q.Filters = map[string]expr.Predicate{"Z": expr.Eq(expr.IntLit(1), expr.IntLit(1))}
		}},
		{"filter bad col", func(q *Query) {
			q.Filters = map[string]expr.Predicate{"F": expr.Eq(expr.Column("F.zzz"), expr.IntLit(1))}
		}},
		{"disconnected", func(q *Query) { q.Joins = q.Joins[:1] }},
		{"bad group col", func(q *Query) { q.GroupBy = []string{"F.zzz"} }},
		{"bad agg", func(q *Query) { q.Aggs[0].Arg = expr.Column("zzz9") }},
		{"missing As", func(q *Query) { q.Aggs[0].As = "" }},
		{"bad project", func(q *Query) { q.Project = []string{"nope"}; q.Aggs = nil; q.GroupBy = nil }},
	}
	for _, c := range cases {
		q := mk()
		c.mut(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	// Disconnected single-relation query is fine.
	q := &Query{Name: "single", Relations: []RelRef{relRef("F", "fid")}}
	if err := q.Validate(); err != nil {
		t.Errorf("single relation: %v", err)
	}
}

func TestQueryHelpers(t *testing.T) {
	q := flightsQuery()
	if _, ok := q.Relation("T"); !ok {
		t.Error("Relation lookup failed")
	}
	if _, ok := q.Relation("Z"); ok {
		t.Error("Relation should miss")
	}
	names := q.RelationNames()
	if len(names) != 3 || names[0] != "F" {
		t.Errorf("RelationNames = %v", names)
	}
	between := q.JoinsBetween(map[string]bool{"F": true}, map[string]bool{"T": true, "C": true})
	if len(between) != 1 || between[0].LeftRel != "F" {
		t.Errorf("JoinsBetween = %v", between)
	}
	both := q.JoinsBetween(map[string]bool{"F": true, "T": true}, map[string]bool{"C": true})
	if len(both) != 1 || both[0].RightRel != "C" {
		t.Errorf("JoinsBetween = %v", both)
	}
}

func TestJoinPredCanonicalString(t *testing.T) {
	a := JoinPred{LeftRel: "F", LeftCol: "fid", RightRel: "T", RightCol: "flight"}
	b := JoinPred{LeftRel: "T", LeftCol: "flight", RightRel: "F", RightCol: "fid"}
	if a.String() != b.String() {
		t.Errorf("predicate strings differ: %q vs %q", a, b)
	}
}

func TestCanonKeyOrderInsensitive(t *testing.T) {
	if CanonKey([]string{"b", "a"}) != CanonKey([]string{"a", "b"}) {
		t.Error("CanonKey must be order-insensitive")
	}
	if CanonKey([]string{"a"}) == CanonKey([]string{"a", "b"}) {
		t.Error("different sets must differ")
	}
}

func TestAggSpecRendering(t *testing.T) {
	a := AggSpec{Kind: AggSum, Arg: expr.Column("x"), As: "s"}
	if a.String() != "sum(x) AS s" {
		t.Errorf("String = %q", a.String())
	}
	c := AggSpec{Kind: AggCount, As: "n"}
	if c.String() != "count(*) AS n" {
		t.Errorf("String = %q", c.String())
	}
	if AggMin.String() != "min" || AggMax.String() != "max" || AggAvg.String() != "avg" {
		t.Error("kind names wrong")
	}
	if a.ResultKind(types.KindInt) != types.KindFloat {
		t.Error("sum should produce float")
	}
	if c.ResultKind(types.KindString) != types.KindInt {
		t.Error("count should produce int")
	}
	m := AggSpec{Kind: AggMin, As: "m"}
	if m.ResultKind(types.KindString) != types.KindString {
		t.Error("min should preserve kind")
	}
}

func TestPlanTreeConstruction(t *testing.T) {
	q := flightsQuery()
	f, _ := q.Relation("F")
	tr, _ := q.Relation("T")
	c, _ := q.Relation("C")
	ft := NewJoin(NewScan(f), NewScan(tr), []JoinPred{q.Joins[0]})
	ftc := NewJoin(ft, NewScan(c), []JoinPred{q.Joins[1]})
	g := NewGroup(ftc, q.GroupBy, q.Aggs)

	if got := ftc.Schema().Len(); got != 4+2+2 {
		t.Errorf("join schema width = %d", got)
	}
	if got := ftc.Rels(); len(got) != 3 || got[0] != "C" || got[2] != "T" {
		t.Errorf("Rels = %v (want sorted)", got)
	}
	if ftc.Key() != CanonKey([]string{"F", "T", "C"}) {
		t.Error("join Key mismatch")
	}
	if g.Schema().Len() != 3 { // fid, from, maxnum
		t.Errorf("group schema = %v", g.Schema())
	}
	if g.Schema().Cols[2].Kind != types.KindInt {
		t.Error("max over int should stay int")
	}
	if len(CollectJoins(g)) != 2 {
		t.Error("CollectJoins wrong")
	}
	if g.Rels()[0] != "C" {
		t.Error("group Rels should delegate")
	}
	_ = g.String()
	_ = ftc.String()
}

func TestJoinKeyCols(t *testing.T) {
	q := flightsQuery()
	f, _ := q.Relation("F")
	tr, _ := q.Relation("T")
	// Join declared as F.fid = T.flight, but build the tree with T on the
	// left: key resolution must flip sides.
	j := NewJoin(NewScan(tr), NewScan(f), []JoinPred{q.Joins[0]})
	l, r, err := j.JoinKeyCols()
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 1 || j.Left.Schema().Cols[l[0]].Name != "T.flight" {
		t.Errorf("left key = %v", l)
	}
	if j.Right.Schema().Cols[r[0]].Name != "F.fid" {
		t.Errorf("right key = %v", r)
	}
}

func TestGroupSchemaPartialAvgExpansion(t *testing.T) {
	in := types.NewSchema(
		types.Column{Name: "r.g", Kind: types.KindString},
		types.Column{Name: "r.v", Kind: types.KindInt},
	)
	aggs := []AggSpec{
		{Kind: AggAvg, Arg: expr.Column("r.v"), As: "a"},
		{Kind: AggCount, As: "n"},
	}
	part := GroupSchema(in, []string{"r.g"}, aggs, true)
	want := []string{"r.g", "a$sum", "a$cnt", "n"}
	for i, w := range want {
		if part.Cols[i].Name != w {
			t.Errorf("partial schema col %d = %s, want %s", i, part.Cols[i].Name, w)
		}
	}
	final := GroupSchema(in, []string{"r.g"}, aggs, false)
	if final.Len() != 3 || final.Cols[1].Name != "a" {
		t.Errorf("final schema = %v", final)
	}
}

func TestProjectPlan(t *testing.T) {
	f := relRef("F", "fid", "from")
	p, err := NewProject(NewScan(f), []string{"F.from"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Len() != 1 || p.Rels()[0] != "F" {
		t.Error("project plan wrong")
	}
	if p.Key() != "π"+CanonKey([]string{"F"}) {
		t.Error("project key wrong")
	}
	_ = p.String()
	if _, err := NewProject(NewScan(f), []string{"zzz"}); err == nil {
		t.Error("bad projection should error")
	}
}

func TestCombinationsMatchesCount(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{2, 2}, {3, 2}, {3, 3}, {4, 3}, {1, 5}} {
		var got int
		Combinations(tc.m, tc.n, func(c []int) bool {
			// Must be non-uniform.
			uniform := true
			for i := 1; i < len(c); i++ {
				if c[i] != c[0] {
					uniform = false
				}
			}
			if uniform && tc.m > 1 {
				t.Fatalf("uniform vector %v emitted", c)
			}
			got++
			return true
		})
		want := CombinationCount(tc.m, tc.n)
		if tc.m == 1 {
			want = 0 // every length-1 vector is uniform
		}
		if got != want {
			t.Errorf("m=%d n=%d: got %d combinations, want %d", tc.m, tc.n, got, want)
		}
	}
}

func TestCombinationsPaperExample(t *testing.T) {
	// Figure 1: 3 relations, 2 phases -> 2^3-2 = 6 stitch-up terms.
	var vecs [][]int
	Combinations(3, 2, func(c []int) bool {
		vecs = append(vecs, append([]int(nil), c...))
		return true
	})
	if len(vecs) != 6 {
		t.Fatalf("got %d vectors, want 6", len(vecs))
	}
}

func TestCombinationsEarlyStopAndDegenerate(t *testing.T) {
	n := 0
	Combinations(3, 3, func([]int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop failed: %d", n)
	}
	Combinations(0, 3, func([]int) bool { t.Fatal("no vectors expected"); return true })
	Combinations(3, 0, func([]int) bool { t.Fatal("no vectors expected"); return true })
}
