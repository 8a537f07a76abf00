package opt

import (
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

func relRef(name string, cols ...string) algebra.RelRef {
	cs := make([]types.Column, len(cols))
	for i, c := range cols {
		cs[i] = types.Column{Name: name + "." + c, Kind: types.KindInt}
	}
	return algebra.RelRef{Name: name, Schema: types.NewSchema(cs...)}
}

// starQuery: fact joins dim1 and dim2; group by dim1 key with sum on a
// fact measure.
func starQuery() *algebra.Query {
	return &algebra.Query{
		Name: "star",
		Relations: []algebra.RelRef{
			relRef("fact", "fk1", "fk2", "m"),
			relRef("dim1", "k", "a"),
			relRef("dim2", "k", "b"),
		},
		Joins: []algebra.JoinPred{
			{LeftRel: "fact", LeftCol: "fk1", RightRel: "dim1", RightCol: "k"},
			{LeftRel: "fact", LeftCol: "fk2", RightRel: "dim2", RightCol: "k"},
		},
		GroupBy: []string{"dim1.a"},
		Aggs:    []algebra.AggSpec{{Kind: algebra.AggSum, Arg: expr.Column("fact.m"), As: "s"}},
	}
}

func chainQuery() *algebra.Query {
	return &algebra.Query{
		Name: "chain",
		Relations: []algebra.RelRef{
			relRef("a", "k"),
			relRef("b", "ak", "ck"),
			relRef("c", "k", "x"),
		},
		Joins: []algebra.JoinPred{
			{LeftRel: "a", LeftCol: "k", RightRel: "b", RightCol: "ak"},
			{LeftRel: "b", LeftCol: "ck", RightRel: "c", RightCol: "k"},
		},
		Project: []string{"c.x"},
	}
}

func TestOptimizeProducesValidTree(t *testing.T) {
	res, err := Optimize(Inputs{Query: starQuery()})
	if err != nil {
		t.Fatal(err)
	}
	joins := algebra.CollectJoins(res.Root)
	if len(joins) != 2 {
		t.Fatalf("expected 2 joins, got %d", len(joins))
	}
	if len(res.JoinOrder) != 3 {
		t.Errorf("JoinOrder = %v", res.JoinOrder)
	}
	if res.Cost <= 0 || res.Card <= 0 {
		t.Error("cost/card not estimated")
	}
	// Every join must carry at least one predicate (no cross products for
	// a connected graph).
	for _, j := range joins {
		if len(j.Preds) == 0 {
			t.Error("cross product in connected query")
		}
	}
	if res.GroupBy[0] != "dim1.a" || len(res.Aggs) != 1 {
		t.Error("aggregation metadata lost")
	}
}

func TestKnownCardinalitiesChangeOrder(t *testing.T) {
	q := chainQuery()
	// b is huge, a and c tiny: best tree should join the small relations
	// with b late or filter early; at minimum the estimated cost with
	// cardinalities must differ from the no-stats cost.
	known := map[string]float64{"a": 10, "b": 1e6, "c": 10}
	r1, err := Optimize(Inputs{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(Inputs{Query: q, Known: known})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost == r2.Cost {
		t.Error("known cardinalities had no effect on costing")
	}
}

func TestObservedSelectivityOverridesEstimate(t *testing.T) {
	q := starQuery()
	known := map[string]float64{"fact": 10000, "dim1": 100, "dim2": 100}
	reg := stats.NewRegistry()
	// Claim the fact⋈dim1 join explodes (observed selectivity 1.0 over
	// the input product = cross-product-like).
	reg.ObserveExpr(algebra.CanonKey([]string{"fact", "dim1"}), 1e6, 1e6, false)
	r, err := Optimize(Inputs{Query: q, Known: known, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// With such an observation the optimizer should prefer joining
	// fact⋈dim2 first: the first join in execution order must not be
	// {fact,dim1}.
	joins := algebra.CollectJoins(r.Root)
	first := joins[0].Key()
	if first == algebra.CanonKey([]string{"fact", "dim1"}) {
		t.Errorf("optimizer kept the exploding join first: %s", r.Root)
	}
}

func TestMultiplicativeFlagPenalizesJoin(t *testing.T) {
	q := starQuery()
	known := map[string]float64{"fact": 10000, "dim1": 100, "dim2": 100}
	base, _ := Optimize(Inputs{Query: q, Known: known})
	reg := stats.NewRegistry()
	pred := algebra.JoinPred{LeftRel: "fact", LeftCol: "fk1", RightRel: "dim1", RightCol: "k"}
	reg.FlagMultiplicative(pred.String(), 50)
	flagged, _ := Optimize(Inputs{Query: q, Known: known, Obs: reg})
	if flagged.Cost <= base.Cost {
		t.Errorf("multiplicative flag should raise estimated cost: %g vs %g", flagged.Cost, base.Cost)
	}
}

func TestConsumedReducesCost(t *testing.T) {
	q := starQuery()
	known := map[string]float64{"fact": 10000, "dim1": 100, "dim2": 100}
	full, _ := Optimize(Inputs{Query: q, Known: known})
	part, _ := Optimize(Inputs{Query: q, Known: known,
		Consumed: map[string]float64{"fact": 9000, "dim1": 90, "dim2": 90}})
	if part.Cost >= full.Cost {
		t.Errorf("remaining-data plan should cost less: %g vs %g", part.Cost, full.Cost)
	}
}

func TestCreditDiscountsReusedSubexpression(t *testing.T) {
	q := starQuery()
	known := map[string]float64{"fact": 10000, "dim1": 100, "dim2": 100}
	base, _ := Optimize(Inputs{Query: q, Known: known})
	credit := map[string]float64{
		algebra.CanonKey([]string{"fact", "dim1"}): base.Cost, // huge credit
		algebra.CanonKey([]string{"fact", "dim2"}): base.Cost,
	}
	disc, _ := Optimize(Inputs{Query: q, Known: known, Credit: credit})
	if disc.Cost >= base.Cost {
		t.Errorf("credit should lower cost: %g vs %g", disc.Cost, base.Cost)
	}
}

func TestPreAggWindowedInsertsAtArgLeaf(t *testing.T) {
	res, err := Optimize(Inputs{
		Query:  starQuery(),
		Known:  map[string]float64{"fact": 10000, "dim1": 10, "dim2": 10},
		PreAgg: PreAggWindowed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreAggLeaf != "fact" {
		t.Fatalf("PreAggLeaf = %q, want fact", res.PreAggLeaf)
	}
	// Partial group key must include fact's join columns.
	want := map[string]bool{"fact.fk1": true, "fact.fk2": true}
	for _, c := range res.PreAggGroupCols {
		delete(want, c)
	}
	if len(want) != 0 {
		t.Errorf("pre-agg group cols missing join attributes: %v", res.PreAggGroupCols)
	}
	// The tree must contain a GroupPlan leaf (windowed).
	found := false
	var walk func(p algebra.Plan)
	walk = func(p algebra.Plan) {
		switch v := p.(type) {
		case *algebra.JoinPlan:
			walk(v.Left)
			walk(v.Right)
		case *algebra.GroupPlan:
			if v.Partial && v.Windowed {
				found = true
			}
			walk(v.Input)
		}
	}
	walk(res.Root)
	if !found {
		t.Errorf("windowed pre-agg node not in tree: %s", res.Root)
	}
}

func TestPreAggTraditionalConservative(t *testing.T) {
	// dim domains equal to fact card -> no coalescing opportunity -> a
	// traditional pre-agg must NOT be inserted.
	q := starQuery()
	res, err := Optimize(Inputs{
		Query:  q,
		Known:  map[string]float64{"fact": 1000, "dim1": 1000, "dim2": 1000},
		PreAgg: PreAggTraditional,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreAggLeaf != "" {
		t.Errorf("traditional pre-agg inserted where not beneficial (leaf %q)", res.PreAggLeaf)
	}
	// Small dims -> clearly beneficial -> inserted.
	res2, _ := Optimize(Inputs{
		Query:  q,
		Known:  map[string]float64{"fact": 100000, "dim1": 10, "dim2": 10},
		PreAgg: PreAggTraditional,
	})
	if res2.PreAggLeaf != "fact" {
		t.Error("traditional pre-agg not inserted where beneficial")
	}
}

func TestPreAggNoneAndSPJ(t *testing.T) {
	res, _ := Optimize(Inputs{Query: starQuery(), PreAgg: PreAggNone})
	if res.PreAggLeaf != "" {
		t.Error("PreAggNone inserted a pre-agg")
	}
	spj, err := Optimize(Inputs{Query: chainQuery(), PreAgg: PreAggWindowed})
	if err != nil {
		t.Fatal(err)
	}
	if spj.PreAggLeaf != "" || spj.Aggs != nil && len(spj.Aggs) > 0 {
		t.Error("SPJ query must not get pre-agg")
	}
}

func TestSingleRelationQuery(t *testing.T) {
	q := &algebra.Query{
		Name:      "single",
		Relations: []algebra.RelRef{relRef("r", "k", "v")},
		GroupBy:   []string{"r.k"},
		Aggs:      []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}},
	}
	res, err := Optimize(Inputs{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Root.(*algebra.ScanPlan); !ok {
		t.Errorf("single-relation plan should be a scan, got %T", res.Root)
	}
}

func TestObservedFilterSelectivity(t *testing.T) {
	q := chainQuery()
	q.Filters = map[string]expr.Predicate{
		"a": expr.Eq(expr.Column("a.k"), expr.IntLit(5)),
	}
	// Syntactic estimate: 0.1. Observation says 0.9.
	noObs, _ := Optimize(Inputs{Query: q, Known: map[string]float64{"a": 1000, "b": 1000, "c": 1000}})
	reg := stats.NewRegistry()
	reg.ObserveExpr(FilterSelKey("a"), 900, 1000, false)
	withObs, _ := Optimize(Inputs{Query: q, Known: map[string]float64{"a": 1000, "b": 1000, "c": 1000}, Obs: reg})
	if withObs.Cost <= noObs.Cost {
		t.Errorf("higher observed filter selectivity should raise cost: %g vs %g", withObs.Cost, noObs.Cost)
	}
}

func TestPredSelHeuristics(t *testing.T) {
	eq := expr.Eq(expr.Column("x"), expr.IntLit(1))
	rng := expr.Lt(expr.Column("x"), expr.IntLit(1))
	if predSel(eq) != 0.1 || predSel(rng) != 0.3 {
		t.Error("basic selectivities wrong")
	}
	if got := predSel(expr.AndOf(eq, rng)); got != 0.1*0.3 {
		t.Errorf("And selectivity = %g", got)
	}
	if got := predSel(expr.OrOf(eq, eq)); got != 0.2 {
		t.Errorf("Or selectivity = %g", got)
	}
	if got := predSel(expr.NotOf(eq)); got != 0.9 {
		t.Errorf("Not selectivity = %g", got)
	}
}

func TestDefaultCardUsedWithoutStats(t *testing.T) {
	if got := TotalCard(nil, nil, "a"); got != DefaultCard {
		t.Errorf("default card = %g", got)
	}
	// Incomplete observation below default keeps default.
	reg := stats.NewRegistry()
	reg.ObserveSource("a", 100, false)
	if TotalCard(nil, reg, "a") != DefaultCard {
		t.Error("incomplete small observation should not lower default")
	}
	// Complete observation wins.
	reg.ObserveSource("a", 100, true)
	if TotalCard(nil, reg, "a") != 100 {
		t.Error("complete observation should override default")
	}
	// Incomplete observation above default raises the floor, with the
	// 2x foresight factor for still-flowing sources.
	reg2 := stats.NewRegistry()
	reg2.ObserveSource("a", 50000, false)
	if got := TotalCard(nil, reg2, "a"); got != 100000 {
		t.Errorf("incomplete observation estimate = %g, want 100000 (2x foresight)", got)
	}
}

func TestOptimizeRejectsInvalidQuery(t *testing.T) {
	q := &algebra.Query{Name: "bad"}
	if _, err := Optimize(Inputs{Query: q}); err == nil {
		t.Error("invalid query should error")
	}
}
