package opt

import (
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
)

func TestCostPlanMatchesOptimizeForChosenPlan(t *testing.T) {
	in := Inputs{Query: starQuery(), Known: map[string]float64{"fact": 10000, "dim1": 100, "dim2": 100}}
	res, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	cost, card := CostPlan(in, res.Root)
	if cost <= 0 || card <= 0 {
		t.Fatal("CostPlan returned nothing")
	}
	// Optimize's reported cost includes the final aggregation update; the
	// join-tree cost must match within that term.
	aggCost := res.Card * exec.Seconds(exec.DefaultCosts().AggUpdate)
	if diff := res.Cost - cost - aggCost; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("CostPlan %.9f + agg %.9f != Optimize %.9f", cost, aggCost, res.Cost)
	}
}

func TestCostPlanPrefersCheaperPlan(t *testing.T) {
	in := Inputs{Query: starQuery(), Known: map[string]float64{"fact": 100000, "dim1": 10, "dim2": 10}}
	res, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	bestCost, _ := CostPlan(in, res.Root)
	// Hand-build a silly plan: join the two dimensions' cross product...
	// not constructible without predicates; instead join fact with dim2
	// first then dim1 — same predicates, possibly different cost. The
	// optimizer's choice must be <= any alternative.
	q := in.Query
	fact, _ := q.Relation("fact")
	d1, _ := q.Relation("dim1")
	d2, _ := q.Relation("dim2")
	alt := algebra.NewJoin(
		algebra.NewJoin(algebra.NewScan(fact), algebra.NewScan(d2), []algebra.JoinPred{q.Joins[1]}),
		algebra.NewScan(d1), []algebra.JoinPred{q.Joins[0]})
	altCost, _ := CostPlan(in, alt)
	if bestCost > altCost*1.0000001 {
		t.Errorf("optimizer's plan (%.9f) costs more than an alternative (%.9f)", bestCost, altCost)
	}
}

func TestCostPlanGroupAndProject(t *testing.T) {
	in := Inputs{Query: starQuery(), Known: map[string]float64{"fact": 1000, "dim1": 10, "dim2": 10}}
	q := in.Query
	fact, _ := q.Relation("fact")
	scan := algebra.NewScan(fact)
	pre := algebra.NewPreAgg(scan, []string{"fact.fk1"}, q.Aggs, true)
	cost1, _ := CostPlan(in, scan)
	cost2, _ := CostPlan(in, pre)
	if cost2 <= cost1 {
		t.Error("pre-agg node should add cost")
	}
	final := algebra.NewGroup(scan, []string{"fact.fk1"}, q.Aggs)
	cost3, _ := CostPlan(in, final)
	if cost3 <= cost1 {
		t.Error("final group node should add cost")
	}
}
