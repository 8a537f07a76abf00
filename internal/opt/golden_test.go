package opt

import (
	"fmt"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/workload"
)

// optGoldens were written by commit 7e491a5, the one before the optimizer
// stopped building a key string and a join node per candidate split. Each
// line is one query under one set of inputs: the plan Optimize chose with
// its cardinality and cost, then what CostPlan makes of that plan and of
// the plan chosen without observations under the same inputs. Floats print
// in their shortest exact form, so equal lines mean equal bits: the same
// plans, costs and tie-breaks.
var optGoldens = map[string]string{
	"Q3A/plain":   "(lineitem ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} (orders ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} customer)) card=15500 cost=0.14965 | own 0.13725 15500 | plain 0.13725 15500",
	"Q3A/obs":     "(lineitem ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} (customer ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} orders)) card=2.488888888888889e+08 cost=273.86920444444445 | own 74.75809333333333 2.488888888888889e+08 | plain 74.75809333333333 2.488888888888889e+08",
	"Q3A/credit":  "(lineitem ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} (orders ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} customer)) card=15500 cost=0.14845 | own 0.13605 15500 | plain 0.13605 15500",
	"Q3A/both":    "(lineitem ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} (customer ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} orders)) card=1.337848888888889e+08 cost=147.23679544444445 | own 40.20888433333334 1.337848888888889e+08 | plain 40.20888433333334 1.337848888888889e+08",
	"Q5/plain":    "((nation ⋈[pipelined-hash]{nation.n_regionkey = region.r_regionkey} region) ⋈[pipelined-hash]{nation.n_nationkey = supplier.s_nationkey} (supplier ⋈[pipelined-hash]{lineitem.l_suppkey = supplier.s_suppkey,customer.c_nationkey = supplier.s_nationkey} (lineitem ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} (customer ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} orders)))) card=8250.10621875 cost=0.334696043840625 | own 0.32809595886562504 8250.10621875 | plain 0.32809595886562504 8250.10621875",
	"Q5/obs":      "(customer ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey,customer.c_nationkey = supplier.s_nationkey} ((supplier ⋈[pipelined-hash]{lineitem.l_suppkey = supplier.s_suppkey} (lineitem ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} orders)) ⋈[pipelined-hash]{nation.n_nationkey = supplier.s_nationkey} (nation ⋈[pipelined-hash]{nation.n_regionkey = region.r_regionkey} region))) card=1.792e+20 cost=1.971200000000003e+14 | own 5.376000000000033e+13 1.792e+20 | plain 5.376001075253786e+13 1.792e+20",
	"Q5/credit":   "((nation ⋈[pipelined-hash]{nation.n_regionkey = region.r_regionkey} region) ⋈[pipelined-hash]{nation.n_nationkey = supplier.s_nationkey} (supplier ⋈[pipelined-hash]{lineitem.l_suppkey = supplier.s_suppkey,customer.c_nationkey = supplier.s_nationkey} (customer ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} (lineitem ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} orders)))) card=8250.10621875 cost=0.281896043840625 | own 0.275295958865625 8250.10621875 | plain 0.27649595886562506 8250.10621875",
	"Q5/both":     "((lineitem ⋈[pipelined-hash]{lineitem.l_suppkey = supplier.s_suppkey} (supplier ⋈[pipelined-hash]{nation.n_nationkey = supplier.s_nationkey} (nation ⋈[pipelined-hash]{nation.n_regionkey = region.r_regionkey} region))) ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey,customer.c_nationkey = supplier.s_nationkey} (customer ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} orders)) card=7.62167695744e+19 cost=8.383844653184025e+13 | own 2.2865030872320242e+13 7.62167695744e+19 | plain 2.2865036305345926e+13 7.62167695744e+19",
	"Q10A/plain":  "(nation ⋈[pipelined-hash]{customer.c_nationkey = nation.n_nationkey} (customer ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} (orders ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} lineitem))) card=17750 cost=0.237325 | own 0.22312500000000002 17750 | plain 0.22312500000000002 17750",
	"Q10A/obs":    "((customer ⋈[pipelined-hash]{customer.c_nationkey = nation.n_nationkey} nation) ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} (lineitem ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} orders)) card=4.977777777777777e+12 cost=5.475559936582221e+06 | own 1.4933377143599996e+06 4.977777777777777e+12 | plain 1.4939307810266663e+06 4.977777777777777e+12",
	"Q10A/credit": "(nation ⋈[pipelined-hash]{customer.c_nationkey = nation.n_nationkey} (customer ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} (orders ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} lineitem))) card=17750 cost=0.22892500000000002 | own 0.21472500000000003 17750 | plain 0.21472500000000003 17750",
	"Q10A/both":   "((customer ⋈[pipelined-hash]{customer.c_nationkey = nation.n_nationkey} nation) ⋈[pipelined-hash]{customer.c_custkey = orders.o_custkey} (lineitem ⋈[pipelined-hash]{lineitem.l_orderkey = orders.o_orderkey} orders)) card=2.5151559111111113e+12 cost=2.7666755493738893e+06 | own 754550.820485 2.5151559111111113e+12 | plain 754867.9573116666 2.5151559111111113e+12",
}

// goldenInputs are the four input sets of a query: nothing known, runtime
// observations (sources part read, one exhausted; an observed selectivity
// for every second join subset; one join flagged multiplicative), credit
// for work already done on every third subset, and both with the consumed
// counts of a second phase.
func goldenInputs(q *algebra.Query) map[string]Inputs {
	obs := stats.NewRegistry()
	credit := map[string]float64{}
	consumed := map[string]float64{}
	for i, r := range q.Relations {
		obs.ObserveSource(r.Name, float64(700*(i+1)), i == 1)
		consumed[r.Name] = float64(300 * (i + 1))
	}
	obs.FlagMultiplicative(q.Joins[0].String(), 7)
	n := uint(len(q.Relations))
	for mask := uint(3); mask < 1<<n; mask++ {
		if mask&(mask-1) == 0 {
			continue
		}
		var rels []string
		for i, r := range q.Relations {
			if mask&(1<<uint(i)) != 0 {
				rels = append(rels, r.Name)
			}
		}
		key := algebra.CanonKey(rels)
		if mask%2 == 1 {
			obs.ObserveExpr(key, float64(40*mask), float64(9000*mask), false)
		}
		if mask%3 == 0 {
			credit[key] = 0.0004 * float64(mask)
		}
	}
	return map[string]Inputs{
		"plain":  {Query: q},
		"obs":    {Query: q, Obs: obs},
		"credit": {Query: q, Credit: credit},
		"both":   {Query: q, Obs: obs, Credit: credit, Consumed: consumed},
	}
}

func TestOptimizeAndCostPlanGoldens(t *testing.T) {
	for _, q := range []*algebra.Query{workload.Q3A(), workload.Q5(), workload.Q10A()} {
		plain, err := Optimize(Inputs{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"plain", "obs", "credit", "both"} {
			in := goldenInputs(q)[name]
			res, err := Optimize(in)
			if err != nil {
				t.Fatal(err)
			}
			ownCost, ownCard := CostPlan(in, res.Root)
			plainCost, plainCard := CostPlan(in, plain.Root)
			got := fmt.Sprintf("%s card=%v cost=%v | own %v %v | plain %v %v",
				res.Root, res.Card, res.Cost, ownCost, ownCard, plainCost, plainCard)
			key := q.Name + "/" + name
			if want, ok := optGoldens[key]; !ok {
				t.Errorf("no golden; got\n\t%q: %q,", key, got)
			} else if got != want {
				t.Errorf("%s:\n got  %s\n want %s", key, got, want)
			}
		}
	}
}
