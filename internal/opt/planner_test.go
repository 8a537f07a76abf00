package opt

import (
	"math"
	"slices"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/workload"
)

// fuzzQueries are every query workload registers plus this package's two.
func fuzzQueries() []*algebra.Query {
	return []*algebra.Query{workload.Q3(), workload.Q3A(), workload.Q10(), workload.Q10A(), workload.Q5(), starQuery(), chainQuery()}
}

// fuzzBytes hands out the fuzzer's bytes, zeros once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// inputs generates one call's inputs for q: catalog cardinalities, sources
// unread, part read or complete, observed selectivities on arbitrary
// relation subsets (join or not, connected or not, some undefined),
// observed filter selectivities, multiplicative flags, consumed counts,
// credit on arbitrary subsets and a pre-aggregation mode.
func (b *fuzzBytes) inputs(q *algebra.Query) Inputs {
	in := Inputs{Query: q, PreAgg: PreAggMode(b.next() % 3)}
	flags := b.next()
	n := len(q.Relations)
	key := func(mask int) string {
		var rels []string
		for i, r := range q.Relations {
			if mask&(1<<i) != 0 {
				rels = append(rels, r.Name)
			}
		}
		return algebra.CanonKey(rels)
	}
	if flags&1 != 0 {
		in.Known = map[string]float64{}
		for _, r := range q.Relations {
			if v := b.next(); v%3 != 0 {
				in.Known[r.Name] = float64(v * 40)
			}
		}
	}
	if flags&2 != 0 {
		in.Obs = stats.NewRegistry()
		for _, r := range q.Relations {
			if v := b.next(); v%4 != 0 {
				in.Obs.ObserveSource(r.Name, float64(v*70), v%4 == 1)
			}
			if v := b.next(); v%5 == 0 {
				in.Obs.ObserveExpr(FilterSelKey(r.Name), float64(v), float64(b.next()*3), false)
			}
		}
		for k := b.next() % 12; k > 0; k-- {
			in.Obs.ObserveExpr(key(b.next()%(1<<n)), float64(b.next()*b.next()), float64(b.next()*500), false)
		}
		for _, j := range q.Joins {
			if v := b.next(); v%3 == 0 {
				in.Obs.FlagMultiplicative(j.String(), float64(v)/16)
			}
		}
	}
	if flags&4 != 0 {
		in.Consumed = map[string]float64{}
		for _, r := range q.Relations {
			in.Consumed[r.Name] = float64(b.next() * 30)
		}
	}
	if flags&8 != 0 {
		in.Credit = map[string]float64{}
		for k := b.next() % 8; k > 0; k-- {
			in.Credit[key(b.next()%(1<<n))] = float64(b.next()) * 0.0005
		}
	}
	if flags&16 != 0 {
		in.Cost = exec.DefaultCosts()
		in.Cost.Move *= int64(1 + b.next()%4)
	}
	return in
}

// joinEstimates lists every join node's input estimates, in CollectJoins
// order.
func joinEstimates(p algebra.Plan) []float64 {
	var out []float64
	for _, j := range algebra.CollectJoins(p) {
		out = append(out, j.EstLeftCard, j.EstRightCard)
	}
	return out
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// FuzzReoptimize feeds one Planner a sequence of generated inputs and holds
// every call to what the parent optimizer (parent_test.go) returns on a
// fresh call: the same plan with the same estimates on every node, card,
// cost, pre-aggregation and join order, and the same CostPlan of that plan
// and of a fixed one — floats bit for bit. A plan a call returned keeps its
// estimates while later calls run.
func FuzzReoptimize(f *testing.F) {
	f.Add([]byte{4, 2, 0xff, 7, 1, 9, 3, 5, 200, 4, 8, 15, 16, 23, 42})
	f.Add([]byte{3, 1, 31, 2, 27, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6})
	f.Add([]byte{0, 2, 30, 1, 14, 0, 33, 90, 12, 1, 2, 11, 3, 99, 5, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		qs := fuzzQueries()
		q := qs[b.next()%len(qs)]
		p, err := NewPlanner(q)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := parentOptimize(Inputs{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		var prev *Result
		var prevEst []float64
		for step := b.next()%5 + 1; step > 0; step-- {
			in := b.inputs(q)
			got := p.Optimize(in)
			want, err := parentOptimize(in)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := got.Root.String(), want.Root.String(); g != w {
				t.Fatalf("plan\n got  %s\n want %s", g, w)
			}
			if !sameBits(joinEstimates(got.Root), joinEstimates(want.Root)) {
				t.Fatalf("node estimates %v, want %v", joinEstimates(got.Root), joinEstimates(want.Root))
			}
			if !sameBits([]float64{got.Card, got.Cost}, []float64{want.Card, want.Cost}) {
				t.Fatalf("card, cost = %v %v, want %v %v", got.Card, got.Cost, want.Card, want.Cost)
			}
			if got.PreAggLeaf != want.PreAggLeaf || !slices.Equal(got.PreAggGroupCols, want.PreAggGroupCols) || !slices.Equal(got.JoinOrder, want.JoinOrder) {
				t.Fatalf("pre-agg %q %v, order %v; want %q %v, %v", got.PreAggLeaf, got.PreAggGroupCols, got.JoinOrder, want.PreAggLeaf, want.PreAggGroupCols, want.JoinOrder)
			}
			gc, gk := p.CostPlan(in, got.Root)
			wc, wk := parentCostPlan(in, want.Root)
			fc, fk := p.CostPlan(in, fixed.Root)
			pc, pk := parentCostPlan(in, fixed.Root)
			if !sameBits([]float64{gc, gk, fc, fk}, []float64{wc, wk, pc, pk}) {
				t.Fatalf("CostPlan own %v %v, fixed %v %v; want %v %v, %v %v", gc, gk, fc, fk, wc, wk, pc, pk)
			}
			if prev != nil && !sameBits(joinEstimates(prev.Root), prevEst) {
				t.Fatalf("an earlier plan's estimates moved: %v, were %v", joinEstimates(prev.Root), prevEst)
			}
			prev, prevEst = got, joinEstimates(got.Root)
		}
	})
}

var reoptimized *Result

// BenchmarkReoptimize is one corrective poll's optimizer work on Q5 —
// CostPlan of the running plan, then Optimize — by a planner that has
// served polls before.
func BenchmarkReoptimize(b *testing.B) {
	q := workload.Q5()
	current, err := Optimize(Inputs{Query: q})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"plain", "obs", "both"} {
		in := goldenInputs(q)[name]
		b.Run(name, func(b *testing.B) {
			p, err := NewPlanner(q)
			if err != nil {
				b.Fatal(err)
			}
			p.Optimize(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.CostPlan(in, current.Root)
				reoptimized = p.Optimize(in)
			}
		})
	}
}
