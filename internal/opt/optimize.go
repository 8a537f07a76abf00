package opt

import (
	"fmt"
	"math"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
)

// Result is the optimizer's output.
type Result struct {
	// Root is the join tree (with any leaf pre-aggregation inserted);
	// for single-relation queries it is the scan.
	Root algebra.Plan
	// GroupBy/Aggs describe the final aggregation the executor applies on
	// top (nil Aggs = pure SPJ).
	GroupBy []string
	Aggs    []algebra.AggSpec
	// Card and Cost are the estimated output cardinality of Root and the
	// estimated total cost in virtual seconds.
	Card float64
	Cost float64
	// PreAggLeaf names the relation that received a pre-aggregation
	// operator ("" = none), and PreAggGroupCols its partial group key.
	PreAggLeaf      string
	PreAggGroupCols []string
	// JoinOrder lists base relations in the order they appear left-to-
	// right in the chosen tree (diagnostics).
	JoinOrder []string
}

// memoEntry caches the best plan for a relation subset.
type memoEntry struct {
	plan algebra.Plan
	card float64
	cost float64
}

type optimizer struct {
	in   Inputs
	est  *estimator
	cost *exec.CostModel
	memo map[uint]*memoEntry
	// adjacency: relation index -> bitmask of joined relations.
	adj []uint
	// preAgg: leaf relation index that receives pre-aggregation (-1
	// none); reduction factor applied to its effective card.
	preAggLeaf      int
	preAggFactor    float64
	preAggGroupCols []string
}

// Optimize plans the query. It is deterministic: ties break toward the
// earlier enumeration order.
func Optimize(in Inputs) (*Result, error) {
	if err := in.Query.Validate(); err != nil {
		return nil, err
	}
	if len(in.Query.Relations) > 20 {
		return nil, fmt.Errorf("opt: too many relations (%d)", len(in.Query.Relations))
	}
	o := &optimizer{
		in:         in,
		est:        newEstimator(in),
		cost:       in.Cost,
		memo:       map[uint]*memoEntry{},
		preAggLeaf: -1,
	}
	if o.cost == nil {
		o.cost = exec.DefaultCosts()
	}
	q := in.Query
	o.adj = make([]uint, len(q.Relations))
	for _, j := range q.Joins {
		li, ri := o.est.nameIdx[j.LeftRel], o.est.nameIdx[j.RightRel]
		o.adj[li] |= 1 << uint(ri)
		o.adj[ri] |= 1 << uint(li)
	}
	o.planPreAgg()

	full := uint(1)<<uint(len(q.Relations)) - 1
	best := o.best(full)
	res := &Result{
		Root:    best.plan,
		GroupBy: q.GroupBy,
		Aggs:    q.Aggs,
		Card:    best.card,
		Cost:    best.cost,
	}
	if o.preAggLeaf >= 0 {
		res.PreAggLeaf = q.Relations[o.preAggLeaf].Name
		res.PreAggGroupCols = o.preAggGroupCols
	}
	res.JoinOrder = leafOrder(best.plan)
	// Final aggregation cost: one update per root output tuple.
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		res.Cost += best.card * o.cost.AggUpdate
	}
	return res, nil
}

func leafOrder(p algebra.Plan) []string {
	switch v := p.(type) {
	case *algebra.ScanPlan:
		return []string{v.Rel.Name}
	case *algebra.JoinPlan:
		return append(leafOrder(v.Left), leafOrder(v.Right)...)
	case *algebra.GroupPlan:
		return leafOrder(v.Input)
	case *algebra.ProjectPlan:
		return leafOrder(v.Input)
	default:
		return nil
	}
}

// planPreAgg decides whether a leaf receives a pre-aggregation operator
// and with which partial group key (§6). The eligible leaf is the one
// providing every aggregate argument column; its partial group key is the
// leaf's group-by columns plus every join column the query uses from it
// (partial groups "including any join attributes, even if these are not
// part of the final groups", §2.2).
func (o *optimizer) planPreAgg() {
	q := o.in.Query
	if o.in.PreAgg == PreAggNone || len(q.Aggs) == 0 || len(q.Relations) < 2 {
		return
	}
	// Collect the argument columns of all aggregates.
	var argCols []string
	for _, a := range q.Aggs {
		if a.Arg != nil {
			argCols = a.Arg.Columns(argCols)
		}
	}
	if len(argCols) == 0 {
		return // count(*)-only: no single provider leaf
	}
	leaf := -1
	for i, r := range q.Relations {
		all := true
		for _, c := range argCols {
			if r.Schema.IndexOf(c) < 0 {
				all = false
				break
			}
		}
		if all {
			leaf = i
			break
		}
	}
	if leaf < 0 {
		return
	}
	rel := q.Relations[leaf]
	// Partial group key: query group-by columns belonging to this leaf +
	// all of its join columns.
	seen := map[string]bool{}
	var cols []string
	add := func(c string) {
		idx := rel.Schema.IndexOf(c)
		if idx < 0 {
			return
		}
		qn := rel.Schema.Cols[idx].Name
		if !seen[qn] {
			seen[qn] = true
			cols = append(cols, qn)
		}
	}
	for _, g := range q.GroupBy {
		add(g)
	}
	for _, j := range q.Joins {
		if j.LeftRel == rel.Name {
			add(j.LeftCol)
		}
		if j.RightRel == rel.Name {
			add(j.RightCol)
		}
	}
	if len(cols) == 0 {
		return
	}
	// Estimated reduction: distinct(group key) / card(leaf).
	card := math.Max(o.est.baseCard[rel.Name], 1)
	distinct := 1.0
	for _, c := range cols {
		short := c
		if i := rel.Schema.IndexOf(c); i >= 0 {
			short = rel.Schema.Cols[i].Name
		}
		// distinctOf wants the bare column name as declared in join preds.
		if dot := lastDot(short); dot >= 0 {
			short = short[dot+1:]
		}
		distinct *= o.est.distinctOf(rel.Name, short)
	}
	distinct = math.Min(distinct, card)
	factor := distinct / card
	switch o.in.PreAgg {
	case PreAggTraditional:
		// Conservative: apply only when clearly beneficial.
		if factor > 0.8 {
			return
		}
	case PreAggWindowed:
		// Always inserted; the operator self-regulates at runtime. For
		// costing assume the estimated factor, floored so a useless
		// pre-agg does not distort join planning.
		if factor > 1 {
			factor = 1
		}
	}
	o.preAggLeaf = leaf
	o.preAggFactor = factor
	o.preAggGroupCols = cols
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// best returns the memoized best plan for subset mask (top-down recursion
// with memoization, "equivalent to dynamic programming but more flexible
// for sharing subexpressions between optimizer re-invocations", §4.3).
func (o *optimizer) best(mask uint) *memoEntry {
	if e, ok := o.memo[mask]; ok {
		return e
	}
	q := o.in.Query
	// Singleton: scan leaf (plus pre-aggregation if planned here).
	if mask&(mask-1) == 0 {
		idx := trailingZeros(mask)
		rel := q.Relations[idx]
		var plan algebra.Plan = algebra.NewScan(rel)
		card := o.est.baseCard[rel.Name]
		cost := math.Max(o.est.rawCard[rel.Name], 1) * o.cost.Move // read+filter
		if idx == o.preAggLeaf {
			plan = algebra.NewPreAgg(plan, o.preAggGroupCols, q.Aggs, o.in.PreAgg == PreAggWindowed)
			cost += card * o.cost.AggUpdate
			card *= o.preAggFactor
		}
		e := &memoEntry{plan: plan, card: math.Max(card, 0), cost: cost}
		o.memo[mask] = e
		return e
	}
	// Enumerate partitions into two non-empty connected halves joined by
	// at least one predicate (bushy enumeration over connected
	// subgraph/complement pairs, §4.3). Disconnected halves are skipped,
	// so plans never contain cross products — System-R discipline, which
	// also keeps mid-query re-planning from "discovering" free cross
	// products over nearly exhausted sources. Only the winning split is
	// remembered; its join node — a concatenated schema — is built once.
	var (
		best      *memoEntry
		left      *memoEntry // the winning split, larger input first
		right     *memoEntry
		bestPreds []algebra.JoinPred
	)
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		other := mask &^ sub
		if sub > other {
			continue // each split once
		}
		if !o.connectedTo(sub, other) {
			continue
		}
		if !o.subsetConnected(sub) || !o.subsetConnected(other) {
			continue
		}
		l, r := o.best(sub), o.best(other)
		preds := o.predsBetween(sub, other)
		card := o.est.cardOf(mask, l.card, r.card, preds)
		jc := o.joinCost(l.card, r.card, card)
		total := l.cost + r.cost + jc
		if credit, ok := o.in.Credit[o.est.setKey(mask)]; ok {
			total = math.Max(total-credit, l.cost+r.cost)
		}
		if best == nil || total < best.cost {
			if best == nil {
				best = &memoEntry{}
			}
			best.card, best.cost = card, total
			// Smaller (build) side to the right by convention.
			left, right, bestPreds = l, r, preds
			if right.card > left.card {
				left, right = right, left
			}
		}
	}
	if best != nil {
		jp := algebra.NewJoin(left.plan, right.plan, bestPreds)
		jp.EstLeftCard, jp.EstRightCard = left.card, right.card
		best.plan = jp
	} else {
		// Only reachable when the query's join graph is disconnected,
		// which Validate rejects; fall back to an arbitrary cross pair so
		// the optimizer still terminates if reached via EstimateSetCard.
		sub := mask & (^mask + 1) // lowest set bit
		other := mask &^ sub
		l, r := o.best(sub), o.best(other)
		card := l.card * r.card
		jp := algebra.NewJoin(l.plan, r.plan, nil)
		jp.EstLeftCard, jp.EstRightCard = l.card, r.card
		best = &memoEntry{plan: jp, card: card, cost: l.cost + r.cost + o.joinCost(l.card, r.card, card)}
	}
	o.memo[mask] = best
	return best
}

// subsetConnected reports whether the relations in mask form a connected
// subgraph of the query's join graph.
func (o *optimizer) subsetConnected(mask uint) bool {
	if mask == 0 {
		return false
	}
	start := mask & (^mask + 1)
	seen := start
	frontier := start
	for frontier != 0 {
		var next uint
		for i := range o.adj {
			if frontier&(1<<uint(i)) != 0 {
				next |= o.adj[i] & mask &^ seen
			}
		}
		seen |= next
		frontier = next
	}
	return seen == mask
}

func trailingZeros(m uint) int {
	n := 0
	for m&1 == 0 {
		m >>= 1
		n++
	}
	return n
}

func (o *optimizer) connectedTo(a, b uint) bool {
	for i := range o.adj {
		if a&(1<<uint(i)) != 0 && o.adj[i]&b != 0 {
			return true
		}
	}
	return false
}

func (o *optimizer) predsBetween(a, b uint) []algebra.JoinPred {
	sa, sb := map[string]bool{}, map[string]bool{}
	for i, n := range o.est.names {
		if a&(1<<uint(i)) != 0 {
			sa[n] = true
		}
		if b&(1<<uint(i)) != 0 {
			sb[n] = true
		}
	}
	return o.in.Query.JoinsBetween(sa, sb)
}

// joinCost models a pipelined hash join: both inputs inserted, both
// probed, outputs constructed.
func (o *optimizer) joinCost(cl, cr, out float64) float64 {
	return (cl+cr)*(o.cost.HashInsert+o.cost.HashProbe) + out*o.cost.Move
}

// EstimateSetCard exposes subset cardinality estimation to the corrective
// monitor: it estimates |⋈ rels| under the same model the optimizer uses.
func EstimateSetCard(in Inputs, rels []string) float64 {
	o := &optimizer{in: in, est: newEstimator(in), cost: in.Cost, memo: map[uint]*memoEntry{}, preAggLeaf: -1}
	if o.cost == nil {
		o.cost = exec.DefaultCosts()
	}
	q := in.Query
	o.adj = make([]uint, len(q.Relations))
	for _, j := range q.Joins {
		li, ri := o.est.nameIdx[j.LeftRel], o.est.nameIdx[j.RightRel]
		o.adj[li] |= 1 << uint(ri)
		o.adj[ri] |= 1 << uint(li)
	}
	var mask uint
	for _, r := range rels {
		mask |= 1 << uint(o.est.nameIdx[r])
	}
	return o.best(mask).card
}
