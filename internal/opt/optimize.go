package opt

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/types"
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

// Planner is one query's optimizer. What does not depend on the
// statistics — the validated query, the relation subsets the enumeration
// visits with their splits, keys and predicates, scan and pre-aggregation
// nodes, and every join node's schema once built — is computed once, so
// that each Optimize or CostPlan call is arithmetic over the statistics it
// reads. It is not safe for concurrent use: a run owns its planner.
type Planner struct {
	q     *algebra.Query
	names []string
	idx   map[string]int
	scans []algebra.Plan
	// filterKeys are the relations' observation keys (FilterSelKey),
	// filterSyn their syntactic filter selectivities.
	filterKeys []string
	filterSyn  []float64
	pre        preAgg

	// preds are the query's join predicates, then any other a costed plan
	// carried; sets every connected relation subset, each after its
	// halves (setOf indexes them by mask), then any other a costed plan
	// joined; splits each subset's two-halves decompositions and between
	// each split's predicates. full is the all-relations subset.
	preds   []pred
	sets    []subset
	setOf   map[uint]int32
	splits  []split
	between []int32
	full    int32
	// joins holds each join node built, by split and input layouts: the
	// nodes of a winning tree are copies of these.
	joins map[joinKey]*algebra.JoinPlan

	// One call's statistics (load) and cost model.
	raw, base       []float64
	cm, defaultCost costs
	scratch         []int32
}

// pred is one join predicate with its registry key (JoinPred.String), its
// relations and, per side, the relations distinct reasons over; sel is this
// call's selectivity.
type pred struct {
	pred                    algebra.JoinPred
	key                     string
	left, right             int
	leftOthers, rightOthers []int
	sel                     float64
}

// subset is one relation subset: its splits are splits[lo:hi]. The rest is
// one call's: the observation and credit read for key, and the memo entry
// — card and cost of the cheapest plan, win its split (-1: a leaf).
type subset struct {
	mask       uint
	key        string
	lo, hi     int32
	observed   bool
	obsCard    float64
	credited   bool
	credit     float64
	card, cost float64
	win        int32
}

// split decomposes a subset into two connected halves, each a subset
// index, joined by the predicates between[lo:hi].
type split struct {
	sub, other int32
	lo, hi     int32
}

type joinKey struct {
	split       int32
	left, right *types.Schema
}

// preAgg is the pre-aggregation a query admits (§6): the leaf providing
// every aggregate argument (-1: none), its partial group key, the relations
// equi-joined to each key column, and the node per PreAggMode.
type preAgg struct {
	leaf   int
	cols   []string
	others [][]int
	node   [PreAggWindowed + 1]algebra.Plan
}

// NewPlanner validates q and builds its search space.
func NewPlanner(q *algebra.Query) (*Planner, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := len(q.Relations)
	if n > 20 {
		return nil, fmt.Errorf("opt: too many relations (%d)", n)
	}
	p := &Planner{
		q:           q,
		names:       make([]string, n),
		idx:         make(map[string]int, n),
		scans:       make([]algebra.Plan, n),
		filterKeys:  make([]string, n),
		filterSyn:   make([]float64, n),
		setOf:       map[uint]int32{},
		joins:       map[joinKey]*algebra.JoinPlan{},
		raw:         make([]float64, n),
		base:        make([]float64, n),
		defaultCost: costsOf(nil),
	}
	for i, r := range q.Relations {
		p.names[i], p.idx[r.Name] = r.Name, i
		p.scans[i] = algebra.NewScan(r)
		p.filterKeys[i], p.filterSyn[i] = FilterSelKey(r.Name), 1
		if f := q.Filters[r.Name]; f != nil {
			p.filterSyn[i] = predSel(f)
		}
	}
	adj := make([]uint, n)
	for _, j := range q.Joins {
		li, ri := p.idx[j.LeftRel], p.idx[j.RightRel]
		adj[li] |= 1 << uint(ri)
		adj[ri] |= 1 << uint(li)
		p.addPred(j)
	}
	p.planPreAgg()
	// Every connected subset, in ascending mask order so halves precede
	// wholes. Disconnected halves are skipped, so plans never contain
	// cross products — System-R discipline, which also keeps mid-query
	// re-planning from "discovering" free cross products over nearly
	// exhausted sources; Validate guarantees the whole is connected.
	for mask := uint(1); mask < 1<<uint(n); mask++ {
		if !connected(adj, mask) {
			continue
		}
		i := p.addSet(mask)
		if mask&(mask-1) == 0 {
			continue
		}
		// Each split once, in best's enumeration order: bushy, over
		// connected subgraph/complement pairs (§4.3).
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask &^ sub
			if sub > other || !connected(adj, sub) || !connected(adj, other) {
				continue
			}
			sp := split{sub: p.setOf[sub], other: p.setOf[other], lo: int32(len(p.between))}
			for k, j := range q.Joins {
				l, r := uint(1)<<uint(p.idx[j.LeftRel]), uint(1)<<uint(p.idx[j.RightRel])
				if sub&l != 0 && other&r != 0 || other&l != 0 && sub&r != 0 {
					p.between = append(p.between, int32(k))
				}
			}
			sp.hi = int32(len(p.between))
			p.splits = append(p.splits, sp)
		}
		p.sets[i].hi = int32(len(p.splits))
	}
	p.full = p.setOf[1<<uint(n)-1]
	return p, nil
}

// connected reports whether the relations in mask form a connected
// subgraph of the join graph adj.
func connected(adj []uint, mask uint) bool {
	seen := mask & -mask
	for frontier := seen; frontier != 0; {
		var next uint
		for i := range adj {
			if frontier&(1<<uint(i)) != 0 {
				next |= adj[i] & mask &^ seen
			}
		}
		seen |= next
		frontier = next
	}
	return seen == mask
}

// addSet registers mask as a subset with no splits yet.
func (p *Planner) addSet(mask uint) int32 {
	var rels []string
	for i, n := range p.names {
		if mask&(1<<uint(i)) != 0 {
			rels = append(rels, n)
		}
	}
	i := int32(len(p.sets))
	p.sets = append(p.sets, subset{mask: mask, key: algebra.CanonKey(rels), lo: int32(len(p.splits)), hi: int32(len(p.splits))})
	p.setOf[mask] = i
	return i
}

// addPred registers a join predicate.
func (p *Planner) addPred(j algebra.JoinPred) {
	rel := func(name string) int {
		if i, ok := p.idx[name]; ok {
			return i
		}
		return -1
	}
	p.preds = append(p.preds, pred{
		pred: j, key: j.String(), left: rel(j.LeftRel), right: rel(j.RightRel),
		leftOthers: p.othersOf(j.LeftRel, j.LeftCol), rightOthers: p.othersOf(j.RightRel, j.RightCol),
	})
}

// Optimize plans in.Query once, on a planner of its own. It is
// deterministic: ties break toward the earlier enumeration order.
func Optimize(in Inputs) (*Result, error) {
	p, err := NewPlanner(in.Query)
	if err != nil {
		return nil, err
	}
	return p.Optimize(in), nil
}

// Optimize plans the planner's query (in.Query is not read) under in's
// statistics.
func (p *Planner) Optimize(in Inputs) *Result {
	p.load(in)
	leaf, factor := p.preAggFor(in.PreAgg)
	p.fill(leaf, factor)
	best := &p.sets[p.full]
	res := &Result{
		GroupBy:   p.q.GroupBy,
		Aggs:      p.q.Aggs,
		Card:      best.card,
		Cost:      best.cost,
		JoinOrder: make([]string, 0, len(p.names)),
	}
	res.Root = p.tree(p.full, leaf, in.PreAgg, res)
	if leaf >= 0 {
		res.PreAggLeaf = p.names[leaf]
		res.PreAggGroupCols = p.pre.cols
	}
	// Final aggregation cost: one update per root output tuple.
	if len(p.q.Aggs) > 0 || len(p.q.GroupBy) > 0 {
		res.Cost += best.card * p.cm.AggUpdate
	}
	return res
}

// planPreAgg finds the leaf that can receive a pre-aggregation operator
// and its partial group key (§6). The eligible leaf is the one providing
// every aggregate argument column; its partial group key is the leaf's
// group-by columns plus every join column the query uses from it (partial
// groups "including any join attributes, even if these are not part of the
// final groups", §2.2). Whether a call inserts it is preAggFor's decision.
func (p *Planner) planPreAgg() {
	p.pre.leaf = -1
	q := p.q
	if len(q.Aggs) == 0 || len(q.Relations) < 2 {
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
	var cols []string
	add := func(c string) {
		if idx := rel.Schema.IndexOf(c); idx >= 0 && !slices.Contains(cols, rel.Schema.Cols[idx].Name) {
			cols = append(cols, rel.Schema.Cols[idx].Name)
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
	for _, c := range cols {
		// distinct reasons over the bare column name, as join preds
		// declare it.
		p.pre.others = append(p.pre.others, p.othersOf(rel.Name, c[strings.LastIndexByte(c, '.')+1:]))
	}
	p.pre.leaf, p.pre.cols = leaf, cols
	p.pre.node[PreAggTraditional] = algebra.NewPreAgg(p.scans[leaf], cols, q.Aggs, false)
	p.pre.node[PreAggWindowed] = algebra.NewPreAgg(p.scans[leaf], cols, q.Aggs, true)
}

// preAggFor decides one call's pre-aggregation under mode: the leaf (-1:
// none) and the reduction it is estimated to achieve, distinct(group key)
// / card(leaf).
func (p *Planner) preAggFor(mode PreAggMode) (leaf int, factor float64) {
	if mode == PreAggNone || p.pre.leaf < 0 {
		return -1, 0
	}
	card := math.Max(p.base[p.pre.leaf], 1)
	distinct := 1.0
	for _, others := range p.pre.others {
		distinct *= p.distinct(p.pre.leaf, others)
	}
	distinct = math.Min(distinct, card)
	factor = distinct / card
	switch mode {
	case PreAggTraditional:
		// Conservative: apply only when clearly beneficial.
		if factor > 0.8 {
			return -1, 0
		}
	case PreAggWindowed:
		// Always inserted; the operator self-regulates at runtime. For
		// costing assume the estimated factor, floored so a useless
		// pre-agg does not distort join planning.
		if factor > 1 {
			factor = 1
		}
	}
	return p.pre.leaf, factor
}

// fill re-costs every subset over the loaded statistics — the memo of
// top-down enumeration ("equivalent to dynamic programming but more
// flexible for sharing subexpressions between optimizer re-invocations",
// §4.3), filled halves first. A leaf is a scan (plus pre-aggregation when
// planned there); a whole takes its cheapest split, the earlier one on a
// tie.
//
//adp:hotpath gated by BenchmarkReoptimize (scripts/check_allocs.sh)
func (p *Planner) fill(leaf int, factor float64) {
	cm := p.cm
	for i := range p.sets[:p.full+1] {
		s := &p.sets[i]
		s.win = -1
		if s.lo == s.hi {
			r := bits.TrailingZeros(s.mask)
			card := p.base[r]
			cost := math.Max(p.raw[r], 1) * cm.Move // read+filter
			if r == leaf {
				cost += card * cm.AggUpdate
				card *= factor
			}
			s.card, s.cost = math.Max(card, 0), cost
			continue
		}
		for k := s.lo; k < s.hi; k++ {
			sp := &p.splits[k]
			l, r := &p.sets[sp.sub], &p.sets[sp.other]
			card := p.cardOf(s, l.card, r.card, p.between[sp.lo:sp.hi])
			total := l.cost + r.cost + p.joinCost(l.card, r.card, card)
			if s.credited {
				total = math.Max(total-s.credit, l.cost+r.cost)
			}
			if s.win < 0 || total < s.cost {
				s.card, s.cost, s.win = card, total, k
			}
		}
	}
}

// joinCost models a pipelined hash join: both inputs inserted, both
// probed, outputs constructed.
func (p *Planner) joinCost(cl, cr, out float64) float64 {
	return (cl+cr)*(p.cm.HashInsert+p.cm.HashProbe) + out*p.cm.Move
}

// tree builds subset i's cheapest plan, appending its relations to
// res.JoinOrder left to right. Its join nodes are fresh — a running plan's
// EstLeftCard/EstRightCard never change under it — copies sharing the
// cached schemas, relation lists and predicates.
func (p *Planner) tree(i int32, leaf int, mode PreAggMode, res *Result) algebra.Plan {
	s := &p.sets[i]
	if s.win < 0 {
		r := bits.TrailingZeros(s.mask)
		res.JoinOrder = append(res.JoinOrder, p.names[r])
		if r != leaf {
			return p.scans[r]
		}
		return p.pre.node[mode]
	}
	sp := &p.splits[s.win]
	l, r := sp.sub, sp.other
	if p.sets[r].card > p.sets[l].card {
		l, r = r, l // smaller (build) side to the right by convention
	}
	left, right := p.tree(l, leaf, mode, res), p.tree(r, leaf, mode, res)
	key := joinKey{s.win, left.Schema(), right.Schema()}
	proto, ok := p.joins[key]
	if !ok {
		preds := make([]algebra.JoinPred, 0, sp.hi-sp.lo)
		for _, k := range p.between[sp.lo:sp.hi] {
			preds = append(preds, p.preds[k].pred)
		}
		proto = algebra.NewJoin(left, right, preds)
		p.joins[key] = proto
	}
	j := new(algebra.JoinPlan)
	*j = *proto
	j.Left, j.Right = left, right
	j.EstLeftCard, j.EstRightCard = p.sets[l].card, p.sets[r].card
	return j
}
