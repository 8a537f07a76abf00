package opt

// The optimizer as it was before the Planner (commit 79df4af):
// optimize.go, estimate.go and costplan.go verbatim but for renamed
// identifiers, one line — Inputs.DefaultCard, a field nothing set, is
// gone, so totalCard reads it as its zero value — and the cost model, read
// in seconds through costsOf now that exec.CostModel counts nanoseconds. FuzzReoptimize holds the
// Planner to it. Result, Inputs, PreAggMode, DefaultCard and FilterSelKey
// are the package's own, unchanged.

import (
	"fmt"
	"math"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
)

// --- optimize.go ---
// parentMemoEntry caches the best plan for a relation subset.
type parentMemoEntry struct {
	plan algebra.Plan
	card float64
	cost float64
}

type parentOptimizer struct {
	in   Inputs
	est  *parentEstimator
	cost costs
	memo map[uint]*parentMemoEntry
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
func parentOptimize(in Inputs) (*Result, error) {
	if err := in.Query.Validate(); err != nil {
		return nil, err
	}
	if len(in.Query.Relations) > 20 {
		return nil, fmt.Errorf("opt: too many relations (%d)", len(in.Query.Relations))
	}
	o := &parentOptimizer{
		in:         in,
		est:        parentNewEstimator(in),
		cost:       costsOf(in.Cost),
		memo:       map[uint]*parentMemoEntry{},
		preAggLeaf: -1,
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
	res.JoinOrder = parentLeafOrder(best.plan)
	// Final aggregation cost: one update per root output tuple.
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		res.Cost += best.card * o.cost.AggUpdate
	}
	return res, nil
}

func parentLeafOrder(p algebra.Plan) []string {
	switch v := p.(type) {
	case *algebra.ScanPlan:
		return []string{v.Rel.Name}
	case *algebra.JoinPlan:
		return append(parentLeafOrder(v.Left), parentLeafOrder(v.Right)...)
	case *algebra.GroupPlan:
		return parentLeafOrder(v.Input)
	case *algebra.ProjectPlan:
		return parentLeafOrder(v.Input)
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
func (o *parentOptimizer) planPreAgg() {
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
		if dot := parentLastDot(short); dot >= 0 {
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

func parentLastDot(s string) int {
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
func (o *parentOptimizer) best(mask uint) *parentMemoEntry {
	if e, ok := o.memo[mask]; ok {
		return e
	}
	q := o.in.Query
	// Singleton: scan leaf (plus pre-aggregation if planned here).
	if mask&(mask-1) == 0 {
		idx := parentTrailingZeros(mask)
		rel := q.Relations[idx]
		var plan algebra.Plan = algebra.NewScan(rel)
		card := o.est.baseCard[rel.Name]
		cost := math.Max(o.est.rawCard[rel.Name], 1) * o.cost.Move // read+filter
		if idx == o.preAggLeaf {
			plan = algebra.NewPreAgg(plan, o.preAggGroupCols, q.Aggs, o.in.PreAgg == PreAggWindowed)
			cost += card * o.cost.AggUpdate
			card *= o.preAggFactor
		}
		e := &parentMemoEntry{plan: plan, card: math.Max(card, 0), cost: cost}
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
		best      *parentMemoEntry
		left      *parentMemoEntry // the winning split, larger input first
		right     *parentMemoEntry
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
				best = &parentMemoEntry{}
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
		best = &parentMemoEntry{plan: jp, card: card, cost: l.cost + r.cost + o.joinCost(l.card, r.card, card)}
	}
	o.memo[mask] = best
	return best
}

// subsetConnected reports whether the relations in mask form a connected
// subgraph of the query's join graph.
func (o *parentOptimizer) subsetConnected(mask uint) bool {
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

func parentTrailingZeros(m uint) int {
	n := 0
	for m&1 == 0 {
		m >>= 1
		n++
	}
	return n
}

func (o *parentOptimizer) connectedTo(a, b uint) bool {
	for i := range o.adj {
		if a&(1<<uint(i)) != 0 && o.adj[i]&b != 0 {
			return true
		}
	}
	return false
}

func (o *parentOptimizer) predsBetween(a, b uint) []algebra.JoinPred {
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
func (o *parentOptimizer) joinCost(cl, cr, out float64) float64 {
	return (cl+cr)*(o.cost.HashInsert+o.cost.HashProbe) + out*o.cost.Move
}

// EstimateSetCard exposes subset cardinality estimation to the corrective
// monitor: it estimates |⋈ rels| under the same model the optimizer uses.
func parentEstimateSetCard(in Inputs, rels []string) float64 {
	o := &parentOptimizer{in: in, est: parentNewEstimator(in), cost: costsOf(in.Cost), memo: map[uint]*parentMemoEntry{}, preAggLeaf: -1}
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

// --- estimate.go ---
// estimator resolves cardinalities and selectivities for one optimization.
type parentEstimator struct {
	in       Inputs
	q        *algebra.Query
	names    []string
	nameIdx  map[string]int
	baseCard map[string]float64 // post-filter effective cardinality
	rawCard  map[string]float64 // pre-filter cardinality
	keys     map[uint]string    // setKey, memoised per relation bitmask
}

func parentNewEstimator(in Inputs) *parentEstimator {
	e := &parentEstimator{
		in:       in,
		q:        in.Query,
		nameIdx:  map[string]int{},
		baseCard: map[string]float64{},
		rawCard:  map[string]float64{},
		keys:     map[uint]string{},
	}
	for i, r := range in.Query.Relations {
		e.names = append(e.names, r.Name)
		e.nameIdx[r.Name] = i
	}
	for _, r := range in.Query.Relations {
		raw := e.totalCard(r.Name)
		if c := in.Consumed[r.Name]; c > 0 {
			raw = math.Max(raw-c, 0)
		}
		e.rawCard[r.Name] = raw
		e.baseCard[r.Name] = raw * e.filterSel(r.Name)
	}
	return e
}

// totalCard resolves the full cardinality of a base relation. An exact
// count from a fully consumed source beats everything (source-advertised
// cardinalities are frequently stale in data integration); then advertised
// values; then the foresight-adjusted running count; then the default.
func (e *parentEstimator) totalCard(rel string) float64 {
	var def float64 // was e.in.DefaultCard
	if def <= 0 {
		def = DefaultCard
	}
	var read float64
	var observed, complete bool
	if e.in.Obs != nil {
		if sc, ok := e.in.Obs.Source(rel); ok {
			observed, complete, read = true, sc.Complete, sc.Read
		}
	}
	if complete {
		return read // exact count beats stale advertised cardinalities
	}
	if c, ok := e.in.Known[rel]; ok && c > 0 {
		// Trust the advertisement until observation falsifies it.
		if read <= c {
			return c
		}
	}
	if observed {
		// Foresight heuristic for still-flowing sources: assume at least
		// as much data again remains. Without it, mid-query re-planning
		// would price the remainder of every unknown source at zero and
		// switching could never pay off.
		return math.Max(2*read, def)
	}
	return def
}

// filterSel returns the local selection selectivity for rel: the observed
// ratio when the executor has recorded one, else a System-R style
// syntactic estimate.
func (e *parentEstimator) filterSel(rel string) float64 {
	if e.in.Obs != nil {
		if o, ok := e.in.Obs.Expr(FilterSelKey(rel)); ok {
			if s := o.Selectivity(); s >= 0 {
				return s
			}
		}
	}
	p, ok := e.q.Filters[rel]
	if !ok || p == nil {
		return 1
	}
	return parentPredSel(p)
}

// predSel is the System-R syntactic selectivity heuristic: 0.1 per
// equality, 0.3 per inequality/range, conjunction multiplies, disjunction
// adds (capped).
func parentPredSel(p expr.Predicate) float64 {
	switch v := p.(type) {
	case expr.Cmp:
		if v.Op == expr.OpEq {
			return 0.1
		}
		return 0.3
	case expr.And:
		s := 1.0
		for _, sub := range v {
			s *= parentPredSel(sub)
		}
		return s
	case expr.Or:
		s := 0.0
		for _, sub := range v {
			s += parentPredSel(sub)
		}
		return math.Min(s, 1)
	case expr.Not:
		return math.Min(1, math.Max(0.1, 1-parentPredSel(v.P)))
	default:
		return 0.5
	}
}

// distinctOf estimates the number of distinct values of col in rel. A
// column equi-joined to another relation is speculated to be drawn from
// the smaller domain (key/foreign-key reasoning); otherwise the column is
// assumed unique within the relation.
func (e *parentEstimator) distinctOf(rel, col string) float64 {
	d := math.Max(e.baseCard[rel], 1)
	for _, j := range e.q.Joins {
		var other string
		switch {
		case j.LeftRel == rel && j.LeftCol == col:
			other = j.RightRel
		case j.RightRel == rel && j.RightCol == col:
			other = j.LeftRel
		default:
			continue
		}
		if oc := e.rawCard[other]; oc > 0 && oc < d {
			d = oc
		}
	}
	return math.Max(d, 1)
}

// joinSel estimates one equijoin predicate's selectivity as
// 1/max(distinct(left), distinct(right)), raised by any multiplicative
// flag recorded at runtime (§4.2's conservative heuristic).
func (e *parentEstimator) joinSel(j algebra.JoinPred) float64 {
	dl := e.distinctOf(j.LeftRel, j.LeftCol)
	dr := e.distinctOf(j.RightRel, j.RightCol)
	sel := 1 / math.Max(dl, dr)
	if e.in.Obs != nil {
		if f, ok := e.in.Obs.Multiplicative(j.String()); ok && f > 1 {
			sel *= f
		}
	}
	return sel
}

// setKey returns the canonical key of a relation bitmask, built once per
// mask: every candidate split of a subset asks for the same one.
func (e *parentEstimator) setKey(mask uint) string {
	if key, ok := e.keys[mask]; ok {
		return key
	}
	var rels []string
	for i, n := range e.names {
		if mask&(1<<uint(i)) != 0 {
			rels = append(rels, n)
		}
	}
	key := algebra.CanonKey(rels)
	e.keys[mask] = key
	return key
}

// systemR computes the textbook estimate for joining two subsets.
func (e *parentEstimator) systemR(cardL, cardR float64, preds []algebra.JoinPred) float64 {
	est := cardL * cardR
	if len(preds) == 0 {
		return est // cross product
	}
	for _, p := range preds {
		est *= e.joinSel(p)
	}
	return est
}

// cardOf estimates the cardinality of the relation subset mask, combining
// (a) a runtime observation for the logically equivalent subexpression
// when one exists, else averaging (b) the System-R estimate with (c) the
// parent-expression key/foreign-key speculation of §4.2. children carries
// the chosen decomposition's cardinalities for (b).
func (e *parentEstimator) cardOf(mask uint, cardL, cardR float64, preds []algebra.JoinPred) float64 {
	// (a) Observed selectivity for this subexpression: selectivity is
	// defined as out / product(inputs), shared across physical forms.
	if e.in.Obs != nil {
		if o, ok := e.in.Obs.Expr(e.setKey(mask)); ok {
			if s := o.Selectivity(); s >= 0 {
				prod := 1.0
				for i, n := range e.names {
					if mask&(1<<uint(i)) != 0 {
						prod *= math.Max(e.baseCard[n], 1)
					}
				}
				return s * prod
			}
		}
	}
	sysR := e.systemR(cardL, cardR, preds)
	// (c) Parent-expression speculation: if this join looks like a
	// key/foreign-key join, its cardinality matches the foreign-key
	// side's input cardinality. We approximate the FK side as the larger
	// input.
	spec := math.Max(cardL, cardR)
	if len(preds) == 0 {
		return sysR
	}
	// Average the heuristics to damp individual errors (§4.2: "averaging
	// them will tend to reduce the effects of a single heuristic making a
	// poor decision").
	return (sysR + spec) / 2
}

// --- costplan.go ---
// CostPlan estimates the cost and output cardinality of a GIVEN plan tree
// under the same model Optimize uses. The corrective monitor uses it to
// price the currently executing plan over the remaining source data and
// compare it against the re-optimizer's best alternative (§4.1: interrupt
// only when a substantially better plan exists).
func parentCostPlan(in Inputs, root algebra.Plan) (cost, card float64) {
	e := parentNewEstimator(in)
	cm := costsOf(in.Cost)
	var walk func(p algebra.Plan) (cost, card float64, mask uint)
	walk = func(p algebra.Plan) (float64, float64, uint) {
		switch v := p.(type) {
		case *algebra.ScanPlan:
			name := v.Rel.Name
			idx, ok := e.nameIdx[name]
			var mask uint
			if ok {
				mask = 1 << uint(idx)
			}
			return math.Max(e.rawCard[name], 1) * cm.Move, e.baseCard[name], mask
		case *algebra.JoinPlan:
			lc, lcard, lm := walk(v.Left)
			rc, rcard, rm := walk(v.Right)
			mask := lm | rm
			card := e.cardOf(mask, lcard, rcard, v.Preds)
			jc := (lcard+rcard)*(cm.HashInsert+cm.HashProbe) + card*cm.Move
			total := lc + rc + jc
			if credit, ok := in.Credit[e.setKey(mask)]; ok {
				total = math.Max(total-credit, lc+rc)
			}
			return total, card, mask
		case *algebra.GroupPlan:
			c, card, mask := walk(v.Input)
			c += card * cm.AggUpdate
			if v.Partial {
				// Partial groups reduce downstream cardinality by the
				// same factor the optimizer estimated; without a better
				// signal assume no reduction (conservative).
				return c, card, mask
			}
			return c, card, mask
		case *algebra.ProjectPlan:
			c, card, mask := walk(v.Input)
			return c + card*cm.Move, card, mask
		default:
			return 0, 0, 0
		}
	}
	cost, card, _ = walk(root)
	return cost, card
}
