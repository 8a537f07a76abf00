// Package opt implements the Tukwila query optimizer / re-optimizer
// (paper §4.2–4.3): a System-R-flavoured cost-based optimizer using
// top-down enumeration with memoization over bushy join trees, extended
// with the paper's mid-query re-estimation machinery — shared logical
// selectivities observed at runtime, the parent-expression key/foreign-key
// speculation heuristic, conservative multiplicative-join flagging, a
// default cardinality of 20 000 tuples when no statistics exist, and
// pre-aggregation push-down in the style of Chaudhuri & Shim.
package opt

import (
	"math"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/stats"
)

// DefaultCard is the paper's no-statistics assumption: "a default
// assumption of 20,000 tuples for every relation, since that is roughly
// the median number of tuples in the TPC datasets" (§4.4).
const DefaultCard = 20000

// FilterSelKey returns the observation key under which the executor
// records a base relation's local-filter selectivity.
func FilterSelKey(rel string) string { return "σ{" + rel + "}" }

// Inputs configures one (re-)optimization.
type Inputs struct {
	Query *algebra.Query
	// Known maps relation name -> cardinality supplied by the catalog
	// (the "given cardinalities" experimental configuration). Nil/missing
	// entries fall back to observations, then DefaultCard.
	Known map[string]float64
	// Obs carries runtime observations (nil for static optimization).
	Obs *stats.Registry
	// Consumed maps relation -> tuples already routed to earlier phases;
	// re-planning costs a plan over the remaining data (§4.1).
	Consumed map[string]float64
	// Credit maps canonical expression keys -> cost units already
	// performed, discounted from plans that reuse the subexpression
	// ("the optimizer factors in the amount of computation that has
	// already been performed", §4.3).
	Credit map[string]float64
	// Cost is the execution cost model (nil = exec.DefaultCosts).
	Cost *exec.CostModel
	// PreAgg selects pre-aggregation handling.
	PreAgg PreAggMode
}

// costs is an execution cost model in the optimizer's unit, seconds: each
// exec.CostModel field's nanoseconds over 1e9, which reproduces bit for bit
// the seconds literals the model was first written in.
type costs struct{ HashInsert, HashProbe, Move, AggUpdate float64 }

// costsOf reads cm (nil: exec.DefaultCosts) in seconds.
func costsOf(cm *exec.CostModel) costs {
	if cm == nil {
		cm = exec.DefaultCosts()
	}
	return costs{
		HashInsert: exec.Seconds(cm.HashInsert),
		HashProbe:  exec.Seconds(cm.HashProbe),
		Move:       exec.Seconds(cm.Move),
		AggUpdate:  exec.Seconds(cm.AggUpdate),
	}
}

// PreAggMode selects how the optimizer treats pre-aggregation points.
type PreAggMode uint8

// Pre-aggregation modes.
const (
	// PreAggNone performs only the final aggregation.
	PreAggNone PreAggMode = iota
	// PreAggTraditional inserts a blocking pre-aggregate where estimated
	// beneficial (conservative, as commercial systems do, §6).
	PreAggTraditional
	// PreAggWindowed systematically inserts the adjustable-window
	// pre-aggregation operator at every possible pre-aggregation point
	// ("it can be systematically inserted ... at every possible
	// pre-aggregation point", §6).
	PreAggWindowed
)

// TotalCard resolves the full cardinality of a base relation, for the
// optimizer and the corrective monitor alike. An exact count from a fully
// consumed source beats everything (source-advertised cardinalities are
// frequently stale in data integration); then advertised values; then the
// foresight-adjusted running count; then the default.
func TotalCard(known map[string]float64, obs *stats.Registry, rel string) float64 {
	var read float64
	var observed, complete bool
	if obs != nil {
		if sc, ok := obs.Source(rel); ok {
			observed, complete, read = true, sc.Complete, sc.Read
		}
	}
	if complete {
		return read // exact count beats stale advertised cardinalities
	}
	if c, ok := known[rel]; ok && c > 0 {
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
		return math.Max(2*read, DefaultCard)
	}
	return DefaultCard
}

// load reads one call's statistics into the planner's arrays, each value
// once: per relation its remaining (pre-filter) and post-filter
// cardinality, per predicate its join selectivity, per subset its observed
// cardinality and credit.
func (p *Planner) load(in Inputs) {
	p.cm = p.defaultCost
	if in.Cost != nil {
		p.cm = costsOf(in.Cost)
	}
	for i, name := range p.names {
		raw := TotalCard(in.Known, in.Obs, name)
		if c := in.Consumed[name]; c > 0 {
			raw = math.Max(raw-c, 0)
		}
		p.raw[i] = raw
		p.base[i] = raw * p.filterSel(in.Obs, i)
	}
	for k := range p.preds {
		p.loadPred(k, in.Obs)
	}
	for i := range p.sets {
		p.loadSet(int32(i), in)
	}
}

// filterSel returns relation i's local selection selectivity: the observed
// ratio when the executor has recorded one, else the System-R style
// syntactic estimate.
func (p *Planner) filterSel(obs *stats.Registry, i int) float64 {
	if obs != nil {
		if o, ok := obs.Expr(p.filterKeys[i]); ok {
			if s := o.Selectivity(); s >= 0 {
				return s
			}
		}
	}
	return p.filterSyn[i]
}

// predSel is the System-R syntactic selectivity heuristic: 0.1 per
// equality, 0.3 per inequality/range, conjunction multiplies, disjunction
// adds (capped).
func predSel(p expr.Predicate) float64 {
	switch v := p.(type) {
	case expr.Cmp:
		if v.Op == expr.OpEq {
			return 0.1
		}
		return 0.3
	case expr.And:
		s := 1.0
		for _, sub := range v {
			s *= predSel(sub)
		}
		return s
	case expr.Or:
		s := 0.0
		for _, sub := range v {
			s += predSel(sub)
		}
		return math.Min(s, 1)
	case expr.Not:
		return math.Min(1, math.Max(0.1, 1-predSel(v.P)))
	default:
		return 0.5
	}
}

// othersOf lists, in join-graph order, the relations equi-joined to column
// col of rel: what distinct reasons about.
func (p *Planner) othersOf(rel, col string) []int {
	var others []int
	for _, j := range p.q.Joins {
		switch {
		case j.LeftRel == rel && j.LeftCol == col:
			others = append(others, p.idx[j.RightRel])
		case j.RightRel == rel && j.RightCol == col:
			others = append(others, p.idx[j.LeftRel])
		}
	}
	return others
}

// distinct estimates the number of distinct values of a column of relation
// rel (-1: not the query's) equi-joined to others. Such a column is
// speculated to be drawn from the smaller domain (key/foreign-key
// reasoning); otherwise the column is assumed unique within the relation.
func (p *Planner) distinct(rel int, others []int) float64 {
	d := 1.0
	if rel >= 0 {
		d = math.Max(p.base[rel], 1)
	}
	for _, o := range others {
		if oc := p.raw[o]; oc > 0 && oc < d {
			d = oc
		}
	}
	return math.Max(d, 1)
}

// loadPred estimates predicate k's selectivity as
// 1/max(distinct(left), distinct(right)), raised by any multiplicative flag
// recorded at runtime (§4.2's conservative heuristic).
func (p *Planner) loadPred(k int, obs *stats.Registry) {
	pr := &p.preds[k]
	dl := p.distinct(pr.left, pr.leftOthers)
	dr := p.distinct(pr.right, pr.rightOthers)
	pr.sel = 1 / math.Max(dl, dr)
	if obs != nil {
		if f, ok := obs.Multiplicative(pr.key); ok && f > 1 {
			pr.sel *= f
		}
	}
}

// loadSet reads subset i's runtime observation — its selectivity, defined
// as out / product(inputs) and shared across physical forms, times this
// call's input product — and its credit.
func (p *Planner) loadSet(i int32, in Inputs) {
	s := &p.sets[i]
	s.observed = false
	if in.Obs != nil {
		if o, ok := in.Obs.Expr(s.key); ok {
			if sel := o.Selectivity(); sel >= 0 {
				prod := 1.0
				for r := range p.names {
					if s.mask&(1<<uint(r)) != 0 {
						prod *= math.Max(p.base[r], 1)
					}
				}
				s.obsCard, s.observed = sel*prod, true
			}
		}
	}
	s.credit, s.credited = in.Credit[s.key]
}

// cardOf estimates the cardinality of subset s from a decomposition into
// halves of cardL and cardR joined by preds: (a) the runtime observation for
// the logically equivalent subexpression when one exists, else the average
// of (b) the System-R estimate and (c) the parent-expression key/foreign-key
// speculation of §4.2.
func (p *Planner) cardOf(s *subset, cardL, cardR float64, preds []int32) float64 {
	if s.observed {
		return s.obsCard
	}
	sysR := cardL * cardR
	if len(preds) == 0 {
		return sysR // cross product
	}
	for _, k := range preds {
		sysR *= p.preds[k].sel
	}
	// (c) If this join looks like a key/foreign-key join, its cardinality
	// matches the foreign-key side's input cardinality; the FK side is
	// approximated as the larger input. Averaging the heuristics damps
	// individual errors (§4.2: "averaging them will tend to reduce the
	// effects of a single heuristic making a poor decision").
	return (sysR + math.Max(cardL, cardR)) / 2
}
