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
	// DefaultCard overrides the no-statistics default when > 0.
	DefaultCard float64
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

// estimator resolves cardinalities and selectivities for one optimization.
type estimator struct {
	in       Inputs
	q        *algebra.Query
	names    []string
	nameIdx  map[string]int
	baseCard map[string]float64 // post-filter effective cardinality
	rawCard  map[string]float64 // pre-filter cardinality
	keys     map[uint]string    // setKey, memoised per relation bitmask
}

func newEstimator(in Inputs) *estimator {
	e := &estimator{
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
func (e *estimator) totalCard(rel string) float64 {
	def := e.in.DefaultCard
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
func (e *estimator) filterSel(rel string) float64 {
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
	return predSel(p)
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

// distinctOf estimates the number of distinct values of col in rel. A
// column equi-joined to another relation is speculated to be drawn from
// the smaller domain (key/foreign-key reasoning); otherwise the column is
// assumed unique within the relation.
func (e *estimator) distinctOf(rel, col string) float64 {
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
func (e *estimator) joinSel(j algebra.JoinPred) float64 {
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
func (e *estimator) setKey(mask uint) string {
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
func (e *estimator) systemR(cardL, cardR float64, preds []algebra.JoinPred) float64 {
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
func (e *estimator) cardOf(mask uint, cardL, cardR float64, preds []algebra.JoinPred) float64 {
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
