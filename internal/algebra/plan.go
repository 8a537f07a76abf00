package algebra

import (
	"fmt"
	"strings"

	"github.com/tukwila/adp/internal/types"
)

// Plan is a logical plan tree node. The optimizer produces Plans; the
// execution layer lowers them onto physical operators.
type Plan interface {
	// Schema is the output layout of the node.
	Schema() *types.Schema
	// Rels returns the base relation names under the node (sorted).
	Rels() []string
	// Key returns the canonical subexpression key.
	Key() string
	// String pretty-prints the subtree.
	String() string
}

// ScanPlan reads a base relation (with its local filter applied at the
// source — selections push down unconditionally in this engine).
type ScanPlan struct {
	Rel    RelRef
	schema *types.Schema
}

// NewScan builds a scan node.
func NewScan(rel RelRef) *ScanPlan { return &ScanPlan{Rel: rel, schema: rel.Schema} }

// Schema implements Plan.
func (p *ScanPlan) Schema() *types.Schema { return p.schema }

// Rels implements Plan.
func (p *ScanPlan) Rels() []string { return []string{p.Rel.Name} }

// Key implements Plan.
func (p *ScanPlan) Key() string { return CanonKey(p.Rels()) }

func (p *ScanPlan) String() string { return p.Rel.Name }

// JoinPlan is an equijoin of two subplans on one or more column pairs.
type JoinPlan struct {
	Left, Right Plan
	// Preds are the base-table join predicates this node applies.
	Preds []JoinPred
	// Algorithm hints the physical join; empty means pipelined hash.
	Algorithm JoinAlgorithm
	// EstLeftCard/EstRightCard are the optimizer's input-cardinality
	// estimates; the executor sizes the join's fixed-bucket hash tables
	// from them (mis-estimates cause collisions at runtime, §4.4).
	EstLeftCard  float64
	EstRightCard float64
	schema       *types.Schema
	rels         []string
}

// JoinAlgorithm selects the physical join operator.
type JoinAlgorithm string

// Physical join algorithms; plan lowering rejects the complementary pair
// (core.ComplementaryJoin builds it by hand).
const (
	JoinPipelinedHash JoinAlgorithm = "pipelined-hash"
	JoinHybridHash    JoinAlgorithm = "hybrid-hash"
	JoinNestedLoops   JoinAlgorithm = "nested-loops"
	JoinComplementary JoinAlgorithm = "complementary" // merge+hash pair (§5)
)

// NewJoin builds a join node over the given predicates.
func NewJoin(left, right Plan, preds []JoinPred) *JoinPlan {
	j := &JoinPlan{Left: left, Right: right, Preds: preds, Algorithm: JoinPipelinedHash}
	j.schema = left.Schema().Concat(right.Schema())
	set := map[string]bool{}
	for _, r := range left.Rels() {
		set[r] = true
	}
	for _, r := range right.Rels() {
		set[r] = true
	}
	for r := range set {
		j.rels = append(j.rels, r)
	}
	sortStrings(j.rels)
	return j
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Schema implements Plan.
func (p *JoinPlan) Schema() *types.Schema { return p.schema }

// Rels implements Plan.
func (p *JoinPlan) Rels() []string { return p.rels }

// Key implements Plan.
func (p *JoinPlan) Key() string { return CanonKey(p.rels) }

func (p *JoinPlan) String() string {
	preds := make([]string, len(p.Preds))
	for i, pr := range p.Preds {
		preds[i] = pr.String()
	}
	return fmt.Sprintf("(%s ⋈[%s]{%s} %s)", p.Left, p.Algorithm, strings.Join(preds, ","), p.Right)
}

// JoinKeyCols resolves the join predicates to column positions in the
// left and right subplan schemas.
func (p *JoinPlan) JoinKeyCols() (left, right []int, err error) {
	ls, rs := p.Left.Schema(), p.Right.Schema()
	leftRels := map[string]bool{}
	for _, r := range p.Left.Rels() {
		leftRels[r] = true
	}
	for _, pr := range p.Preds {
		lRel, lCol, rRel, rCol := pr.LeftRel, pr.LeftCol, pr.RightRel, pr.RightCol
		if !leftRels[lRel] {
			lRel, lCol, rRel, rCol = rRel, rCol, lRel, lCol
		}
		li := ls.IndexOf(lRel + "." + lCol)
		ri := rs.IndexOf(rRel + "." + rCol)
		if li < 0 || ri < 0 {
			return nil, nil, fmt.Errorf("algebra: join key %s/%s not found in subplan schemas", pr, p)
		}
		left = append(left, li)
		right = append(right, ri)
	}
	return left, right, nil
}

// GroupPlan applies grouping and aggregation on top of a subplan. When
// Partial is true the node is a pre-aggregation: it emits partial states
// (including join columns in the group key) that a downstream final
// GroupPlan coalesces (§2.2, §6).
type GroupPlan struct {
	Input   Plan
	GroupBy []string
	Aggs    []AggSpec
	Partial bool
	// Windowed marks the adjustable-window pre-aggregation operator
	// rather than a traditional blocking pre-aggregate (§6).
	Windowed bool
	schema   *types.Schema
}

// NewGroup builds a final (blocking) aggregation node.
func NewGroup(input Plan, groupBy []string, aggs []AggSpec) *GroupPlan {
	g := &GroupPlan{Input: input, GroupBy: groupBy, Aggs: aggs}
	g.schema = GroupSchema(input.Schema(), groupBy, aggs, false)
	return g
}

// NewPreAgg builds a pre-aggregation node (partial groups).
func NewPreAgg(input Plan, groupBy []string, aggs []AggSpec, windowed bool) *GroupPlan {
	g := &GroupPlan{Input: input, GroupBy: groupBy, Aggs: aggs, Partial: true, Windowed: windowed}
	g.schema = GroupSchema(input.Schema(), groupBy, aggs, true)
	return g
}

// GroupSchema derives the output schema of a grouping node. Partial
// schemas expand avg into sum/count state columns so that pre-aggregated
// and pseudogrouped tuples are schema-compatible (§3.2).
func GroupSchema(in *types.Schema, groupBy []string, aggs []AggSpec, partial bool) *types.Schema {
	var cols []types.Column
	for _, g := range groupBy {
		idx := in.IndexOf(g)
		kind := types.KindString
		name := g
		if idx >= 0 {
			kind = in.Cols[idx].Kind
			name = in.Cols[idx].Name
		}
		cols = append(cols, types.Column{Name: name, Kind: kind})
	}
	for _, a := range aggs {
		argKind := types.KindFloat
		if a.Arg != nil {
			if refs := a.Arg.Columns(nil); len(refs) == 1 {
				if i := in.IndexOf(refs[0]); i >= 0 {
					argKind = in.Cols[i].Kind
				}
			}
		}
		if partial && a.Kind == AggAvg {
			cols = append(cols,
				types.Column{Name: a.As + "$sum", Kind: types.KindFloat},
				types.Column{Name: a.As + "$cnt", Kind: types.KindInt},
			)
			continue
		}
		cols = append(cols, types.Column{Name: a.As, Kind: a.ResultKind(argKind)})
	}
	return types.NewSchema(cols...)
}

// Schema implements Plan.
func (p *GroupPlan) Schema() *types.Schema { return p.schema }

// Rels implements Plan.
func (p *GroupPlan) Rels() []string { return p.Input.Rels() }

// Key implements Plan.
func (p *GroupPlan) Key() string {
	kind := "Γ"
	if p.Partial {
		kind = "γ"
	}
	return kind + "[" + strings.Join(p.GroupBy, ",") + "]" + p.Input.Key()
}

func (p *GroupPlan) String() string {
	kind := "Group"
	if p.Partial {
		if p.Windowed {
			kind = "WinPreAgg"
		} else {
			kind = "PreAgg"
		}
	}
	aggs := make([]string, len(p.Aggs))
	for i, a := range p.Aggs {
		aggs[i] = a.String()
	}
	return fmt.Sprintf("%s[%s](%s)(%s)", kind, strings.Join(p.GroupBy, ","), strings.Join(aggs, ","), p.Input)
}

// ProjectPlan trims/reorders output columns of SPJ queries.
type ProjectPlan struct {
	Input  Plan
	Cols   []string
	schema *types.Schema
}

// NewProject builds a projection node; unresolvable columns error.
func NewProject(input Plan, cols []string) (*ProjectPlan, error) {
	s, err := input.Schema().Project(cols)
	if err != nil {
		return nil, err
	}
	return &ProjectPlan{Input: input, Cols: cols, schema: s}, nil
}

// Schema implements Plan.
func (p *ProjectPlan) Schema() *types.Schema { return p.schema }

// Rels implements Plan.
func (p *ProjectPlan) Rels() []string { return p.Input.Rels() }

// Key implements Plan.
func (p *ProjectPlan) Key() string { return "π" + p.Input.Key() }

func (p *ProjectPlan) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Cols, ","), p.Input)
}

// CollectJoins returns the join nodes of a plan in execution (bottom-up,
// left-deep-first) order.
func CollectJoins(p Plan) []*JoinPlan {
	var out []*JoinPlan
	var walk func(Plan)
	walk = func(n Plan) {
		switch v := n.(type) {
		case *JoinPlan:
			walk(v.Left)
			walk(v.Right)
			out = append(out, v)
		case *GroupPlan:
			walk(v.Input)
		case *ProjectPlan:
			walk(v.Input)
		}
	}
	walk(p)
	return out
}

// Combinations enumerates the cross-phase combination vectors of the ADP
// identity: all c ∈ [n]^m with not(c1 = c2 = ... = cm), i.e. the stitch-up
// part of §2.3. fn returns false to stop early. The uniform vectors are
// exactly the per-phase plans already executed, so they are excluded.
func Combinations(m, n int, fn func(c []int) bool) {
	if m <= 0 || n <= 0 {
		return
	}
	c := make([]int, m)
	for {
		uniform := true
		for i := 1; i < m; i++ {
			if c[i] != c[0] {
				uniform = false
				break
			}
		}
		if !uniform {
			if !fn(c) {
				return
			}
		}
		// Increment odometer.
		i := m - 1
		for ; i >= 0; i-- {
			c[i]++
			if c[i] < n {
				break
			}
			c[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// CombinationCount returns n^m - n, the number of stitch-up combinations
// (§3.4: "for a join of m relations in n plans, there are n^m − n
// combinations of subsets that need to be stitched together").
func CombinationCount(m, n int) int {
	c := 1
	for i := 0; i < m; i++ {
		c *= n
	}
	return c - n
}
