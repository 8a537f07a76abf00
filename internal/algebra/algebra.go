// Package algebra defines the logical query representation: SPJA
// (select-project-join-aggregate) queries over named base relations, the
// logical plan trees the optimizer produces, canonical subexpression keys
// (so one observed selectivity is shared across all logically equivalent
// subexpressions regardless of physical algorithm, paper §4.2), and the
// algebraic underpinning of adaptive data partitioning: enumeration of the
// cross-phase combination vectors in
//
//	R1 ⋈ ... ⋈ Rm = ∪ (R1^c1 ⋈ ... ⋈ Rm^cm),  ci ∈ [n]
//
// whose non-uniform part is the stitch-up expression (§2.3).
package algebra

import (
	"fmt"
	"sort"
	"strings"

	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/types"
)

// RelRef names a base relation and its schema as exposed by the source
// catalog.
type RelRef struct {
	Name   string
	Schema *types.Schema
}

// JoinPred is one equijoin predicate between two base relations' columns.
type JoinPred struct {
	LeftRel, LeftCol   string
	RightRel, RightCol string
}

// String renders the predicate canonically (sides ordered by relation
// name) so that the multiplicative-join flags of §4.2 attach to one key.
func (p JoinPred) String() string {
	l := p.LeftRel + "." + p.LeftCol
	r := p.RightRel + "." + p.RightCol
	if l > r {
		l, r = r, l
	}
	return l + " = " + r
}

// AggKind enumerates the aggregate functions; all distribute over union
// (average via sum/count decomposition, §2.2 footnote 1), which is what
// legitimizes pre-aggregation and shared group-by operators across ADP
// phases.
type AggKind uint8

// Aggregate functions.
const (
	AggMin AggKind = iota
	AggMax
	AggSum
	AggCount
	AggAvg
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	default:
		return "avg"
	}
}

// AggSpec is one aggregate in the SELECT list. Arg is the aggregated
// expression (nil for count(*)); As is the output column name.
type AggSpec struct {
	Kind AggKind
	Arg  expr.Expr
	As   string
}

// String renders "sum(expr) AS as".
func (a AggSpec) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	return fmt.Sprintf("%s(%s) AS %s", a.Kind, arg, a.As)
}

// ResultKind is the output column kind of the aggregate given its input
// kind.
func (a AggSpec) ResultKind(in types.Kind) types.Kind {
	switch a.Kind {
	case AggCount:
		return types.KindInt
	case AggSum, AggAvg:
		return types.KindFloat
	default:
		return in
	}
}

// Query is a declarative SPJA query: the unit the optimizer plans and the
// ADP executor re-plans mid-stream.
type Query struct {
	Name string
	// Relations lists the base inputs.
	Relations []RelRef
	// Filters holds per-relation local selection predicates.
	Filters map[string]expr.Predicate
	// Joins is the equijoin graph.
	Joins []JoinPred
	// GroupBy lists grouping columns (qualified names). Empty with
	// non-empty Aggs means a single global group.
	GroupBy []string
	// Aggs lists aggregates; empty means a pure SPJ query.
	Aggs []AggSpec
	// Project lists output columns for SPJ queries (ignored when Aggs is
	// non-empty; aggregation defines the output).
	Project []string
}

// Relation returns the RelRef with the given name.
func (q *Query) Relation(name string) (RelRef, bool) {
	for _, r := range q.Relations {
		if r.Name == name {
			return r, true
		}
	}
	return RelRef{}, false
}

// RelationNames returns the base relation names in declaration order.
func (q *Query) RelationNames() []string {
	out := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		out[i] = r.Name
	}
	return out
}

// JoinsBetween returns the predicates connecting the relation sets a and
// b (both sides touched, one in each set).
func (q *Query) JoinsBetween(a, b map[string]bool) []JoinPred {
	var out []JoinPred
	for _, j := range q.Joins {
		la, lb := a[j.LeftRel], b[j.LeftRel]
		ra, rb := a[j.RightRel], b[j.RightRel]
		if (la && rb) || (lb && ra) {
			out = append(out, j)
		}
	}
	return out
}

// Validate checks the query is well-formed: join/filter/group columns
// resolve against the declared relation schemas, and the join graph is
// connected (the optimizer does not plan cross products).
func (q *Query) Validate() error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("algebra: query %q has no relations", q.Name)
	}
	names := map[string]*types.Schema{}
	for _, r := range q.Relations {
		if _, dup := names[r.Name]; dup {
			return fmt.Errorf("algebra: duplicate relation %q", r.Name)
		}
		names[r.Name] = r.Schema
	}
	for _, j := range q.Joins {
		ls, ok := names[j.LeftRel]
		if !ok {
			return fmt.Errorf("algebra: join references unknown relation %q", j.LeftRel)
		}
		rs, ok := names[j.RightRel]
		if !ok {
			return fmt.Errorf("algebra: join references unknown relation %q", j.RightRel)
		}
		if ls.IndexOf(j.LeftCol) < 0 {
			return fmt.Errorf("algebra: join column %s.%s not found", j.LeftRel, j.LeftCol)
		}
		if rs.IndexOf(j.RightCol) < 0 {
			return fmt.Errorf("algebra: join column %s.%s not found", j.RightRel, j.RightCol)
		}
	}
	for rel, p := range q.Filters {
		s, ok := names[rel]
		if !ok {
			return fmt.Errorf("algebra: filter on unknown relation %q", rel)
		}
		if _, err := p.BindPred(s); err != nil {
			return fmt.Errorf("algebra: filter on %q: %w", rel, err)
		}
	}
	if len(q.Relations) > 1 {
		if !q.connected() {
			return fmt.Errorf("algebra: join graph of %q is not connected", q.Name)
		}
	}
	full := q.fullSchema()
	for _, g := range q.GroupBy {
		if full.IndexOf(g) < 0 {
			return fmt.Errorf("algebra: group-by column %q not found", g)
		}
	}
	for _, a := range q.Aggs {
		if a.Arg != nil {
			if _, err := a.Arg.Bind(full); err != nil {
				return fmt.Errorf("algebra: aggregate %s: %w", a, err)
			}
		}
		if a.As == "" {
			return fmt.Errorf("algebra: aggregate %s missing AS name", a)
		}
	}
	for _, p := range q.Project {
		if full.IndexOf(p) < 0 {
			return fmt.Errorf("algebra: projected column %q not found", p)
		}
	}
	return nil
}

func (q *Query) fullSchema() *types.Schema {
	full := q.Relations[0].Schema
	for _, r := range q.Relations[1:] {
		full = full.Concat(r.Schema)
	}
	return full
}

func (q *Query) connected() bool {
	if len(q.Relations) == 0 {
		return true
	}
	adj := map[string][]string{}
	for _, j := range q.Joins {
		adj[j.LeftRel] = append(adj[j.LeftRel], j.RightRel)
		adj[j.RightRel] = append(adj[j.RightRel], j.LeftRel)
	}
	seen := map[string]bool{q.Relations[0].Name: true}
	stack := []string{q.Relations[0].Name}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nxt := range adj[cur] {
			if !seen[nxt] {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	return len(seen) == len(q.Relations)
}

// CanonKey returns the canonical key of a subexpression over the given
// base relations: the sorted relation set. Local selections are considered
// part of the relation's semantics, so logically equivalent join
// subexpressions map to the same key whatever the join order or algorithm
// — exactly the sharing rule of §4.2.
func CanonKey(rels []string) string {
	s := append([]string(nil), rels...)
	sort.Strings(s)
	return "⋈{" + strings.Join(s, ",") + "}"
}
