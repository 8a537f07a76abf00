package core

import (
	"fmt"
	"strings"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// matRelName is the synthetic relation name of a materialization point.
const matRelName = "stage1"

// runPlanPartition implements the plan-partitioning baseline of Figure 2:
// with no statistical guidance, Tukwila "inserts one after 3 joins have
// been performed" — the first stage's result is materialized, its exact
// cardinality observed, and the remainder of the query re-optimized over
// it (§4.4). Queries with at most 3 joins degenerate to static execution.
func (ex *executor) runPlanPartition() error {
	initial, err := opt.Optimize(opt.Inputs{
		Query: ex.q, Known: ex.o.Known, Cost: ex.ctx.Cost, PreAgg: ex.o.PreAgg,
	})
	if err != nil {
		return err
	}
	ex.rep.OptCalls++
	joins := algebra.CollectJoins(initial.Root)
	if len(joins) <= ex.o.MaterializeAfterJoins {
		// Degenerates to static execution: no renames, original schema.
		ex.announceSchema(ex.outSchema)
		_, _, err := ex.runPhase(initial.Root)
		return err
	}
	// Breakpoint: the subtree rooted at the k-th join in bottom-up order.
	breakJoin := joins[ex.o.MaterializeAfterJoins-1]

	// --- Stage 1: execute the subtree and materialize its output. ------
	matSchema, rename, err := renamedSchema(breakJoin.Schema())
	if err != nil {
		return err
	}
	matRows := state.NewList(matSchema, ex.ctx.Spare)
	// Tuples materialize in the subtree's own layout; matSchema only
	// renames columns, so values pass through unchanged.
	tree, err := Lower(ex.ctx, breakJoin, &listSink{ctx: ex.ctx, dst: matRows})
	if err != nil {
		return err
	}
	covered := map[string]bool{}
	for _, r := range breakJoin.Rels() {
		covered[r] = true
	}
	var rels1 []algebra.RelRef
	for _, rel := range ex.q.Relations {
		if covered[rel.Name] {
			rels1 = append(rels1, rel)
		}
	}
	// Filters push down, nothing is monitored or polled.
	leaves, err := entryLeaves(tree, rels1, ex.q.Filters, ex.cat.Providers)
	if err != nil {
		return err
	}
	stage1 := ex.serialPhase(breakJoin, tree, leaves)
	stage1.plan = breakJoin.String() + " → materialize"
	if _, err := ex.drive(stage1, nil); err != nil {
		return err
	}

	// --- Stage 2: re-optimize the remainder over the materialization. --
	q2, err := rewriteQuery(ex.q, covered, matSchema, rename)
	if err != nil {
		return err
	}
	known2 := map[string]float64{matRelName: float64(matRows.Len())}
	//adp:unordered-ok map→map copy; the optimizer reads Known by key
	for k, v := range ex.o.Known {
		if !covered[k] {
			known2[k] = v
		}
	}
	res2, err := opt.Optimize(opt.Inputs{Query: q2, Known: known2, Cost: ex.ctx.Cost, PreAgg: ex.o.PreAgg})
	if err != nil {
		return err
	}
	ex.rep.OptCalls++
	// Stage 2 ends in its own final aggregation or projection (schemas were
	// renamed, so the stage-2 full schema differs from the original), which
	// replaces the run's unused original from here on.
	if err := ex.bindOutput(q2); err != nil {
		return err
	}
	ex.announceSchema(ex.outSchema)
	sink, err := ex.rootSinkFor(res2.Root.Schema(), ex.agg, ex.fullSchema, ex.outSchema, planHasPreAgg(res2.Root), false)
	if err != nil {
		return err
	}
	tree2, err := Lower(ex.ctx, res2.Root, sink)
	if err != nil {
		return err
	}
	// Leaves: the materialized relation plus the remaining base sources.
	providers2 := map[string]source.Provider{
		matRelName: source.NewProvider(source.NewRelation(matRelName, matSchema, matRows.Rows()), nil),
	}
	for _, rel := range q2.Relations[1:] {
		providers2[rel.Name] = ex.cat.Providers[rel.Name]
	}
	leaves2, err := entryLeaves(tree2, q2.Relations, q2.Filters, providers2)
	if err != nil {
		return err
	}
	// Poll only to flush streamed SPJ rows; plan partitioning never
	// switches plans mid-stage. Polling changes batch boundaries but not
	// delivery order, counters, or the clock (the batching equivalence
	// contract), so reports stay identical to the unpolled baseline.
	_, err = ex.drive(ex.serialPhase(res2.Root, tree2, leaves2), func() bool { return false })
	return err
}

// renamedSchema renames a subexpression's columns into the
// materialization's namespace: "orders.o_orderkey" -> "stage1.o_orderkey"
// (falling back to "stage1.orders_o_orderkey" on suffix collisions) and
// returns the rename map from original qualified names.
func renamedSchema(s *types.Schema) (*types.Schema, map[string]string, error) {
	rename := map[string]string{}
	used := map[string]bool{}
	cols := make([]types.Column, len(s.Cols))
	for i, c := range s.Cols {
		suffix := c.Name
		if dot := strings.LastIndexByte(suffix, '.'); dot >= 0 {
			suffix = suffix[dot+1:]
		}
		name := matRelName + "." + suffix
		if used[name] {
			name = matRelName + "." + strings.ReplaceAll(c.Name, ".", "_")
			if used[name] {
				return nil, nil, fmt.Errorf("core: cannot uniquely rename %q", c.Name)
			}
		}
		used[name] = true
		rename[c.Name] = name
		cols[i] = types.Column{Name: name, Kind: c.Kind}
	}
	return types.NewSchema(cols...), rename, nil
}

// rewriteQuery builds the stage-2 query: covered relations collapse into
// the materialized relation; joins, group-by columns, aggregate arguments,
// and projections referencing them are rewritten.
func rewriteQuery(q *algebra.Query, covered map[string]bool, matSchema *types.Schema, rename map[string]string) (*algebra.Query, error) {
	q2 := &algebra.Query{
		Name:      q.Name + "/stage2",
		Relations: []algebra.RelRef{{Name: matRelName, Schema: matSchema}},
		Filters:   map[string]expr.Predicate{},
	}
	for _, r := range q.Relations {
		if !covered[r.Name] {
			q2.Relations = append(q2.Relations, r)
		}
	}
	for rel, p := range q.Filters {
		if !covered[rel] {
			q2.Filters[rel] = p
		}
		// Covered filters were applied during stage 1.
	}
	for _, j := range q.Joins {
		lc, rc := covered[j.LeftRel], covered[j.RightRel]
		switch {
		case lc && rc:
			// Internal to stage 1; already applied.
		case lc:
			nn, ok := rename[j.LeftRel+"."+j.LeftCol]
			if !ok {
				return nil, fmt.Errorf("core: rename missing for %s.%s", j.LeftRel, j.LeftCol)
			}
			q2.Joins = append(q2.Joins, algebra.JoinPred{
				LeftRel: matRelName, LeftCol: strings.TrimPrefix(nn, matRelName+"."),
				RightRel: j.RightRel, RightCol: j.RightCol,
			})
		case rc:
			nn, ok := rename[j.RightRel+"."+j.RightCol]
			if !ok {
				return nil, fmt.Errorf("core: rename missing for %s.%s", j.RightRel, j.RightCol)
			}
			q2.Joins = append(q2.Joins, algebra.JoinPred{
				LeftRel: j.LeftRel, LeftCol: j.LeftCol,
				RightRel: matRelName, RightCol: strings.TrimPrefix(nn, matRelName+"."),
			})
		default:
			q2.Joins = append(q2.Joins, j)
		}
	}
	for _, g := range q.GroupBy {
		q2.GroupBy = append(q2.GroupBy, renameCol(g, rename))
	}
	for _, a := range q.Aggs {
		na := a
		if a.Arg != nil {
			na.Arg = renameExpr(a.Arg, rename)
		}
		q2.Aggs = append(q2.Aggs, na)
	}
	for _, p := range q.Project {
		q2.Project = append(q2.Project, renameCol(p, rename))
	}
	return q2, nil
}

func renameCol(name string, rename map[string]string) string {
	if nn, ok := rename[name]; ok {
		return nn
	}
	return name
}

// renameExpr rewrites column references in a scalar expression.
func renameExpr(e expr.Expr, rename map[string]string) expr.Expr {
	switch v := e.(type) {
	case expr.Col:
		return expr.Column(renameCol(v.Name, rename))
	case expr.Const:
		return v
	case expr.Arith:
		return expr.Arith{Op: v.Op, L: renameExpr(v.L, rename), R: renameExpr(v.R, rename)}
	default:
		return e
	}
}
