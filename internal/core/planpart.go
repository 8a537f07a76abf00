package core

import (
	"fmt"
	"strings"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
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
	matRows := state.NewList(matSchema)
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
	stage1Leaves, err := ex.wireLeaves(tree, covered)
	if err != nil {
		return err
	}
	stage1Plan := breakJoin.String() + " → materialize"
	ex.emit(PhaseStarted{Phase: 0, Plan: stage1Plan, Partitions: 1, VirtualSeconds: ex.ctx.Clock.Now})
	driver := exec.NewDriver(ex.ctx, stage1Leaves...)
	driver.Fatal = ex.runFatal
	if _, rerr := driver.RunContext(ex.runCtx, 0, nil); rerr != nil {
		return rerr
	}
	tree.Finish()
	ex.rep.Phases = append(ex.rep.Phases, PhaseInfo{
		Plan:      stage1Plan,
		Delivered: driver.Delivered,
		Seconds:   ex.ctx.Clock.Now,
	})

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
	// Execute stage 2 with its own final aggregation (schemas were
	// renamed, so the stage-2 full schema differs from the original).
	full2 := q2.Relations[0].Schema
	for _, r := range q2.Relations[1:] {
		full2 = full2.Concat(r.Schema)
	}
	var sink exec.Sink
	var agg2 *exec.AggTable
	if ex.agg != nil {
		agg2, err = exec.NewAggTable(ex.ctx, full2, q2.GroupBy, q2.Aggs)
		if err != nil {
			return err
		}
		ex.announceSchema(agg2.Schema())
		if planHasPreAgg(res2.Root) {
			ad, err := types.NewAdapter(res2.Root.Schema(), agg2.PartialSchema())
			if err != nil {
				return err
			}
			sink = &aggSink{agg: agg2, ad: ad, partial: true}
		} else {
			ad, err := types.NewAdapter(res2.Root.Schema(), full2)
			if err != nil {
				return err
			}
			sink = &aggSink{agg: agg2, ad: ad}
		}
	} else {
		out2 := ex.outSchema
		if len(q2.Project) > 0 {
			out2, err = full2.Project(q2.Project)
			if err != nil {
				return err
			}
		} else {
			out2 = full2
		}
		ad, err := types.NewAdapter(res2.Root.Schema(), out2)
		if err != nil {
			return err
		}
		ex.outSchema = out2
		ex.announceSchema(out2)
		sink = &rootSink{ctx: ex.ctx, ad: ad, out: ex.out}
	}
	tree2, err := Lower(ex.ctx, res2.Root, sink)
	if err != nil {
		return err
	}
	// Leaves: the materialized relation plus the remaining base sources.
	matProvider := source.NewProvider(
		source.NewRelation(matRelName, matSchema, matRows.Rows()), nil)
	var leaves2 []*exec.Leaf
	for _, rel := range q2.Relations {
		entry, ok := tree2.EntryBatch[rel.Name]
		if !ok {
			return fmt.Errorf("core: stage-2 plan missing relation %q", rel.Name)
		}
		var provider source.Provider
		if rel.Name == matRelName {
			provider = matProvider
		} else {
			provider = ex.cat.Providers[rel.Name]
		}
		var pred func(types.Tuple) bool
		if p, ok := q2.Filters[rel.Name]; ok && p != nil {
			bound, err := p.BindPred(rel.Schema)
			if err != nil {
				return err
			}
			pred = bound
		}
		leaves2 = append(leaves2, &exec.Leaf{Provider: provider, Pred: pred, PushBatch: entry})
	}
	t0 := ex.ctx.Clock.Now
	ex.emit(PhaseStarted{Phase: 1, Plan: res2.Root.String(), Partitions: 1, VirtualSeconds: t0})
	d2 := exec.NewDriver(ex.ctx, leaves2...)
	d2.Fatal = ex.runFatal
	// Poll only to flush streamed SPJ rows; plan partitioning never
	// switches plans mid-stage. Polling changes batch boundaries but not
	// delivery order, counters, or the clock (the batching equivalence
	// contract), so reports stay identical to the unpolled baseline.
	if _, rerr := d2.RunContext(ex.runCtx, ex.o.PollEvery, func() bool {
		ex.flushRows()
		return false
	}); rerr != nil {
		return rerr
	}
	tree2.Finish()
	ex.rep.Phases = append(ex.rep.Phases, PhaseInfo{
		Plan:      res2.Root.String(),
		Delivered: d2.Delivered,
		Seconds:   ex.ctx.Clock.Now - t0,
	})
	ex.flushRows()
	if agg2 != nil {
		// Replace the unused original shared aggregate with stage 2's.
		ex.agg = agg2
		ex.outSchema = agg2.Schema()
	}
	return nil
}

// wireLeaves attaches providers for the covered relations to a stage-1
// tree (filters pushed down, no monitoring).
func (ex *executor) wireLeaves(tree *Tree, covered map[string]bool) ([]*exec.Leaf, error) {
	var leaves []*exec.Leaf
	for _, rel := range ex.q.Relations {
		if !covered[rel.Name] {
			continue
		}
		entry, ok := tree.EntryBatch[rel.Name]
		if !ok {
			return nil, fmt.Errorf("core: stage-1 plan missing relation %q", rel.Name)
		}
		var pred func(types.Tuple) bool
		if p, ok := ex.q.Filters[rel.Name]; ok && p != nil {
			bound, err := p.BindPred(rel.Schema)
			if err != nil {
				return nil, err
			}
			pred = bound
		}
		leaves = append(leaves, &exec.Leaf{Provider: ex.cat.Providers[rel.Name], Pred: pred, PushBatch: entry})
	}
	return leaves, nil
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
