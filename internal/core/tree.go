// Package core implements the paper's contribution: adaptive data
// partitioning (ADP). It lowers optimizer plans onto pipelined push trees
// whose intermediate results live in shareable state structures, runs
// corrective query processing (phased plan switching with a stitch-up
// phase, §4), evaluates stitch-up expressions with exclusion lists and
// subexpression reuse (§3.4), provides the complementary merge/hash join
// pair for exploiting (partial) order (§5), and the adaptive
// pre-aggregation integration (§6). Every plan any strategy executes —
// the maintenance stage of a standing query included — runs as a phase of
// one runner under one monitor decision (phase.go).
package core

import (
	"fmt"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// TreeJoin records one join node of a lowered plan together with its
// logical identity, for monitoring and stitch-up registration.
type TreeJoin struct {
	Key   string // canonical subexpression key
	Rels  []string
	Preds []algebra.JoinPred
	Node  *exec.HashJoin
	// ResultBuf captures the join node's output (the materialized
	// intermediate result registered for stitch-up reuse, §3.4.2). Nil
	// when no stitch-up can read it: the lowering was not for reuse, or
	// this is the root join, whose uniform vector the exclusion list rules
	// out — its consumer gets the rows, Node.Counters().Out their number —
	// or a maintenance stage adopted the tree, after which none can follow.
	ResultBuf *state.List
}

// Tree is a lowered, executable pipeline for one phase's plan.
type Tree struct {
	ctx *exec.Context
	// Entry maps base relation name -> the operator input its post-filter
	// source tuples enter the plan through: unsigned from the source driver,
	// signed from the maintenance driver's warm-up scans and live deltas.
	Entry map[string]exec.Sink
	// Joins lists join nodes bottom-up.
	Joins []*TreeJoin
	// leaves maps a base relation whose scan feeds a join side directly to
	// that side (see LeafLists). Relations under a pre-aggregate or a
	// partition boundary are absent.
	leaves map[string]leafLister
	// PreAggWindow is the adjustable-window pre-aggregation operator if
	// the plan contains one.
	PreAggWindow *exec.WindowPreAgg
	// HasPreAgg reports that output tuples are in partial layout.
	HasPreAgg bool
	// finishers are the pre-aggregates, each flushed after every one below
	// it: a pipelined join has nothing to do at end of stream.
	finishers []interface{ Finish() }
	// reuse materializes every join output below the root for stitch-up
	// (see lower); nrels is the plan's relation count, which only the root
	// join covers.
	reuse bool
	nrels int
	// par is set when this tree is one partition clone of a partitioned
	// lowering (see LowerPartitioned); it installs exchanges at partition
	// boundaries during build.
	par *parLowering
}

// leafLister is an entry sink that buffers what it is fed in lists of its
// own: an input side of an exec.HashJoin.
type leafLister interface {
	Lists() (main, neg *state.List)
}

// LeafLists returns the lists behind the join side rel's scan feeds: the
// join already buffers every row the leaf delivers, in delivery order, so
// the phase's base partition is main and not a copy of it; neg holds the
// rows signed deltas retracted since (nil until one did), main and neg
// together the relation's z-set. Both are nil without such a side.
func (t *Tree) LeafLists(rel string) (main, neg *state.List) {
	if side, ok := t.leaves[rel]; ok {
		return side.Lists()
	}
	return nil, nil
}

// blockingPreAgg adapts an AggTable into a traditional (blocking)
// pre-aggregation operator feeding a parent sink at finish time.
type blockingPreAgg struct {
	table *exec.AggTable
	out   exec.Sink
}

// Finish emits the table's groups as partials.
func (b *blockingPreAgg) Finish() {
	b.out.Push(b.table.EmitPartial(), 0)
}

// Lower compiles an optimizer plan tree into an executable push pipeline
// delivering root tuples to out. Every join node is a pipelined
// (data-availability-driven) hash join, the configuration all experiments
// use ("most data integration systems almost exclusively rely on pipelined
// hash joins", §3.4); any other join algorithm is rejected. Nothing is materialized beyond the operators' own
// state: the tree of a plan that runs alone (a static run, a maintenance
// tree built after the initial run, either plan-partitioning stage) has no
// later reader.
func Lower(ctx *exec.Context, plan algebra.Plan, out exec.Sink) (*Tree, error) {
	return lower(ctx, plan, out, false)
}

// lower is Lower with the choice a corrective phase makes: with reuse,
// every join below the root also tees its output into TreeJoin.ResultBuf,
// the intermediate results a later stitch-up fetches instead of
// recomputing (§3.4.2).
func lower(ctx *exec.Context, plan algebra.Plan, out exec.Sink, reuse bool) (*Tree, error) {
	t := newTree(ctx, plan, reuse)
	if err := t.build(plan, out); err != nil {
		return nil, err
	}
	return t, nil
}

// newTree is the empty tree plan is about to be built into: one phase's,
// or one partition clone of it.
func newTree(ctx *exec.Context, plan algebra.Plan, reuse bool) *Tree {
	return &Tree{
		ctx:    ctx,
		Entry:  map[string]exec.Sink{},
		leaves: map[string]leafLister{},
		reuse:  reuse,
		nrels:  len(plan.Rels()),
	}
}

// teeSink duplicates a join's output into its materialization buffer
// (stitch-up reuse, §3.4.2) while forwarding it downstream.
type teeSink struct {
	join *TreeJoin
	out  exec.Sink
}

// Push implements exec.Sink. Signed batches pass through untee'd: they reach
// a phase's tree once a maintenance stage has adopted it, and no stitch-up
// follows a finished initial run.
func (s *teeSink) Push(ts []types.Tuple, sign int) {
	if sign == 0 {
		s.join.ResultBuf.InsertBatch(ts)
	}
	s.out.Push(ts, sign)
}

func (t *Tree) build(p algebra.Plan, out exec.Sink) error {
	switch v := p.(type) {
	case *algebra.ScanPlan:
		name := v.Rel.Name
		if _, dup := t.Entry[name]; dup {
			return fmt.Errorf("core: relation %q appears twice in plan", name)
		}
		t.Entry[name] = out
		if side, ok := out.(leafLister); ok && t.par == nil {
			t.leaves[name] = side
		}
		return nil

	case *algebra.JoinPlan:
		lk, rk, err := v.JoinKeyCols()
		if err != nil {
			return err
		}
		if v.Algorithm != "" && v.Algorithm != algebra.JoinPipelinedHash {
			return fmt.Errorf("core: cannot lower join algorithm %q", v.Algorithm)
		}
		tj := &TreeJoin{Key: v.Key(), Rels: v.Rels(), Preds: v.Preds}
		if t.reuse && len(v.Rels()) < t.nrels {
			tj.ResultBuf = state.NewList(v.Schema())
			out = &teeSink{join: tj, out: out}
		}
		// Fixed-bucket tables are sized from the optimizer's estimates
		// (wrong estimates surface as bucket collisions, §4.4). A
		// partition clone expects its per-partition share.
		el, er := v.EstLeftCard, v.EstRightCard
		if t.par != nil {
			el /= float64(t.par.pt.P)
			er /= float64(t.par.pt.P)
		}
		node := exec.NewHashJoinSized(t.ctx, v.Left.Schema(), v.Right.Schema(), lk, rk, el, er, out)
		tj.Node = node
		leftIn, err := t.boundarySink(v.Left, lk, node.LeftSink())
		if err != nil {
			return err
		}
		rightIn, err := t.boundarySink(v.Right, rk, node.RightSink())
		if err != nil {
			return err
		}
		if err := t.build(v.Left, leftIn); err != nil {
			return err
		}
		if err := t.build(v.Right, rightIn); err != nil {
			return err
		}
		t.Joins = append(t.Joins, tj)
		return nil

	case *algebra.GroupPlan:
		if !v.Partial {
			return fmt.Errorf("core: final aggregation must not appear inside a phase tree (it is shared across phases)")
		}
		t.HasPreAgg = true
		groupCols, err := groupIdx(v.Input.Schema(), v.GroupBy)
		if err != nil {
			return err
		}
		if v.Windowed {
			pre, err := exec.NewWindowPreAgg(t.ctx, v.Input.Schema(), v.GroupBy, v.Aggs, out)
			if err != nil {
				return err
			}
			t.PreAggWindow = pre
			in, err := t.boundarySink(v.Input, groupCols, pre)
			if err != nil {
				return err
			}
			if err := t.build(v.Input, in); err != nil {
				return err
			}
			t.finishers = append(t.finishers, pre)
			return nil
		}
		table, err := exec.NewAggTable(t.ctx, v.Input.Schema(), v.GroupBy, v.Aggs)
		if err != nil {
			return err
		}
		b := &blockingPreAgg{table: table, out: out}
		in, err := t.boundarySink(v.Input, groupCols, table)
		if err != nil {
			return err
		}
		if err := t.build(v.Input, in); err != nil {
			return err
		}
		t.finishers = append(t.finishers, b)
		return nil

	default:
		return fmt.Errorf("core: cannot lower plan node %T", p)
	}
}

// groupIdx resolves group-by column names to positions in the input
// layout (the partition key of an aggregation boundary).
func groupIdx(in *types.Schema, groupBy []string) ([]int, error) {
	cols := make([]int, 0, len(groupBy))
	for _, g := range groupBy {
		i := in.IndexOf(g)
		if i < 0 {
			return nil, fmt.Errorf("core: group-by column %q not in input %v", g, in.Names())
		}
		cols = append(cols, i)
	}
	return cols, nil
}

// boundarySink wraps a consumer input with a partition boundary when this
// tree is a partition clone; serial lowering passes the sink through.
func (t *Tree) boundarySink(child algebra.Plan, keyCols []int, down exec.Sink) (exec.Sink, error) {
	if t.par == nil {
		return down, nil
	}
	return t.par.sink(child, keyCols, down)
}

// Finish propagates end-of-stream through the tree: its pre-aggregates
// flush, bottom-up.
func (t *Tree) Finish() {
	for _, f := range t.finishers {
		f.Finish()
	}
}

// FinishSteps returns the number of finisher steps (the partitioned
// finish protocol runs them as one broadcast round each).
func (t *Tree) FinishSteps() int { return len(t.finishers) }

// RunFinisher runs finisher step i (child-before-parent order).
func (t *Tree) RunFinisher(i int) { t.finishers[i].Finish() }

// JoinFor returns the tree's join node materializing exprKey, if any.
func (t *Tree) JoinFor(exprKey string) (*TreeJoin, bool) {
	for _, j := range t.Joins {
		if j.Key == exprKey {
			return j, true
		}
	}
	return nil, false
}
