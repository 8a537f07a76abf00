package core

import (
	"context"
	"fmt"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// The phase runner. The paper has one execution monitor suspending one
// running plan at a consistent point between source deliveries (§4.1), fed
// by one availability-ordered source driver (§3.3), so everything that runs
// a plan here builds a phase. drive runs one as a phase of the report; the
// maintenance pump, which the report narrates by watermarks and not as a
// phase, calls run alone.

// phase is one plan lowered, wired to its sources and ready to run.
type phase struct {
	// root is the plan; plan, when set, replaces its rendering in events
	// and the report.
	root algebra.Plan
	plan string
	// leaves read the sources, in the order their driver services ties.
	leaves []*exec.Leaf
	// trees is the lowered plan: one tree, or the partition clones.
	trees []*Tree
	// base holds the base partition each leaf fed (PhaseRecord.BaseParts);
	// empty unless a stitch-up or a maintenance stage can read it.
	base map[string]*state.List

	// serial drives one tree on the run's goroutine; par scatters over the
	// clones' workers. Exactly one is set.
	serial *exec.Driver
	par    *exec.ParallelDriver
	// Where a partitioned phase's root output waits for the phase end: an
	// SPJ query's rows in merge, released to sink in partition order, an
	// aggregate's groups in one private table per partition.
	merge  *exec.PartitionMerge
	sink   exec.Sink
	tables []*exec.AggTable
}

// serialPhase readies leaves to be driven into tree on the run's goroutine.
func (ex *executor) serialPhase(root algebra.Plan, tree *Tree, leaves []*exec.Leaf) *phase {
	d := exec.NewDriver(ex.ctx, leaves...)
	d.Fatal = ex.runFatal
	return &phase{root: root, leaves: leaves, trees: []*Tree{tree}, base: map[string]*state.List{}, serial: d}
}

// parallelPhase readies a partitioned lowering: one worker per clone, its
// entries and exchange boundaries bound to the parallel runtime. The caller
// adds the leaves, which scatter through ph.par.LeafScatter.
func (ex *executor) parallelPhase(root algebra.Plan, pt *ParTree) (*phase, error) {
	rels := make([]string, len(ex.q.Relations))
	for i, r := range ex.q.Relations {
		rels[i] = r.Name
	}
	handlers, err := pt.Handlers(rels)
	if err != nil {
		return nil, err
	}
	pd := exec.NewParallelDriver(ex.ctx, pt.Ctxs)
	pd.Fatal = ex.runFatal
	pd.Bind(handlers, pt.RunFinisher, pt.FinishSteps())
	pt.Bind(pd.StageSend, len(rels))
	return &phase{root: root, trees: pt.Trees, base: map[string]*state.List{}, par: pd}, nil
}

// run delivers source tuples until the sources are exhausted or poll asks to
// suspend — with the plan at a consistent point either way (exec.Driver.Run;
// a partitioned phase quiesces its workers before every poll).
func (ph *phase) run(ctx context.Context, pollEvery int, poll func() bool) (exhausted bool, err error) {
	if ph.par != nil {
		return ph.par.RunContext(ctx, ph.leaves, pollEvery, poll)
	}
	return ph.serial.RunContext(ctx, pollEvery, poll)
}

// delivered counts the source tuples read so far.
func (ph *phase) delivered() int64 {
	if ph.par != nil {
		return ph.par.Delivered()
	}
	return ph.serial.Delivered
}

// finish propagates end-of-stream through the trees. A partitioned phase
// then joins its workers, folds the partition clocks (makespan + total CPU)
// into the run's clock, and — on this goroutine, in ascending partition
// order — merges SPJ root output into the result, or the partitions'
// aggregate tables into agg. Both orders are fixed, so a group confined to
// one partition ends with the very sum its partition computed, and a group
// spanning several adds their sums in the same order every run.
func (ph *phase) finish(agg *exec.AggTable) error {
	if ph.par == nil {
		ph.trees[0].Finish()
		return nil
	}
	ph.par.Finish()
	ph.par.Close()
	ph.par.FoldClocks()
	if ph.merge != nil {
		ph.merge.Drain(ph.sink)
	}
	for _, t := range ph.tables {
		if err := agg.MergeFrom(t); err != nil {
			return err
		}
	}
	return nil
}

// drive runs ph as the run's next phase until its sources are exhausted or
// onPoll — called every Options.PollEvery source tuples, after the rows
// produced so far have been flushed to the consumer — asks to suspend, and
// records what the phase leaves behind: its reads in the run's totals, its
// base partitions and materialized intermediates for a stitch-up, its line
// of the report. A nil onPoll runs the phase unpolled.
func (ex *executor) drive(ph *phase, onPoll func() bool) (exhausted bool, err error) {
	rec := &PhaseRecord{ID: len(ex.phases), Plan: ph.root, BaseParts: ph.base}
	if ex.out.standing && ph.par == nil {
		rec.tree = ph.trees[0]
	}
	if ph.plan == "" {
		ph.plan = ph.root.String()
	}
	t0 := ex.ctx.Clock.Now
	ex.phaseT0, ex.phaseStallBase = t0, ex.stall
	ex.emit(PhaseStarted{Phase: rec.ID, Plan: ph.plan, Partitions: len(ph.trees), VirtualSeconds: exec.Seconds(t0)})
	var poll func() bool
	if onPoll != nil {
		poll = func() bool {
			// A partitioned phase is quiescent here, so its partition
			// buffers are stable and the order-releasing merge can stream
			// the globally-ordered prefix of root output now instead of
			// holding everything for the phase-end drain: SPJ first rows
			// reach the client mid-phase, exactly as in a serial phase, in
			// the same total order (the prefix property).
			if ph.merge != nil {
				ph.merge.ReleasePrefix(ph.sink)
			}
			ex.flushRows()
			return onPoll()
		}
	}
	if exhausted, err = ph.run(ex.runCtx, ex.o.PollEvery, poll); err != nil {
		if ph.par != nil {
			// Canceled mid-phase: the pipelines have quiesced; join the
			// workers before unwinding so nothing leaks. The partitions'
			// private aggregate tables are dropped unfolded.
			ph.par.Close()
		}
		return false, err
	}
	if err := ph.finish(ex.agg); err != nil {
		return false, err
	}
	ex.recordObservations(joinViews(ph.trees), ph.leaves)
	for _, l := range ph.leaves {
		ex.consumed[l.Provider.Name()] += float64(l.Read)
		ex.passed[l.Provider.Name()] += float64(l.Passed)
	}
	// Only the corrective strategy can grow a second phase, so any other
	// run materialized nothing to register.
	if ex.stitches() {
		rec.Interm, rec.RootRows = intermediates(ph.trees)
	}
	ex.phases = append(ex.phases, rec)
	info := PhaseInfo{Plan: ph.plan, Delivered: ph.delivered(), Seconds: exec.Seconds(ex.ctx.Clock.Now - t0)}
	if ph.par != nil {
		// Partition clocks run on the absolute virtual timeline (arrivals
		// are stamped with the driver clock, which carries prior phases'
		// time), so the per-phase reading is the delta against the start.
		info.PartitionSeconds = make([]float64, len(ph.trees))
		for p, t := range ph.trees {
			if d := t.ctx.Clock.Now - t0; d > 0 {
				info.PartitionSeconds[p] = exec.Seconds(d)
			}
		}
		ex.rep.Partitions = len(ph.trees)
		ex.emit(PartitionStats{Phase: rec.ID, Delivered: info.Delivered, Seconds: info.PartitionSeconds, VirtualSeconds: ex.now()})
	}
	ex.rep.Phases = append(ex.rep.Phases, info)
	ex.flushRows()
	return exhausted, nil
}

// leaf connects provider to push behind rel's pushed-down selection, if
// filters has one. The filter binds against rel's schema once.
func leaf(rel algebra.RelRef, filters map[string]expr.Predicate, provider source.Provider, push func([]types.Tuple)) (*exec.Leaf, error) {
	l := &exec.Leaf{Provider: provider, PushBatch: push}
	if p := filters[rel.Name]; p != nil {
		bound, err := p.BindPred(rel.Schema)
		if err != nil {
			return nil, err
		}
		l.Pred = bound
	}
	return l, nil
}

// entryLeaves wires one leaf per relation of rels straight into tree's plan
// entries.
func entryLeaves(tree *Tree, rels []algebra.RelRef, filters map[string]expr.Predicate, providers map[string]source.Provider) ([]*exec.Leaf, error) {
	leaves := make([]*exec.Leaf, 0, len(rels))
	for _, rel := range rels {
		entry, ok := tree.Entry[rel.Name]
		if !ok {
			return nil, fmt.Errorf("core: plan is missing relation %q", rel.Name)
		}
		l, err := leaf(rel, filters, providers[rel.Name], exec.Feed(entry))
		if err != nil {
			return nil, err
		}
		leaves = append(leaves, l)
	}
	return leaves, nil
}

// joinView is the monitor's consistent snapshot of one logical join:
// identity plus counters, summed across the partition clones.
type joinView struct {
	Key   string
	Rels  []string
	Preds []algebra.JoinPred

	Out, InLeft, InRight int64
}

// joinViews snapshots the join counters of one lowered plan — a tree, or its
// partition clones — for the monitor. Each tuple flows through exactly one
// clone, so the sums equal what a single tree's node would have counted.
func joinViews(trees []*Tree) []joinView {
	out := make([]joinView, len(trees[0].Joins))
	for i, j := range trees[0].Joins {
		out[i] = joinView{Key: j.Key, Rels: j.Rels, Preds: j.Preds}
		for _, t := range trees {
			c := t.Joins[i].Node.Counters()
			out[i].Out += c.Out
			out[i].InLeft += c.InLeft
			out[i].InRight += c.InRight
		}
	}
	return out
}

// collisionFactor measures how much the running plan's fixed-bucket hash
// tables are suffering: the worst join table's expected probe-chain length
// across all trees, converted to a cost multiplier ((1+chain)/2, since
// probes are roughly half of join work). Healthy tables yield 1. This is the
// §4.4 signal the monitor inflates the current plan's remaining cost by.
func collisionFactor(trees []*Tree) float64 {
	worst := 1.0
	for _, tree := range trees {
		for _, j := range tree.Joins {
			l, r := j.Node.Tables()
			for _, ht := range []*state.HashTable{l, r} {
				if ht.Buckets() == 0 {
					continue
				}
				chain := float64(ht.Len()) / float64(ht.Buckets())
				if chain < 1 {
					chain = 1
				}
				if f := (1 + chain) / 2; f > worst {
					worst = f
				}
			}
		}
	}
	return worst
}

// intermediates returns the materialized join results of one lowered plan
// for stitch-up reuse registration (§3.4.2), per canonical expression key —
// a single tree's own buffers, never a copy of them; the clones' buffers
// concatenated in partition order — and the output count of the join that
// materialized nothing, the root (PhaseRecord.RootRows). Call only once the
// pipeline has quiesced.
func intermediates(trees []*Tree) (interm map[string]*state.List, rootRows int64) {
	interm = map[string]*state.List{}
	for i, j := range trees[0].Joins {
		if j.ResultBuf == nil {
			for _, t := range trees {
				rootRows += t.Joins[i].Node.Counters().Out
			}
			continue
		}
		list := j.ResultBuf
		if len(trees) > 1 {
			list = state.NewList(j.ResultBuf.Schema())
			for _, t := range trees {
				for _, chunk := range t.Joins[i].ResultBuf.Chunks() {
					list.InsertBatch(chunk)
				}
			}
		}
		interm[j.Key] = list
	}
	return interm, rootRows
}
