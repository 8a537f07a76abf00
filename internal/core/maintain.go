// Standing-query maintenance: the delta-pump stage behind RunMaintenance. The
// initial run executes through the unchanged RunStream machinery (any
// strategy phases, partitions, faults, stitch-up included); maintenance then
// keeps the result current as delta sources push signed changes, starting
// from the state that run built, so that base rows are processed once:
//
//   - Adopted. A serial run without pre-aggregation maintains its result in
//     place: its group-by absorbs signed (+1) from the first row, so the
//     revisions it has pending at the end are the baseline window — folding
//     the update stream from empty always yields the maintained result — and
//     an SPJ run keeps its root rows as the baseline's assertions. If it
//     ended in one phase, that phase's tree is the maintenance tree as it
//     stands, main tables full and negative tables not yet created, and
//     nothing is pushed again (Report.MaintReplayed stays 0).
//   - Built. If it ended in several phases, or when the monitor switches
//     plans, a tree is lowered and warmed with its root unbound: each
//     relation's asserted rows (+1), then its retracted ones (-1), out of the
//     lists that already hold them — the phases' base partitions, the
//     previous tree's leaf joins. There is no other record of the history.
//   - Replayed. A run whose aggregate cannot be maintained in place (several
//     partitions merge their tables; a pre-aggregate's partials carry no
//     weights) warms a built tree through a live root into a fresh
//     maintenance aggregate; the emissions are the baseline.
//   - The delta streams are pumped as a phase of the runner that pumped the
//     base sources (phase.go), interleaving relations by virtual arrival.
//     Delta rows pass the relation's filter pushdown, deletes are clamped
//     against the join side that buffers the relation's rows (a delete of a
//     row with no live occurrence is dropped), and surviving rows enter the
//     tree as sign-run batches.
//   - At every poll the aggregate's group revisions (or the collected SPJ
//     result deltas) flush as one update watermark, and — under the
//     Corrective strategy — the monitor puts the maintenance plan, re-priced
//     against the delta-grown cardinalities, to the phased run's decision
//     (betterPlan). A substantially better shape is built as above, so
//     already-delivered updates are never re-emitted: the paper's
//     phase-boundary story transplanted to continuous execution, the warm-up
//     being the stitch-up over already-propagated deltas.
package core

import (
	"context"
	"fmt"
	"slices"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// MaintOptions configures the maintenance stage of a standing query.
type MaintOptions struct {
	// Deltas maps relation names to their signed delta streams
	// (typically source.NewDeltaProvider's, optionally wrapped in
	// *source.Faulty). Each provider's schema must be the base schema
	// plus the trailing sign column. Relations without an entry simply
	// never change.
	Deltas map[string]source.Provider
	// FlushEvery is the update-watermark cadence in delta-source reads;
	// defaults to Options.PollEvery.
	FlushEvery int
}

// RunMaintenance executes q's initial run exactly like RunStream, then
// pumps the configured delta streams through a maintenance tree,
// flushing signed result updates at watermarks. The initial result leaves
// once, as the baseline window: OnRows is never called, and the returned
// Report has no Rows, only RowCount. The maintenance outcome is in
// UpdateCount / Maintained / DeltaRows, and the update stream itself in
// Updates unless OnUpdates took it.
// PlanPartition is not supported: its two-stage re-optimization has no
// retained state to maintain.
func RunMaintenance(ctx context.Context, cat *Catalog, q *algebra.Query, o Options, m MaintOptions, hooks RunHooks) (*Report, error) {
	if o.Strategy == PlanPartition {
		return nil, fmt.Errorf("core: maintenance supports Static and Corrective strategies, not PlanPartition")
	}
	ex, finish, err := prepareRun(ctx, cat, q, o, hooks)
	if err != nil {
		return nil, err
	}
	mt, err := newMaintainer(ex, m)
	if err != nil {
		return nil, err
	}
	if err := mt.run(); err != nil {
		return nil, err
	}
	rep, err := finish()
	ex.release()
	return rep, err
}

// maintainer drives the delta-pump stage.
type maintainer struct {
	ex *executor
	m  MaintOptions

	// inPlace: the initial run maintains its result itself (adopted, above).
	// agg is the standing aggregate (nil for SPJ): that run's group-by, or
	// else a fresh table a live root fills.
	inPlace bool
	agg     *exec.AggTable
	plan    algebra.Plan
	tree    *Tree

	// track clamps a single-relation query's deletes (deltaIngress.retract).
	track  *ivm.BaseTracker
	leaves []*exec.Leaf

	view *ivm.Multiset // the windows folded: the maintained result
	seq  int
}

// newMaintainer validates the delta streams and, before the initial run
// absorbs or emits anything, decides whether it maintains its result in
// place: serial and free of pre-aggregation.
func newMaintainer(ex *executor, m MaintOptions) (*maintainer, error) {
	if m.FlushEvery <= 0 {
		m.FlushEvery = ex.o.PollEvery
	}
	mt := &maintainer{
		ex:      ex,
		m:       m,
		inPlace: ex.o.Partitions <= 1 && ex.o.PreAgg == opt.PreAggNone,
		view:    ivm.NewMultiset(),
	}
	for name, dp := range m.Deltas {
		rel, ok := relOf(ex.q, name)
		if !ok {
			return nil, fmt.Errorf("core: delta stream %q is not a relation of query %q", name, ex.q.Name)
		}
		if got, want := dp.Schema().Len(), rel.Schema.Len()+1; got != want {
			return nil, fmt.Errorf("core: delta stream %q has width %d, want base+sign = %d", name, got, want)
		}
		if len(ex.q.Relations) == 1 {
			mt.track = ivm.NewBaseTracker()
		}
	}
	ex.out.standing = true
	ex.out.asserts = mt.inPlace && ex.agg == nil
	if mt.agg = ex.agg; mt.agg != nil && !mt.inPlace {
		var err error
		if mt.agg, err = exec.NewAggTable(ex.ctx, ex.fullSchema, ex.q.GroupBy, ex.q.Aggs); err != nil {
			return nil, err
		}
	}
	if mt.agg != nil {
		mt.agg.EnableMaintenance()
	}
	return mt, nil
}

func relOf(q *algebra.Query, name string) (algebra.RelRef, bool) {
	for _, r := range q.Relations {
		if r.Name == name {
			return r, true
		}
	}
	return algebra.RelRef{}, false
}

// run is the standing query: the initial run, then the maintenance stage —
// take over what that run left behind, emit the baseline watermark, pump the
// delta streams, and record the maintained outcome.
func (mt *maintainer) run() error {
	ex := mt.ex
	if err := ex.execute(); err != nil {
		return err
	}
	if mt.track != nil {
		// Seeded from the phases' base partitions: there is no tree yet.
		asserted, _ := mt.lists(ex.q.Relations[0].Name)
		for _, part := range asserted {
			part.Scan(func(t types.Tuple) bool {
				mt.track.Add(t)
				return true
			})
		}
	}

	rels := make([]string, 0, len(mt.m.Deltas))
	for _, r := range ex.q.Relations {
		if _, ok := mt.m.Deltas[r.Name]; ok {
			rels = append(rels, r.Name)
		}
	}
	ex.emit(MaintenanceStarted{Relations: rels, VirtualSeconds: ex.now()})

	if err := mt.setUp(); err != nil {
		return err
	}
	// Baseline watermark: the initial result as pure assertions, the one
	// time it leaves the run — an aggregate's, counted here.
	if n := mt.watermark(); mt.agg != nil {
		ex.out.count = int64(n)
	}

	if err := mt.pump(); err != nil {
		return err
	}
	mt.watermark()

	ex.rep.Maintained = mt.view.Rows()
	return nil
}

// setUp readies the maintenance tree from what the initial run left behind.
// A run that maintained its result in place and ended in one phase left the
// tree: it is adopted with its plan, less the intermediate results no
// stitch-up will read now. Any other run left base partitions, and a tree is
// built over them from a plan re-optimized over the run's observations — its
// root live only if the warm-up has yet to produce the result.
func (mt *maintainer) setUp() error {
	ex := mt.ex
	if first := ex.phases[0]; mt.inPlace && len(ex.phases) == 1 {
		mt.plan, mt.tree = first.Plan, first.tree
		first.Interm = nil
		for _, j := range mt.tree.Joins {
			j.ResultBuf = nil
		}
		return nil
	}
	return mt.buildTree(ex.reoptimizer().Optimize(mt.optInputs()).Root, !mt.inPlace)
}

// optInputs is the executor's optimizer-input snapshot with pre-aggregation
// forced off: partial pre-agg states are blind to signs, so the standing
// aggregate always sits outside the tree.
func (mt *maintainer) optInputs() opt.Inputs {
	in := mt.ex.optInputs()
	in.PreAgg = opt.PreAggNone
	return in
}

// buildTree lowers plan into a fresh maintenance tree and warms it up: every
// relation's asserted rows, then its retracted ones — a retraction that found
// no assertion would break the prefix property the min/max bags rely on —
// enter as signed batches, a list chunk (at most 1024 rows) at a time, and
// the new tree's tables keep the very tuples the lists hold. With live the
// root is bound first and the warm-up's emissions are the baseline's
// assertions; otherwise it is bound after, because every result consequence
// of those rows has already been delivered as updates.
func (mt *maintainer) buildTree(plan algebra.Plan, live bool) error {
	ex := mt.ex
	sink, err := ex.rootSinkFor(plan.Schema(), mt.agg, ex.fullSchema, ex.outSchema, false, true)
	if err != nil {
		return err
	}
	root := &forwardSink{}
	tree, err := Lower(ex.ctx, plan, root)
	if err != nil {
		return err
	}
	if live {
		root.out = sink
	}
	for _, rel := range ex.q.Relations {
		entry := tree.Entry[rel.Name]
		push := func(l *state.List, sign int) {
			for _, chunk := range l.Chunks() {
				entry.Push(chunk, sign)
				ex.rep.MaintReplayed += int64(len(chunk))
			}
		}
		asserted, retracted := mt.lists(rel.Name)
		for _, l := range asserted {
			push(l, 1)
		}
		if retracted != nil {
			push(retracted, -1)
		}
	}
	root.out = sink
	mt.plan, mt.tree = plan, tree
	return nil
}

// lists returns where rel's z-set is buffered: its asserted rows — the base
// rows, then every delta inserted since, in arrival order — and its retracted
// ones. The maintenance tree's leaf join holds both once there is a tree;
// until then the initial run's phases hold the base rows.
func (mt *maintainer) lists(rel string) (asserted []*state.List, retracted *state.List) {
	if mt.tree != nil {
		if main, neg := mt.tree.LeafLists(rel); main != nil {
			return []*state.List{main}, neg
		}
		return nil, nil
	}
	for _, rec := range mt.ex.phases {
		if part := rec.BaseParts[rel]; part != nil {
			asserted = append(asserted, part)
		}
	}
	return asserted, nil
}

// fed counts the rows of rel the maintenance tree has been fed, base rows and
// deltas of either sign.
func (mt *maintainer) fed(rel string) float64 {
	main, neg := mt.tree.LeafLists(rel)
	n := 0
	if main != nil {
		n = main.Len()
	}
	if neg != nil {
		n += neg.Len()
	}
	return float64(n)
}

// pump drives the delta streams through the tree as a phase of the initial
// run's runner (phase.run: the availability-ordered driver, the shared leaf,
// the between-batches fatal check), so faults narrate through the usual
// events and fail-fast/partial policies. What it polls is maintenance's own:
// a watermark, then the monitor. The report narrates maintenance by those
// watermarks, not as a phase, so the pump is run, not driven.
func (mt *maintainer) pump() error {
	ex := mt.ex
	for _, rel := range ex.q.Relations {
		dp, ok := mt.m.Deltas[rel.Name]
		if !ok {
			continue
		}
		if fp, ok := dp.(*source.Faulty); ok {
			fp.SetNotify(ex.handleFault)
		}
		g := &deltaIngress{mt: mt, rel: rel.Name}
		// The filter binds against the base schema; a delta row is the base
		// row plus the sign column, so base-column indexes line up and
		// deletes of filtered-out rows drop here too — the join lists and
		// the tracker are post-filter multisets.
		l, err := leaf(rel, ex.q.Filters, dp, g.pushBatch)
		if err != nil {
			return err
		}
		mt.leaves = append(mt.leaves, l)
	}
	poll := func() bool {
		mt.watermark()
		mt.monitor()
		return false
	}
	if _, err := ex.serialPhase(mt.plan, mt.tree, mt.leaves).run(ex.runCtx, mt.m.FlushEvery, poll); err != nil {
		return err
	}
	for _, l := range mt.leaves {
		ex.rep.DeltaRows += l.Read
	}
	// Snapshot delta-stream fault stats under "<rel>.delta" — the base
	// relation's own stats (snapshotted at finish) keep the bare name.
	for _, rel := range ex.q.Relations {
		ex.recordFaults(rel.Name+".delta", mt.m.Deltas[rel.Name])
	}
	return nil
}

// watermark flushes the updates produced since the last call — the
// aggregate's pending group revisions, or the SPJ root's collected signed
// rows — as one window, folded into the view, to the OnUpdates hook (else
// Report.Updates) and the event stream, and returns its size. The first
// watermark (the baseline) always emits, so subscribers can anchor the
// fold even when the initial result is empty.
func (mt *maintainer) watermark() int {
	ex := mt.ex
	var win []ivm.Update
	if mt.agg != nil {
		mt.agg.EmitRevisions(func(t types.Tuple, sign int) {
			win = append(win, ivm.Update{Row: t, Sign: sign})
		})
	} else {
		win, ex.out.updates = ex.out.updates, nil
	}
	if len(win) == 0 && mt.seq > 0 {
		return 0
	}
	for _, u := range win {
		mt.view.Apply(u)
	}
	ex.rep.UpdateCount += int64(len(win))
	var read int64
	for _, l := range mt.leaves {
		read += l.Read
	}
	wm := UpdateWatermark{
		Seq:            mt.seq,
		Updates:        len(win),
		DeltaRows:      read,
		VirtualSeconds: ex.now(),
	}
	if ex.hooks.OnUpdates != nil {
		ex.hooks.OnUpdates(wm, win)
	} else {
		ex.rep.Updates = append(ex.rep.Updates, win...)
	}
	ex.emit(wm)
	mt.seq++
	return len(win)
}

// monitor is the corrective monitor's maintenance-stage step: publish
// delta-grown observations and put the maintenance plan to a phased run's
// decision (betterPlan) — re-priced with pre-aggregation off, inflated by
// its observed bucket collisions (tables sized from the estimates of the
// plan's optimization suffer §4.4's fixed-bucket pain as deltas pour in),
// against a penalty that prices the warm-up a built tree needs — at every
// poll: a standing plan has no steady state to wait for and no end to be too
// near to. A better shape is adopted by building its tree from the lists of
// the one it replaces.
func (mt *maintainer) monitor() {
	ex := mt.ex
	if ex.o.Strategy != Corrective || ex.rep.MaintSwitches+1 >= ex.o.MaxPhases {
		return
	}
	mt.observe()
	var replay float64
	for _, rel := range ex.q.Relations {
		replay += mt.fed(rel.Name)
	}
	best := ex.betterPlan(mt.optInputs(), mt.plan, collisionFactor([]*Tree{mt.tree}), replay*rehashCost(ex.ctx.Cost), len(ex.phases)+ex.rep.MaintSwitches)
	if best == nil {
		return
	}
	ex.rep.MaintSwitches++
	if err := mt.buildTree(best, false); err != nil {
		// A plan the optimizer produced must lower; latch as fatal so
		// the pump aborts on its next between-batches check.
		if ex.fatal == nil {
			ex.fatal = err
		}
	}
}

// observe publishes the delta-grown source cardinalities and the
// maintenance tree's join selectivities into the optimizer registry.
// Totals fold the initial run's consumption with the live delta reads;
// join inputs are approximated by what the tree has been fed of each
// relation (fed).
func (mt *maintainer) observe() {
	ex := mt.ex
	ex.observeLeaves(mt.leaves)
	for _, j := range joinViews([]*Tree{mt.tree}) {
		prod := 1.0
		for _, r := range j.Rels {
			prod *= mt.fed(r)
		}
		if prod > 0 {
			ex.reg.ObserveExpr(j.Key, float64(j.Out), prod, false)
		}
	}
}

// deltaIngress is one relation's gate between the delta leaf and the
// tree: it splits the wire sign off each row, clamps deletes against
// the relation's live multiset, and forwards survivors as sign-run batches
// into the maintenance tree of the moment, whose leaf join is their only
// record. A survivor is the source row less its sign column, not a copy.
type deltaIngress struct {
	mt  *maintainer
	rel string
	buf []types.Tuple // unflushed survivors, all of sign cur
	cur int8
}

// pushBatch is the leaf's entry.
func (g *deltaIngress) pushBatch(ts []types.Tuple) {
	for _, t := range ts {
		row, sign := source.SplitSign(t)
		s := int8(1)
		if sign < 0 {
			if !g.retract(row) {
				// Clamp: delete of a row with no live occurrence. Dropping
				// it here keeps every downstream structure an exact
				// multiset.
				g.mt.ex.rep.DeltaClamped++
				continue
			}
			s = -1
		} else if g.mt.track != nil {
			g.mt.track.Add(row)
		}
		if s != g.cur {
			g.flush()
			g.cur = s
		}
		g.buf = append(g.buf, row)
	}
	g.flush()
}

// retract reports whether row has a live occurrence (types.StrictEqual on
// every column) for a delete to take: the current tree's leaf join side's
// count, which every relation of a multi-relation query has, signed rows
// unflushed in buf (at most exec.DefaultBatch) added; else the tracker's,
// which records the take. It charges no time.
func (g *deltaIngress) retract(row types.Tuple) bool {
	if g.mt.track != nil {
		return g.mt.track.Remove(row)
	}
	n := g.mt.tree.leaves[g.rel].Live(row)
	for _, b := range g.buf {
		if slices.EqualFunc(b, row, types.StrictEqual) {
			n += int(g.cur)
		}
	}
	return n > 0
}

func (g *deltaIngress) flush() {
	if len(g.buf) == 0 {
		return
	}
	g.mt.tree.Entry[g.rel].Push(g.buf, int(g.cur))
	g.buf = g.buf[:0]
}
