// Standing-query maintenance: the delta-pump stage behind
// RunMaintenance. The initial run executes through the unchanged
// RunStream machinery (any strategy phases, partitions, faults,
// stitch-up included); maintenance then keeps the result current as
// delta sources push signed changes:
//
//   - Every post-filter base row of the initial run (captured in the
//     phases' BaseParts) seeds a per-relation ordered log and, where the
//     relation has a delta stream to clamp, a live-multiset tracker.
//   - A fresh *maintenance tree* is lowered from a re-optimized,
//     pre-agg-free plan and warmed up by replaying the logs through the
//     signed (PushDelta) path, rebuilding exactly the join state the
//     history implies. The first warm-up also produces the baseline
//     update assertions — folding the update stream from empty always
//     yields the maintained result.
//   - The delta streams are pumped as a phase of the runner that pumped
//     the base sources (phase.go), interleaving relations by virtual
//     arrival. Delta rows pass the relation's filter pushdown, deletes
//     are clamped against the tracker (a delete of a never-inserted row
//     is dropped), and surviving rows enter the tree as sign-run
//     batches.
//   - At every poll the aggregate's group revisions (or the collected
//     SPJ result deltas) flush as one update watermark, and — under the
//     Corrective strategy — the monitor puts the maintenance plan,
//     re-priced against the delta-grown cardinalities, to the phased
//     run's decision (betterPlan). A substantially better shape triggers
//     a mid-maintenance switch: a new tree is lowered and re-warmed from
//     the logs with its root suppressed, so already-delivered updates
//     are never re-emitted. This is the paper's phase-boundary story
//     transplanted to continuous execution: the replayed logs are the
//     stitch-up over already-propagated deltas.
package core

import (
	"context"
	"fmt"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// MaintOptions configures the maintenance stage of a standing query.
type MaintOptions struct {
	// Deltas maps relation names to their signed delta streams
	// (typically *source.DeltaProvider, optionally wrapped in
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
// flushing signed result updates at watermarks. The returned Report
// carries the initial result in Rows (or, streamed through OnRows, its
// count in RowCount) and the maintenance outcome in Updates / Maintained /
// DeltaRows.
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
	ex.standing = true // the initial run keeps its base partitions for seedFromInitialRun
	if err := ex.execute(); err != nil {
		return nil, err
	}
	if err := mt.run(); err != nil {
		return nil, err
	}
	return finish()
}

// deltaLog is one relation's ordered signed base history: the initial
// run's post-filter rows (+1) followed by every clamped, filtered delta
// in ingestion order. Replaying it through the signed path reconstructs
// the relation's exact z-set contribution to any join tree.
type deltaLog struct {
	rows  []types.Tuple
	signs []int8
}

func (l *deltaLog) add(t types.Tuple, sign int8) {
	l.rows = append(l.rows, t)
	l.signs = append(l.signs, sign)
}

// maintainer drives the delta-pump stage.
type maintainer struct {
	ex *executor
	m  MaintOptions

	magg *exec.AggTable // standing maintenance aggregate (nil for SPJ)
	plan algebra.Plan
	tree *Tree
	root *maintRoot

	logs    map[string]*deltaLog
	track   map[string]*ivm.BaseTracker
	ingress map[string]*deltaIngress
	leaves  []*exec.Leaf

	pendingSPJ []ivm.Update // SPJ root output since the last watermark
	seq        int
}

func newMaintainer(ex *executor, m MaintOptions) (*maintainer, error) {
	if m.FlushEvery <= 0 {
		m.FlushEvery = ex.o.PollEvery
	}
	mt := &maintainer{
		ex:      ex,
		m:       m,
		logs:    map[string]*deltaLog{},
		track:   map[string]*ivm.BaseTracker{},
		ingress: map[string]*deltaIngress{},
	}
	for _, rel := range ex.q.Relations {
		mt.logs[rel.Name] = &deltaLog{}
	}
	for name, dp := range m.Deltas {
		rel, ok := relOf(ex.q, name)
		if !ok {
			return nil, fmt.Errorf("core: delta stream %q is not a relation of query %q", name, ex.q.Name)
		}
		if got, want := dp.Schema().Len(), rel.Schema.Len()+1; got != want {
			return nil, fmt.Errorf("core: delta stream %q has width %d, want base+sign = %d", name, got, want)
		}
		// Only a relation with a delta stream has an ingress to clamp at.
		mt.track[name] = ivm.NewBaseTracker()
	}
	if len(ex.q.Aggs) > 0 || len(ex.q.GroupBy) > 0 {
		magg, err := exec.NewAggTable(ex.ctx, ex.fullSchema, ex.q.GroupBy, ex.q.Aggs)
		if err != nil {
			return nil, err
		}
		magg.EnableMaintenance()
		mt.magg = magg
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

// run is the maintenance stage: seed logs from the initial run, build
// and warm the maintenance tree, emit the baseline watermark, pump the
// delta streams, and record the maintained outcome.
func (mt *maintainer) run() error {
	ex := mt.ex
	mt.seedFromInitialRun()

	rels := make([]string, 0, len(mt.m.Deltas))
	for _, r := range ex.q.Relations {
		if _, ok := mt.m.Deltas[r.Name]; ok {
			rels = append(rels, r.Name)
		}
	}
	ex.emit(MaintenanceStarted{Relations: rels, VirtualSeconds: ex.ctx.Clock.Now})

	// The maintenance plan is re-optimized over the initial run's
	// observations with pre-aggregation forced off: partial pre-agg
	// states are blind to signs, so the standing aggregate always sits
	// outside the tree.
	res, err := opt.Optimize(mt.optInputs())
	if err != nil {
		return err
	}
	if err := mt.buildTree(res.Root, true); err != nil {
		return err
	}
	// Baseline watermark: the first warm-up ran with a live root, so
	// its emissions are the initial result as pure assertions.
	mt.watermark()

	if err := mt.pump(); err != nil {
		return err
	}
	mt.watermark()

	ex.rep.Maintained = ivm.Fold(ex.rep.Updates).Rows()
	return nil
}

// seedFromInitialRun folds every phase's captured post-filter base
// partitions into the per-relation logs and trackers, in phase order —
// the deterministic ingestion order the initial run actually consumed.
func (mt *maintainer) seedFromInitialRun() {
	for _, rec := range mt.ex.phases {
		for _, rel := range mt.ex.q.Relations {
			part := rec.BaseParts[rel.Name]
			if part == nil {
				continue
			}
			log, track := mt.logs[rel.Name], mt.track[rel.Name]
			part.Scan(func(t types.Tuple) bool {
				log.add(t, 1)
				if track != nil {
					track.Add(t)
				}
				return true
			})
		}
	}
}

// optInputs is the executor's optimizer-input snapshot with
// pre-aggregation forced off.
func (mt *maintainer) optInputs() opt.Inputs {
	in := mt.ex.optInputs()
	in.PreAgg = opt.PreAggNone
	return in
}

// buildTree lowers plan into a fresh maintenance tree and warms it up
// by replaying the base logs through the signed path. On the first
// build the root is live — warm-up emissions are the baseline
// assertions. On rebuilds the root is suppressed: the replay
// reconstructs join state only, because every result consequence of the
// logged history has already been delivered as updates.
func (mt *maintainer) buildTree(plan algebra.Plan, first bool) error {
	ex := mt.ex
	target := ex.outSchema
	if mt.magg != nil {
		target = ex.fullSchema
	}
	ad, err := types.NewAdapter(plan.Schema(), target)
	if err != nil {
		return err
	}
	root := &maintRoot{mt: mt, agg: mt.magg, ad: ad}
	tree, err := Lower(ex.ctx, plan, root)
	if err != nil {
		return err
	}
	for _, rel := range ex.q.Relations {
		if tree.EntryDelta[rel.Name] == nil {
			return fmt.Errorf("core: maintenance plan has no signed entry for relation %q", rel.Name)
		}
	}
	mt.plan, mt.tree, mt.root = plan, tree, root
	root.suppress = !first
	mt.replayLogs()
	root.suppress = false
	// Point the live ingress sinks (if any) at the new tree's entries.
	// Each key is updated independently — order can't leak into output.
	for name, g := range mt.ingress { //adp:unordered-ok
		g.entry = tree.EntryDelta[name]
	}
	return nil
}

// replayLogs feeds every relation's signed history into the current
// tree in relation order, chunked into sign-run batches.
func (mt *maintainer) replayLogs() {
	for _, rel := range mt.ex.q.Relations {
		log := mt.logs[rel.Name]
		if len(log.rows) == 0 {
			continue
		}
		entry := mt.tree.EntryDelta[rel.Name]
		batch := types.NewColBatch(rel.Schema.Len())
		cur := log.signs[0]
		for i, t := range log.rows {
			if log.signs[i] != cur {
				entry(batch, int(cur))
				batch.Reset()
				cur = log.signs[i]
			}
			batch.AppendRow(t)
		}
		if batch.Len() > 0 {
			entry(batch, int(cur))
		}
	}
}

// pump drives the delta streams through the tree as a phase of the initial
// run's runner (phase.run: the availability-ordered driver, the shared leaf,
// the between-batches fatal check), so faults narrate through the usual
// events and fail-fast/partial policies. What it polls is maintenance's own:
// a watermark, then the monitor. The report narrates maintenance by those
// watermarks, not as a phase, so the pump is run, not driven.
func (mt *maintainer) pump() error {
	ex := mt.ex
	if len(mt.m.Deltas) == 0 {
		return nil
	}
	mt.leaves = mt.leaves[:0]
	for _, rel := range ex.q.Relations {
		dp, ok := mt.m.Deltas[rel.Name]
		if !ok {
			continue
		}
		if fp, ok := dp.(*source.Faulty); ok {
			fp.SetNotify(ex.handleFault)
		}
		g := &deltaIngress{
			mt:    mt,
			track: mt.track[rel.Name],
			log:   mt.logs[rel.Name],
			entry: mt.tree.EntryDelta[rel.Name],
			buf:   types.NewColBatch(rel.Schema.Len()),
		}
		mt.ingress[rel.Name] = g
		// The filter binds against the base schema; a delta row is the base
		// row plus the sign column, so base-column indexes line up and
		// deletes of filtered-out rows drop here too — the logs and trackers
		// are post-filter multisets.
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
// aggregate's pending group revisions, or the SPJ root's collected
// signed rows — to the OnUpdates hook and the event stream. The first
// watermark (the baseline) always emits, so subscribers can anchor the
// fold even when the initial result is empty.
func (mt *maintainer) watermark() {
	ex := mt.ex
	start := len(ex.rep.Updates)
	if mt.magg != nil {
		mt.magg.EmitRevisions(func(t types.Tuple, sign int) {
			ex.rep.Updates = append(ex.rep.Updates, ivm.Update{Row: t, Sign: sign})
		})
	} else {
		ex.rep.Updates = append(ex.rep.Updates, mt.pendingSPJ...)
		mt.pendingSPJ = mt.pendingSPJ[:0]
	}
	flushed := ex.rep.Updates[start:]
	if len(flushed) == 0 && mt.seq > 0 {
		return
	}
	var read int64
	for _, l := range mt.leaves {
		read += l.Read
	}
	wm := UpdateWatermark{
		Seq:            mt.seq,
		Updates:        len(flushed),
		DeltaRows:      read,
		VirtualSeconds: ex.ctx.Clock.Now,
	}
	if ex.hooks.OnUpdates != nil {
		ex.hooks.OnUpdates(wm, flushed)
	}
	ex.emit(wm)
	mt.seq++
}

// monitor is the corrective monitor's maintenance-stage step: publish
// delta-grown observations and put the maintenance plan to a phased run's
// decision (betterPlan) — re-priced with pre-aggregation off, inflated by
// its observed bucket collisions (tables sized for the initial cardinalities
// suffer §4.4's fixed-bucket pain as deltas pour in), against a penalty that
// prices the replay of the logs a rebuilt tree needs — at every poll: a
// standing plan has no steady state to wait for and no end to be too near
// to. A better shape is adopted by rebuilding the tree from the logs.
func (mt *maintainer) monitor() {
	ex := mt.ex
	if ex.o.Strategy != Corrective || ex.rep.MaintSwitches+1 >= ex.o.MaxPhases {
		return
	}
	mt.observe()
	var replay float64
	for _, rel := range ex.q.Relations {
		replay += float64(len(mt.logs[rel.Name].rows))
	}
	cm := ex.ctx.Cost
	penalty := replay * (cm.HashInsert + cm.HashProbe + cm.Move)
	best := ex.betterPlan(mt.optInputs(), mt.plan, collisionFactor([]*Tree{mt.tree}), penalty, len(ex.phases)+ex.rep.MaintSwitches)
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
// join inputs are approximated by the log lengths (what the tree has
// actually been fed across warm-up and pumping).
func (mt *maintainer) observe() {
	ex := mt.ex
	ex.observeLeaves(mt.leaves)
	for _, j := range joinViews([]*Tree{mt.tree}) {
		prod := 1.0
		for _, r := range j.Rels {
			prod *= float64(len(mt.logs[r].rows))
		}
		if prod > 0 {
			ex.reg.ObserveExpr(j.Key, float64(j.Out), prod, false)
		}
	}
}

// deltaIngress is one relation's gate between the delta leaf and the
// tree: it splits the wire sign off each row, clamps deletes against
// the live base multiset, appends survivors to the replay log, and
// forwards them as sign-run batches.
type deltaIngress struct {
	mt    *maintainer
	track *ivm.BaseTracker
	log   *deltaLog
	entry func(*types.ColBatch, int)
	buf   *types.ColBatch
	cur   int8
}

// pushBatch is the leaf's entry. The tuples are the provider's
// own stable storage (like the initial run's BaseParts capture), so the
// log and the join tables may retain them without copying.
func (g *deltaIngress) pushBatch(ts []types.Tuple) {
	for _, t := range ts {
		g.row(t)
	}
	g.flush()
}

func (g *deltaIngress) row(t types.Tuple) {
	row, sign := source.SplitSign(t)
	if sign < 0 {
		if !g.track.Remove(row) {
			// Clamp: delete of a row with no live occurrence. Dropping
			// it here keeps every downstream structure an exact
			// multiset.
			g.mt.ex.rep.DeltaClamped++
			return
		}
		sign = -1
	} else {
		sign = 1
		g.track.Add(row)
	}
	s := int8(sign)
	g.log.add(row, s)
	if s != g.cur {
		g.flush()
		g.cur = s
	}
	g.buf.AppendRow(row)
}

func (g *deltaIngress) flush() {
	if g.buf.Len() == 0 {
		return
	}
	g.entry(g.buf, int(g.cur))
	g.buf.Reset()
}

// maintRoot is the maintenance tree's output sink: it adapts root-
// layout batches and routes them into the standing aggregate (signed
// absorption) or the pending SPJ update buffer. While suppressed
// (rebuild warm-up) it swallows everything — the replay only exists to
// reconstruct join state.
type maintRoot struct {
	mt       *maintainer
	ad       *types.Adapter
	agg      *exec.AggTable
	buf      *types.ColBatch
	suppress bool
}

// PushDelta implements exec.DeltaSink (the only path maintenance
// traffic takes; the unsigned entry below satisfies the Sink contract
// and treats its input as insertions).
func (r *maintRoot) PushDelta(b *types.ColBatch, sign int) {
	n := b.Len()
	if n == 0 || r.suppress {
		return
	}
	src := b
	if !r.ad.IsIdentity() {
		if r.buf == nil {
			r.buf = types.NewColBatch(r.ad.To().Len())
		}
		r.ad.AdaptCols(r.buf, b)
		src = r.buf
	}
	if r.agg != nil {
		r.agg.PushDelta(src, sign)
		return
	}
	ctx := r.mt.ex.ctx
	w := src.Width()
	for i := 0; i < n; i++ {
		ctx.Clock.Charge(ctx.Cost.Move)
		row := make(types.Tuple, w)
		src.ReadRow(row, i)
		r.mt.pendingSPJ = append(r.mt.pendingSPJ, ivm.Update{Row: row, Sign: sign})
	}
}

// PushBatch implements exec.Sink.
func (r *maintRoot) PushBatch(ts []types.Tuple) {
	if len(ts) == 0 {
		return
	}
	b := types.NewColBatch(len(ts[0]))
	b.AppendRows(ts)
	r.PushDelta(b, 1)
}
