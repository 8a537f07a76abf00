package core

import (
	"context"
	"fmt"
	"math"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// Strategy selects the execution regime compared in Figure 2.
type Strategy uint8

// Execution strategies.
const (
	// Static optimizes once and runs the plan to completion.
	Static Strategy = iota
	// Corrective monitors execution, switches plans mid-stream, and
	// stitches phases together (corrective query processing, §4).
	Corrective
	// PlanPartition materializes after a fixed number of joins and
	// re-optimizes the remainder (Kabra/DeWitt-style, §4.4 baseline).
	PlanPartition
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Static:
		return "static"
	case Corrective:
		return "corrective"
	default:
		return "plan-partitioning"
	}
}

// Catalog maps relation names to their (one-pass, resumable) providers.
// Providers may be fault-injecting wrappers (*source.Faulty): the run
// wires their recovery events into the execution narrative and the
// Report's SourceFaults counters.
type Catalog struct {
	Providers map[string]source.Provider
}

// NewCatalog builds a catalog over relations with the given delivery
// schedule factory (nil = local/immediate).
func NewCatalog(rels map[string]*source.Relation, sched func(rel *source.Relation) source.Schedule) *Catalog {
	c := &Catalog{Providers: map[string]source.Provider{}}
	for name, r := range rels {
		var s source.Schedule
		if sched != nil {
			s = sched(r)
		}
		c.Providers[name] = source.NewProvider(r, s)
	}
	return c
}

// Options configures a run.
type Options struct {
	Strategy Strategy
	// Known supplies source cardinalities ("given cardinalities" mode);
	// nil reproduces the no-statistics configuration.
	Known map[string]float64
	// PollEvery is the monitor polling interval in delivered tuples (the
	// paper polls on a 1-second timer; we poll on delivered volume to
	// stay deterministic). Default 2048.
	PollEvery int
	// SwitchFactor: switch plans when the best alternative is estimated
	// cheaper than SwitchFactor × the current plan's remaining cost.
	// Default 0.7 ("substantially better", §4.1).
	SwitchFactor float64
	// MaxPhases caps phase switching. Default 8.
	MaxPhases int
	// PreAgg selects pre-aggregation handling (Figure 6).
	PreAgg opt.PreAggMode
	// Instrument attaches histograms and order detectors to every leaf,
	// charging their per-tuple overhead (§4.5).
	Instrument bool
	// DisableStitchReuse recomputes all stitch-up combinations from base
	// partitions (ablation of §3.4.2 reuse).
	DisableStitchReuse bool
	// MaterializeAfterJoins is the plan-partitioning breakpoint
	// (default 3, as in §4.4).
	MaterializeAfterJoins int
	// Partitions runs each phase as this many hash-partitioned pipeline
	// clones on worker goroutines (partition-parallel execution): source
	// runs scatter on the consumer's join/group key, every partition runs
	// the full adaptive pipeline over its share with private state —
	// an aggregate query's final group-by included, folded into the shared
	// one in partition order at each phase end — and a deterministic
	// partition-ordered merge collects SPJ root output.
	// <= 1 executes serially (the default). Plans with no partitionable
	// shape (single-relation queries) and the PlanPartition strategy fall
	// back to serial execution automatically.
	Partitions int
	// SourcePolicies maps relation names to their fault-recovery
	// policies (retry attempts, backoff, mirror failover). The engine
	// layer applies them when it opens providers; core itself only
	// carries the configuration.
	SourcePolicies map[string]source.RetryPolicy
	// PartialResults degrades a permanently failed source gracefully:
	// instead of failing the run with a *source.SourceError, execution
	// continues over the tuples the source delivered before dying and
	// the Report is marked Partial with accurate SourceFaults counters.
	PartialResults bool
	// Cost overrides the cost model.
	Cost *exec.CostModel
	// InitialPlan, when non-nil, is adopted as phase 0's plan and the
	// initial optimizer call is skipped entirely (the plan-cache fast
	// path of the query service). The plan must come from a previous
	// optimization of the same query shape under the same inputs —
	// Optimize is deterministic, so a cached plan reproduces the
	// optimizer's choice exactly and the run's rows are byte-identical
	// to an uncached one. Static and Corrective only; the PlanPartition
	// strategy re-optimizes mid-run by design and ignores this field.
	InitialPlan algebra.Plan
	// OnInitialPlan, when set, observes the initial optimized plan —
	// invoked only when the optimizer actually ran (InitialPlan was
	// nil). This is the plan cache's fill hook.
	OnInitialPlan func(algebra.Plan)
	// OnPoll, when set, observes every monitor decision (diagnostics):
	// the extrapolated remaining cost of the current plan, the candidate
	// plan's estimated cost, the stitch-up penalty, and whether a switch
	// was taken.
	OnPoll func(curRemaining, candidate, penalty float64, switched bool)
}

func (o *Options) defaults() {
	if o.PollEvery <= 0 {
		o.PollEvery = 2048
	}
	if o.SwitchFactor <= 0 {
		o.SwitchFactor = 0.7
	}
	if o.MaxPhases <= 0 {
		o.MaxPhases = 8
	}
	if o.MaterializeAfterJoins <= 0 {
		o.MaterializeAfterJoins = 3
	}
}

// PhaseInfo summarizes one execution phase for reports (Table 1/2).
type PhaseInfo struct {
	Plan      string
	Delivered int64
	Seconds   float64 // virtual seconds spent in this phase
	// PartitionSeconds reports the virtual seconds each partition
	// pipeline spent in this phase (partition-parallel runs only), its
	// share of an aggregate query's group-by included; the phase's
	// Seconds covers the slowest partition — the makespan. When
	// the plan repartitions mid-pipeline, cross-partition message
	// interleaving makes these readings scheduling-dependent diagnostics
	// (see exec.ParallelDriver.FoldClocks); results and counters stay
	// exact regardless.
	PartitionSeconds []float64
}

// Report is the outcome of a run.
type Report struct {
	Query    string
	Strategy Strategy
	// Rows is the result, retained — unless the run streamed it through
	// RunHooks.OnRows, in which case the rows went to the hook's consumer
	// and Rows is nil. RowCount is the number of result rows either way.
	Rows     []types.Tuple
	RowCount int64
	Schema   *types.Schema

	Phases       []PhaseInfo
	Switches     int
	StitchTime   float64
	StitchCombos int
	Reused       int64
	Discarded    int64

	VirtualSeconds float64
	CPUSeconds     float64
	RealSeconds    float64

	// Partitions is the partition-parallel width the phases executed with
	// (0 or 1 = serial). Counters and CPUSeconds aggregate across
	// partitions; VirtualSeconds reflects the parallel makespan.
	Partitions int

	// SourceFaults counts per-source fault and recovery activity
	// (injected transients/stalls, retries, failover, abandonment);
	// empty/nil when every source ran clean. Partial reports that at
	// least one source was abandoned and the run degraded to partial
	// results (Options.PartialResults).
	SourceFaults map[string]source.FaultStats
	Partial      bool

	// Leaf instrumentation outcomes (when Options.Instrument).
	Histograms map[string]*stats.Histogram
	Orders     map[string]*stats.OrderDetector

	// Maintenance outcome (RunMaintenance only). Updates is the full
	// signed update stream in emission order: the baseline assertions of
	// the initial result followed by every watermark's revisions.
	// Maintained is ivm.Fold(Updates).Rows() — the maintained result in
	// canonical sorted-multiset form. DeltaRows counts delta-source rows
	// read; DeltaClamped counts deletes dropped for matching no live
	// row; MaintSwitches counts mid-maintenance plan switches.
	Updates       []ivm.Update
	Maintained    []types.Tuple
	DeltaRows     int64
	DeltaClamped  int64
	MaintSwitches int
}

// executor carries one run's state.
type executor struct {
	cat *Catalog
	q   *algebra.Query
	o   Options
	ctx *exec.Context
	reg *stats.Registry

	// runCtx carries cancellation for the whole run; hooks observe it
	// (streaming). out receives every root row; flushed is the row count
	// of the last RowsDelivered watermark; schemaSent latches the one-shot
	// OnSchema.
	runCtx     context.Context
	hooks      RunHooks
	out        *rootRows
	flushed    int64
	schemaSent bool
	// standing marks a RunMaintenance run: its maintenance stage reads the
	// phases' base partitions after the initial run.
	standing bool

	// Fault-recovery state, mutated only on the run goroutine (fault
	// events fire synchronously inside source reads). fatal latches the
	// first abandonment under the fail-fast policy and aborts the
	// drivers between batches; stallSecs accumulates injected stall and
	// backoff virtual seconds, which the corrective monitor reads as a
	// cost-estimate violation (phaseStallBase/phaseT0 scope it to the
	// running phase).
	fatal          error
	stallSecs      float64
	phaseStallBase float64
	phaseT0        float64

	fullSchema *types.Schema
	agg        *exec.AggTable // shared group-by across phases (nil for SPJ)
	outSchema  *types.Schema

	phases   []*PhaseRecord
	consumed map[string]float64 // pre-filter reads per relation (completed phases)
	passed   map[string]float64 // post-filter (completed phases)
	live     map[string]float64 // pre-filter reads including the running phase

	rep *Report
}

// Run executes query q over the catalog with the selected strategy,
// blocking until completion. It is RunStream with no hooks and no
// cancellation — there is exactly one execution code path.
func Run(cat *Catalog, q *algebra.Query, o Options) (*Report, error) {
	return RunStream(context.Background(), cat, q, o, RunHooks{})
}

// RunStream executes query q over the catalog with the selected strategy,
// observing ctx for cancellation and reporting progress through hooks
// (events, incremental root rows, the output schema). Cancellation is
// honored at batch boundaries in the source drivers, between phases, and
// between stitch-up combinations; a canceled run returns ctx.Err() with
// all partition workers joined. The hooks never perturb execution: a run
// with hooks produces byte-identical rows, counters, and clocks to one
// without.
func RunStream(ctx context.Context, cat *Catalog, q *algebra.Query, o Options, hooks RunHooks) (*Report, error) {
	ex, finish, err := prepareRun(ctx, cat, q, o, hooks)
	if err != nil {
		return nil, err
	}
	if err := ex.execute(); err != nil {
		return nil, err
	}
	return finish()
}

// prepareRun validates the query against the catalog and assembles the
// run's executor plus its finish step. Splitting preparation, execution
// (ex.execute), and finalization lets RunMaintenance interpose the
// delta-pump stage between the initial run and the final report while
// sharing every line of the setup and teardown with RunStream.
func prepareRun(ctx context.Context, cat *Catalog, q *algebra.Query, o Options, hooks RunHooks) (*executor, func() (*Report, error), error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o.defaults()
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	for _, r := range q.Relations {
		if _, ok := cat.Providers[r.Name]; !ok {
			return nil, nil, fmt.Errorf("core: catalog has no source %q", r.Name)
		}
	}
	elapsed := reportTimer()
	ex := &executor{
		cat:      cat,
		q:        q,
		o:        o,
		ctx:      exec.NewContext(),
		reg:      stats.NewRegistry(),
		runCtx:   ctx,
		hooks:    hooks,
		out:      newRootRows(ctx, hooks),
		consumed: map[string]float64{},
		passed:   map[string]float64{},
		live:     map[string]float64{},
		rep:      &Report{Query: q.Name, Strategy: o.Strategy},
	}
	if o.Cost != nil {
		ex.ctx.Cost = o.Cost
	}
	if o.Instrument {
		ex.rep.Histograms = map[string]*stats.Histogram{}
		ex.rep.Orders = map[string]*stats.OrderDetector{}
	}
	// Wire fault-injecting providers into the run: recovery events feed
	// the event stream, the Report counters, the monitor's stall signal,
	// and the fail-fast abort. Events fire synchronously on this run's
	// goroutine (inside source reads), so no locking is needed.
	for _, r := range q.Relations {
		if fp, ok := cat.Providers[r.Name].(*source.Faulty); ok {
			fp.SetNotify(ex.handleFault)
		}
	}
	ex.fullSchema = q.Relations[0].Schema
	for _, r := range q.Relations[1:] {
		ex.fullSchema = ex.fullSchema.Concat(r.Schema)
	}
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		agg, err := exec.NewAggTable(ex.ctx, ex.fullSchema, q.GroupBy, q.Aggs)
		if err != nil {
			return nil, nil, err
		}
		ex.agg = agg
		ex.outSchema = agg.Schema()
	} else if len(q.Project) > 0 {
		s, err := ex.fullSchema.Project(q.Project)
		if err != nil {
			return nil, nil, err
		}
		ex.outSchema = s
	} else {
		ex.outSchema = ex.fullSchema
	}

	finish := func() (*Report, error) {
		if ex.agg != nil {
			ex.out.add(ex.agg.EmitFinal())
		}
		ex.rep.Rows, ex.rep.RowCount = ex.out.kept, ex.out.count
		ex.rep.Schema = ex.outSchema
		ex.rep.VirtualSeconds = ex.ctx.Clock.Now
		ex.rep.CPUSeconds = ex.ctx.Clock.CPU
		ex.rep.RealSeconds = elapsed()
		ex.snapshotSourceFaults()
		ex.flushFinal()
		return ex.rep, nil
	}
	return ex, finish, nil
}

// execute runs the initial (full) pass under the selected strategy.
func (ex *executor) execute() error {
	if ex.o.Strategy == PlanPartition {
		// runPlanPartition announces the schema itself: stage-2
		// re-optimization renames columns, reshaping the output.
		return ex.runPlanPartition()
	}
	ex.announceSchema(ex.outSchema)
	return ex.runPhased()
}

// snapshotSourceFaults copies each faulty provider's final recovery
// counters into the report (empty map entries are skipped so clean runs
// keep a nil SourceFaults).
func (ex *executor) snapshotSourceFaults() {
	for _, r := range ex.q.Relations {
		fp, ok := ex.cat.Providers[r.Name].(*source.Faulty)
		if !ok {
			continue
		}
		st := fp.Stats()
		if st == (source.FaultStats{}) {
			continue
		}
		if ex.rep.SourceFaults == nil {
			ex.rep.SourceFaults = map[string]source.FaultStats{}
		}
		ex.rep.SourceFaults[r.Name] = st
	}
}

// handleFault is the notify hook for faulty providers: it narrates the
// degradation through the event stream, accumulates the monitor's stall
// signal (backoff waits count as stall time — either way the source fell
// behind its advertised schedule), and applies the failure policy when a
// source is abandoned: latch a fatal error (fail-fast, the default) or
// mark the run partial (Options.PartialResults).
func (ex *executor) handleFault(ev source.FaultEvent) {
	now := ex.ctx.Clock.Now
	switch ev.Kind {
	case source.FaultEventStalled:
		ex.stallSecs += ev.Seconds
		ex.emit(SourceStalled{Source: ev.Source, Tuple: ev.Tuple, Seconds: ev.Seconds, VirtualSeconds: now})
	case source.FaultEventRetried:
		ex.stallSecs += ev.Seconds
		ex.emit(SourceRetried{Source: ev.Source, Tuple: ev.Tuple, Attempt: ev.Attempt, Backoff: ev.Seconds, VirtualSeconds: now})
	case source.FaultEventFailedOver:
		ex.emit(SourceFailedOver{Source: ev.Source, Tuple: ev.Tuple, VirtualSeconds: now})
	case source.FaultEventAbandoned:
		ex.emit(SourceAbandoned{Source: ev.Source, Tuple: ev.Tuple, Err: ev.Err, Partial: ex.o.PartialResults, VirtualSeconds: now})
		if ex.o.PartialResults {
			ex.rep.Partial = true
		} else if ex.fatal == nil {
			ex.fatal = ev.Err
		}
	}
}

// runFatal is the drivers' between-batches abort check (exec.Driver.Fatal).
func (ex *executor) runFatal() error { return ex.fatal }

// phaseStall is the injected stall+backoff time observed during the
// running phase, in virtual seconds.
func (ex *executor) phaseStall() float64 { return ex.stallSecs - ex.phaseStallBase }

// optInputs assembles the optimizer inputs from current observations.
func (ex *executor) optInputs() opt.Inputs {
	consumed := ex.live
	if len(consumed) == 0 {
		consumed = ex.consumed
	}
	return opt.Inputs{
		Query:    ex.q,
		Known:    ex.o.Known,
		Obs:      ex.reg,
		Consumed: consumed,
		Cost:     ex.ctx.Cost,
		PreAgg:   ex.o.PreAgg,
	}
}

// estTotalCard resolves a source's total cardinality for the monitor:
// known value, else exact for exhausted sources, else the 2x foresight
// heuristic the optimizer uses.
func (ex *executor) estTotalCard(rel string) float64 {
	sc, observed := ex.reg.Source(rel)
	if observed && sc.Complete {
		return sc.Read // exact beats stale advertised cardinalities
	}
	if c, ok := ex.o.Known[rel]; ok && c > 0 && (!observed || sc.Read <= c) {
		return c
	}
	if observed {
		return math.Max(2*sc.Read, opt.DefaultCard)
	}
	return opt.DefaultCard
}

// treeCollisionFactor measures how much the running plan's fixed-bucket
// hash tables are suffering: the worst join table's expected probe-chain
// length, converted to a cost multiplier ((1+chain)/2, since probes are
// roughly half of join work). Healthy tables yield 1.
func treeCollisionFactor(tree *Tree) float64 {
	worst := 1.0
	for _, j := range tree.Joins {
		l, r := j.Node.Tables()
		for _, t := range []state.Keyed{l, r} {
			ht, ok := t.(*state.HashTable)
			if !ok || ht == nil || ht.Buckets() == 0 {
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
	return worst
}

// stitchPenalty estimates the stitch-up work a plan switch would add:
// every tuple already routed to earlier phases must be re-hashed and
// cross-probed against the new phase's partitions, and the combination
// count grows with the phase count (§3.4). This is what keeps the monitor
// from switching gratuitously near the end of a query.
func (ex *executor) stitchPenalty() float64 {
	cm := ex.ctx.Cost
	perTuple := cm.HashInsert + cm.HashProbe + cm.Move
	// Mixed combinations pair consumed partitions with remaining data;
	// with scan/probe side selection the work per combination is bounded
	// by the smaller side, so the penalty tracks min(consumed, remaining)
	// per relation and grows with the phase count.
	var work float64
	for _, rel := range ex.q.Relations {
		consumed := ex.live[rel.Name]
		remaining := math.Max(ex.estTotalCard(rel.Name)-consumed, 0)
		work += math.Min(consumed, remaining)
	}
	phases := math.Max(1, float64(len(ex.phases)))
	return work * perTuple * phases
}

// runPhased executes the Static and Corrective strategies.
func (ex *executor) runPhased() error {
	current := ex.o.InitialPlan
	if current == nil {
		initial, err := opt.Optimize(opt.Inputs{
			Query: ex.q, Known: ex.o.Known, Cost: ex.ctx.Cost, PreAgg: ex.o.PreAgg,
		})
		if err != nil {
			return err
		}
		current = initial.Root
		if ex.o.OnInitialPlan != nil {
			ex.o.OnInitialPlan(current)
		}
	}
	var err error
	for {
		if cerr := ex.runCtx.Err(); cerr != nil {
			return cerr
		}
		var exhausted bool
		var next algebra.Plan
		if ex.o.Partitions > 1 {
			exhausted, next, err = ex.runPhaseParallel(current)
		} else {
			exhausted, next, err = ex.runPhase(current)
		}
		if err != nil {
			return err
		}
		if exhausted {
			break
		}
		ex.rep.Switches++
		current = next
	}
	return ex.stitchUp()
}

// monitorStep makes one corrective-monitor decision over a consistent
// snapshot of the running phase (observations already recorded): whether
// to abandon the current plan for a substantially better one (§4.1). It
// returns the plan to switch to, if any. collision is the running tree's
// observed bucket-collision cost multiplier.
func (ex *executor) monitorStep(root algebra.Plan, delivered int64, collision float64) (algebra.Plan, bool) {
	if ex.o.Strategy != Corrective || len(ex.phases)+1 >= ex.o.MaxPhases {
		return nil, false
	}
	// A stalled (or retry-delayed) source is a cost-estimate violation in
	// its own right: the plan was priced assuming the advertised arrival
	// schedule, and every injected stall second invalidates that price.
	// Stall time observed this phase waives the steady-state cooldown and
	// inflates the current plan's remaining-cost estimate in proportion
	// to how much of the phase was spent stalled — the paper's adaptivity
	// machinery absorbing faults as just another runtime signal.
	stall := ex.phaseStall()
	// Cooldown: let the phase reach steady state before judging it —
	// the monitor needs stable observed rates (§4.1's "stable,
	// consistent" behaviour under a 1-second interval).
	if delivered < int64(3*ex.o.PollEvery) && stall <= 0 {
		return nil, false
	}
	if stall > 0 {
		elapsed := math.Max(ex.ctx.Clock.Now-ex.phaseT0, 1e-9)
		collision *= 1 + stall/elapsed
	}
	// Only switch while enough data remains for a new plan to matter.
	var remaining, total float64
	for _, rel := range ex.q.Relations {
		tot := ex.estTotalCard(rel.Name)
		total += tot
		if c := ex.live[rel.Name]; c < tot {
			remaining += tot - c
		}
	}
	if total <= 0 || remaining/total < 0.2 {
		return nil, false
	}
	// Price the current plan's remaining work in the optimizer's cost
	// units, inflated by the plan's observed bucket-collision factor:
	// hash tables sized from wrong estimates cannot be re-bucketed
	// (§4.4), and relieving that pain is what a plan switch buys.
	in := ex.optInputs()
	curModel, _ := opt.CostPlan(in, root)
	curRemaining := curModel * collision
	best, err := opt.Optimize(in)
	if err != nil {
		return nil, false
	}
	if samePlanShape(best.Root, root) {
		return nil, false
	}
	// A switch is only worthwhile if the candidate (priced over the
	// remaining data) plus the stitch-up work it induces beats the
	// current plan substantially (§4.1).
	penalty := ex.stitchPenalty()
	switched := best.Cost+penalty < ex.o.SwitchFactor*curRemaining
	if ex.o.OnPoll != nil {
		ex.o.OnPoll(curRemaining, best.Cost, penalty, switched)
	}
	if switched {
		ex.emit(PlanSwitched{
			Phase:            len(ex.phases),
			From:             root.String(),
			To:               best.Root.String(),
			CurrentRemaining: curRemaining,
			CandidateCost:    best.Cost,
			StitchPenalty:    penalty,
			VirtualSeconds:   ex.ctx.Clock.Now,
		})
		return best.Root, true
	}
	return nil, false
}

// phaseRun is one serial phase lowered and wired, ready for its driver.
type phaseRun struct {
	rec    *PhaseRecord
	tree   *Tree
	leaves []*exec.Leaf
	passed map[string]float64 // post-filter tuples per relation, this phase
}

// runPhase lowers and executes one phase of plan root; it returns whether
// the sources are exhausted and, if not, the next phase's plan.
func (ex *executor) runPhase(root algebra.Plan) (exhausted bool, next algebra.Plan, err error) {
	ph, err := ex.wirePhase(root)
	if err != nil {
		return false, nil, err
	}
	return ex.drivePhase(ph)
}

// wirePhase lowers root into the next phase's tree and wires one leaf per
// relation into it: filter pushdown, the base partition, counters.
func (ex *executor) wirePhase(root algebra.Plan) (*phaseRun, error) {
	ph := &phaseRun{
		rec: &PhaseRecord{
			ID:        len(ex.phases),
			Plan:      root,
			BaseParts: map[string]*state.List{},
			Interm:    map[string]*state.List{},
		},
		passed: map[string]float64{},
	}
	sink, err := ex.outputSink(root)
	if err != nil {
		return nil, err
	}
	if ph.tree, err = lower(ex.ctx, root, sink, ex.stitches()); err != nil {
		return nil, err
	}
	for _, rel := range ex.q.Relations {
		entry, ok := ph.tree.EntryBatch[rel.Name]
		if !ok {
			return nil, fmt.Errorf("core: plan is missing relation %q", rel.Name)
		}
		leaf, err := ex.wireLeaf(ph.rec, rel, ph.passed, ph.tree.LeafLists[rel.Name], entry)
		if err != nil {
			return nil, err
		}
		ph.leaves = append(ph.leaves, leaf)
	}
	return ph, nil
}

// drivePhase runs a wired phase until its sources are exhausted or the
// monitor switches plans, and records what it leaves behind.
func (ex *executor) drivePhase(ph *phaseRun) (exhausted bool, next algebra.Plan, err error) {
	rec, tree, leaves, root := ph.rec, ph.tree, ph.leaves, ph.rec.Plan
	driver := exec.NewDriver(ex.ctx, leaves...)
	driver.Fatal = ex.runFatal
	t0 := ex.ctx.Clock.Now
	ex.phaseT0, ex.phaseStallBase = t0, ex.stallSecs
	ex.emit(PhaseStarted{Phase: rec.ID, Plan: root.String(), Partitions: 1, VirtualSeconds: t0})

	var switchTo algebra.Plan
	poll := func() bool {
		ex.flushRows()
		ex.recordObservations(tree.joinViews(), leaves, ph.passed)
		if next, ok := ex.monitorStep(root, driver.Delivered, treeCollisionFactor(tree)); ok {
			switchTo = next
			return true
		}
		return false
	}

	exhausted, rerr := driver.RunContext(ex.runCtx, ex.o.PollEvery, poll)
	if rerr != nil {
		return false, nil, rerr
	}
	tree.Finish()
	ex.recordObservations(tree.joinViews(), leaves, ph.passed)
	// Fold this phase's reads into the completed-phase totals.
	for _, l := range leaves {
		ex.consumed[l.Provider.Name()] += float64(l.Read)
		ex.passed[l.Provider.Name()] += float64(l.Passed)
	}

	// Register materialized intermediates for stitch-up reuse; the root
	// join's output was never materialized and leaves its row count.
	if ex.stitches() {
		for _, j := range tree.Joins {
			if j.ResultBuf == nil {
				rec.RootRows = j.Node.Counters().Out
				continue
			}
			rec.Interm[j.Key] = j.ResultBuf
		}
	}
	ex.phases = append(ex.phases, rec)
	ex.rep.Phases = append(ex.rep.Phases, PhaseInfo{
		Plan:      root.String(),
		Delivered: driver.Delivered,
		Seconds:   ex.ctx.Clock.Now - t0,
	})
	ex.flushRows()
	return exhausted, switchTo, nil
}

// runPhaseParallel is runPhase's partition-parallel sibling: the plan is
// lowered into Options.Partitions pipeline clones (LowerPartitioned), an
// exec.ParallelDriver scatters each source run across one worker per
// partition, and the corrective monitor polls at quiesce points — the
// parallel analogue of §4.1's consistent suspension state. An aggregate
// query aggregates inside its partitions: each clone's root join feeds a
// private AggTable on the clone's own context, and the P tables fold into
// the shared one group by group once the phase has finished — state in
// proportion to the groups, never to the join output. SPJ root output
// merges into the result in deterministic partition order. Plans without a
// partitionable shape degrade to the serial runPhase.
func (ex *executor) runPhaseParallel(root algebra.Plan) (exhausted bool, next algebra.Plan, err error) {
	parts := ex.o.Partitions
	roots, merge, tables := ex.partitionRoots(root, parts)
	pt, lerr := lowerPartitioned(parts, ex.ctx.Cost, root, roots, ex.stitches())
	if lerr != nil {
		return ex.runPhase(root)
	}
	phaseID := len(ex.phases)
	rec := &PhaseRecord{
		ID:        phaseID,
		Plan:      root,
		BaseParts: map[string]*state.List{},
		Interm:    map[string]*state.List{},
	}
	var sink exec.Sink // where the merge releases SPJ rows
	if merge != nil {
		if sink, err = ex.outputSink(root); err != nil {
			return false, nil, err
		}
	}
	rels := make([]string, len(ex.q.Relations))
	for i, r := range ex.q.Relations {
		rels[i] = r.Name
	}
	handlers, err := pt.Handlers(rels)
	if err != nil {
		return false, nil, err
	}
	pd := exec.NewParallelDriver(ex.ctx, pt.Ctxs)
	pd.Bind(handlers, pt.RunFinisher, pt.FinishSteps())
	pt.Bind(pd.StageSend, len(rels))

	// Wire leaves exactly like the serial phase — filter pushdown,
	// base-partition capture, counters all happen on the driver goroutine
	// — then scatter each post-filter run across the partitions.
	phasePassed := map[string]float64{}
	var leaves []*exec.Leaf
	for i, rel := range ex.q.Relations {
		leaf, err := ex.wireLeaf(rec, rel, phasePassed, nil, pd.LeafScatter(i, pt.LeafKeys[rel.Name]).PushBatch)
		if err != nil {
			return false, nil, err
		}
		leaves = append(leaves, leaf)
	}
	t0 := ex.ctx.Clock.Now
	ex.phaseT0, ex.phaseStallBase = t0, ex.stallSecs
	pd.Fatal = ex.runFatal
	ex.emit(PhaseStarted{Phase: phaseID, Plan: root.String(), Partitions: parts, VirtualSeconds: t0})

	var switchTo algebra.Plan
	poll := func() bool {
		// The parallel driver quiesces the pipelines before every poll,
		// so per-partition operator state is safe to read here — and the
		// partition buffers are stable, so the order-releasing merge can
		// stream the globally-ordered prefix of root output now instead
		// of holding everything for the phase-end drain. SPJ first rows
		// therefore reach the client mid-phase, exactly as in a serial
		// phase; the total order is unchanged (the prefix property).
		if merge != nil {
			merge.ReleasePrefix(sink)
		}
		ex.flushRows()
		ex.recordObservations(pt.JoinViews(), leaves, phasePassed)
		if next, ok := ex.monitorStep(root, pd.Delivered(), pt.CollisionFactor()); ok {
			switchTo = next
			return true
		}
		return false
	}

	exhausted, rerr := pd.RunContext(ex.runCtx, leaves, ex.o.PollEvery, poll)
	if rerr != nil {
		// Canceled mid-phase: the pipelines have quiesced; join the
		// workers before unwinding so nothing leaks.
		pd.Close()
		return false, nil, rerr
	}
	pd.Finish()
	pd.Close()
	// Fold partition clocks (makespan + total CPU) into the main clock,
	// then — on this goroutine, in ascending partition order — merge SPJ
	// root output into the result, or the partitions' aggregate tables into
	// the shared one. Both orders are fixed, so a group confined to one
	// partition ends with the very sum its partition computed, and a group
	// spanning several adds their sums in the same order every run.
	pd.FoldClocks()
	if merge != nil {
		merge.Drain(sink)
	}
	for _, t := range tables {
		if err := ex.agg.MergeFrom(t); err != nil {
			return false, nil, err
		}
	}
	ex.recordObservations(pt.JoinViews(), leaves, phasePassed)
	for _, l := range leaves {
		ex.consumed[l.Provider.Name()] += float64(l.Read)
		ex.passed[l.Provider.Name()] += float64(l.Passed)
	}
	// Register merged materialized intermediates for stitch-up reuse —
	// only the corrective strategy can grow a second phase, so any other
	// run materialized nothing to merge.
	if ex.stitches() {
		rec.Interm, rec.RootRows = pt.MergedInterm()
	}
	// Partition clocks run on the absolute virtual timeline (arrivals are
	// stamped with the driver clock, which carries prior phases' time), so
	// the per-phase reading is the delta against the phase start.
	partSecs := make([]float64, parts)
	for p, c := range pt.Ctxs {
		if s := c.Clock.Now - t0; s > 0 {
			partSecs[p] = s
		}
	}
	ex.phases = append(ex.phases, rec)
	ex.rep.Partitions = parts
	ex.rep.Phases = append(ex.rep.Phases, PhaseInfo{
		Plan:             root.String(),
		Delivered:        pd.Delivered(),
		Seconds:          ex.ctx.Clock.Now - t0,
		PartitionSeconds: partSecs,
	})
	ex.emit(PartitionStats{
		Phase:          phaseID,
		Delivered:      pd.Delivered(),
		Seconds:        partSecs,
		VirtualSeconds: ex.ctx.Clock.Now,
	})
	ex.flushRows()
	return exhausted, switchTo, nil
}

// wireLeaf builds one phase leaf — filter pushdown, the base partition
// recorded in rec (when a stitch-up or a maintenance stage can read it),
// phasePassed counting, optional instrumentation — delivering post-filter
// tuples to pushBatch (the plan entry in a serial phase, the partition
// scatter in a parallel one). The base partition is shared, the list of the
// join side pushBatch feeds, when there is one (Tree.LeafLists): source data
// is buffered once (§3.4). Otherwise the leaf captures it.
func (ex *executor) wireLeaf(rec *PhaseRecord, rel algebra.RelRef, phasePassed map[string]float64, shared *state.List, pushBatch func([]types.Tuple)) (*exec.Leaf, error) {
	var capture *state.List
	if ex.stitches() || ex.standing {
		if shared == nil {
			capture = state.NewList(rel.Schema)
			shared = capture
		}
		rec.BaseParts[rel.Name] = shared
	}
	var pred func(types.Tuple) bool
	if p, ok := ex.q.Filters[rel.Name]; ok && p != nil {
		bound, err := p.BindPred(rel.Schema)
		if err != nil {
			return nil, err
		}
		pred = bound
	}
	name := rel.Name
	leaf := &exec.Leaf{
		Provider: ex.cat.Providers[name],
		Pred:     pred,
		PushBatch: func(ts []types.Tuple) {
			if capture != nil {
				capture.InsertBatch(ts)
			}
			phasePassed[name] += float64(len(ts))
			pushBatch(ts)
		},
	}
	if ex.o.Instrument {
		leaf.OnTuple = ex.instrumentFor(rel)
	}
	return leaf, nil
}

// outputSink adapts a phase tree's root layout into the shared group-by
// operator (raw or partial form) or the run's SPJ result rows.
func (ex *executor) outputSink(root algebra.Plan) (exec.Sink, error) {
	if ex.agg != nil {
		return ex.aggregateSink(ex.agg, root)
	}
	ad, err := types.NewAdapter(root.Schema(), ex.outSchema)
	if err != nil {
		return nil, err
	}
	return &rootSink{ctx: ex.ctx, ad: ad, out: ex.out, cost: true}, nil
}

// aggregateSink adapts root's layout into agg — the shared group-by or a
// partition's private table of the same shape — in partial form when the
// plan pre-aggregates, raw otherwise.
func (ex *executor) aggregateSink(agg *exec.AggTable, root algebra.Plan) (exec.Sink, error) {
	if planHasPreAgg(root) {
		ad, err := types.NewAdapter(root.Schema(), agg.PartialSchema())
		if err != nil {
			return nil, err
		}
		return &aggSink{agg: agg, ad: ad, partial: true}, nil
	}
	ad, err := types.NewAdapter(root.Schema(), ex.fullSchema)
	if err != nil {
		return nil, err
	}
	if ad.IsIdentity() {
		return agg, nil
	}
	return &aggSink{agg: agg, ad: ad}, nil
}

// partitionRoots decides where the clones of one parallel phase deliver
// their root output. An SPJ query's rows go to a PartitionMerge, whose
// partition order is the result order. An aggregate query's go to one
// private AggTable per partition, built on that partition's context so it
// charges that partition's clock; the caller folds tables into the shared
// group-by when the phase ends and drops them if it is canceled.
func (ex *executor) partitionRoots(root algebra.Plan, parts int) (roots rootSinks, merge *exec.PartitionMerge, tables []*exec.AggTable) {
	if ex.agg == nil {
		merge = exec.NewPartitionMerge(parts)
		return mergeRoots(merge), merge, nil
	}
	tables = make([]*exec.AggTable, parts)
	return func(p int, ctx *exec.Context) (exec.Sink, error) {
		t, err := exec.NewAggTable(ctx, ex.fullSchema, ex.q.GroupBy, ex.q.Aggs)
		if err != nil {
			return nil, err
		}
		tables[p] = t
		return ex.aggregateSink(t, root)
	}, nil, tables
}

// stitches reports whether a stitch-up can ever read what a phase leaves
// behind: only the corrective strategy runs a second phase.
func (ex *executor) stitches() bool { return ex.o.Strategy == Corrective }

func planHasPreAgg(p algebra.Plan) bool {
	switch v := p.(type) {
	case *algebra.JoinPlan:
		return planHasPreAgg(v.Left) || planHasPreAgg(v.Right)
	case *algebra.GroupPlan:
		return v.Partial || planHasPreAgg(v.Input)
	case *algebra.ProjectPlan:
		return planHasPreAgg(v.Input)
	default:
		return false
	}
}

// instrumentFor attaches a histogram (on the relation's first join column)
// and an order detector to a leaf (§4.5).
func (ex *executor) instrumentFor(rel algebra.RelRef) func(types.Tuple) {
	col := -1
	for _, j := range ex.q.Joins {
		if j.LeftRel == rel.Name {
			col = rel.Schema.IndexOf(j.LeftCol)
			break
		}
		if j.RightRel == rel.Name {
			col = rel.Schema.IndexOf(j.RightCol)
			break
		}
	}
	if col < 0 {
		col = 0
	}
	h := stats.NewHistogram(stats.DefaultBuckets)
	od := stats.NewOrderDetector()
	ex.rep.Histograms[rel.Name] = h
	ex.rep.Orders[rel.Name] = od
	return func(t types.Tuple) {
		h.Add(t[col])
		od.Observe(t[col])
	}
}

// joinView is the monitor's consistent snapshot of one logical join:
// identity plus counters, aggregated across partition clones when the
// phase runs partition-parallel.
type joinView struct {
	Key   string
	Rels  []string
	Preds []algebra.JoinPred

	Out, InLeft, InRight int64
}

// joinViews snapshots the tree's join counters for the monitor.
func (t *Tree) joinViews() []joinView {
	out := make([]joinView, len(t.Joins))
	for i, j := range t.Joins {
		c := j.Node.Counters()
		out[i] = joinView{
			Key: j.Key, Rels: j.Rels, Preds: j.Preds,
			Out: c.Out, InLeft: c.InLeft, InRight: c.InRight,
		}
	}
	return out
}

// recordObservations publishes runtime statistics into the shared registry
// (§3.3): source cardinalities, local-filter selectivities, per-
// subexpression join selectivities, and multiplicative-join flags.
func (ex *executor) recordObservations(joins []joinView, leaves []*exec.Leaf, phasePassed map[string]float64) {
	totRead := map[string]float64{}
	totPassed := map[string]float64{}
	for name, v := range ex.consumed {
		totRead[name] = v
	}
	for name, v := range ex.passed {
		totPassed[name] = v
	}
	for _, l := range leaves {
		name := l.Provider.Name()
		totRead[name] += float64(l.Read)
		totPassed[name] += float64(l.Passed)
		ex.live[name] = totRead[name]
		ex.reg.ObserveSource(name, totRead[name], l.Provider.Exhausted())
		if totRead[name] > 0 {
			ex.reg.ObserveExpr(opt.FilterSelKey(name), totPassed[name], totRead[name], l.Provider.Exhausted())
		}
	}
	for _, j := range joins {
		out := float64(j.Out)
		prod := 1.0
		ok := true
		for _, r := range j.Rels {
			p := phasePassed[r]
			if p <= 0 {
				ok = false
				break
			}
			prod *= p
		}
		if !ok || prod <= 0 {
			continue
		}
		ex.reg.ObserveExpr(j.Key, out, prod, false)
		// Multiplicative flagging (§4.2): output exceeds both inputs.
		maxIn := math.Max(float64(j.InLeft), float64(j.InRight))
		if maxIn > 100 && out > 1.2*maxIn {
			for _, p := range j.Preds {
				ex.reg.FlagMultiplicative(p.String(), out/maxIn)
			}
		}
	}
}

// samePlanShape compares join trees structurally (keys of every join node
// plus pre-agg placement); two plans with identical shapes differ only in
// physical detail, so switching would buy nothing.
func samePlanShape(a, b algebra.Plan) bool {
	return shapeKey(a) == shapeKey(b)
}

func shapeKey(p algebra.Plan) string {
	switch v := p.(type) {
	case *algebra.ScanPlan:
		return v.Rel.Name
	case *algebra.JoinPlan:
		return "(" + shapeKey(v.Left) + "⋈" + shapeKey(v.Right) + ")"
	case *algebra.GroupPlan:
		return "γ(" + shapeKey(v.Input) + ")"
	case *algebra.ProjectPlan:
		return shapeKey(v.Input)
	default:
		return "?"
	}
}

// stitchUp runs the stitch-up phase over recorded phases (§3.4),
// routing its output into the shared aggregate / result set.
func (ex *executor) stitchUp() error {
	if len(ex.phases) < 2 || len(ex.q.Relations) < 2 {
		return nil
	}
	t0 := ex.ctx.Clock.Now
	var sink exec.Sink
	var prep func(*StitchUp) error
	if ex.agg != nil {
		prep = func(s *StitchUp) error {
			ad, err := types.NewAdapter(s.Schema, ex.fullSchema)
			if err != nil {
				return err
			}
			sink = &aggSink{agg: ex.agg, ad: ad}
			return nil
		}
	} else {
		prep = func(s *StitchUp) error {
			ad, err := types.NewAdapter(s.Schema, ex.outSchema)
			if err != nil {
				return err
			}
			sink = &rootSink{ctx: ex.ctx, ad: ad, out: ex.out}
			return nil
		}
	}
	// The output sink depends on the stitch-up's fold-order schema, so it
	// is bound after construction.
	fwd := &forwardSink{}
	s, err := NewStitchUp(ex.ctx, ex.q, ex.phases, fwd)
	if err != nil {
		return err
	}
	if err := prep(s); err != nil {
		return err
	}
	fwd.out = sink
	s.DisableReuse = ex.o.DisableStitchReuse
	ex.emit(StitchUpStarted{Phases: len(ex.phases), VirtualSeconds: t0})
	if err := s.RunContext(ex.runCtx); err != nil {
		return err
	}
	ex.rep.StitchTime = ex.ctx.Clock.Now - t0
	ex.rep.StitchCombos = s.Combos
	ex.rep.Reused = s.Reused
	ex.rep.Discarded = s.Discarded
	return nil
}
