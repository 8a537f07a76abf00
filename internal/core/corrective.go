package core

import (
	"context"
	"fmt"
	"math"
	"slices"

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
	// RunHooks.OnRows or was a standing query's, which delivers it as the
	// baseline update window: then Rows is nil. RowCount is the number of
	// result rows either way.
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

	// OptCalls counts optimizer invocations: the initial plan unless the
	// plan cache supplied it, every monitor decision that reached the
	// optimizer (OnPoll sees only those whose candidate differs in shape),
	// the maintenance set-up's, and plan partitioning's two.
	OptCalls int

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

	// Maintenance outcome (RunMaintenance only). Updates is the signed
	// update stream in emission order — the baseline window, then every
	// watermark's revisions — kept only when no RunHooks.OnUpdates reads
	// it; UpdateCount is its length either way. MaintainedRows is the sum
	// of its signs: the maintained result's size, which the delete clamp
	// keeps non-negative. Maintained is the maintained result in canonical
	// sorted-multiset form — the stream folded — read off the view's own
	// state when the run ends. DeltaRows counts delta-source rows read;
	// DeltaClamped counts deletes dropped for matching no live row;
	// MaintSwitches counts mid-maintenance plan switches. MaintReplayed
	// counts the rows pushed again, through the signed path, to build a
	// maintenance tree: 0 while the initial run's own tree serves.
	Updates        []ivm.Update
	UpdateCount    int64
	MaintainedRows int64
	Maintained     []types.Tuple
	DeltaRows      int64
	DeltaClamped   int64
	MaintSwitches  int
	MaintReplayed  int64
}

// executor carries one run's state.
type executor struct {
	cat *Catalog
	q   *algebra.Query
	o   Options
	ctx *exec.Context
	reg *stats.Registry
	// clones are the partition clones' contexts, each on a spare of its own:
	// release gives them back with ctx.
	clones []*exec.Context

	// runCtx carries cancellation for the whole run; hooks observe it
	// (streaming). out receives every root row; flushed is the row count
	// of the last RowsDelivered watermark; schemaSent latches the one-shot
	// OnSchema.
	runCtx     context.Context
	hooks      RunHooks
	out        *rootRows
	flushed    int64
	schemaSent bool

	// Fault-recovery state, mutated only on the run goroutine (fault
	// events fire synchronously inside source reads). fatal latches the
	// first abandonment under the fail-fast policy and aborts the
	// drivers between batches; stall accumulates injected stall and
	// backoff virtual time, which the corrective monitor reads as a
	// cost-estimate violation (phaseStallBase/phaseT0 scope it to the
	// running phase).
	fatal          error
	stall          int64
	phaseStallBase int64
	phaseT0        int64

	fullSchema *types.Schema
	agg        *exec.AggTable // shared group-by across phases (nil for SPJ)
	outSchema  *types.Schema

	phases   []*PhaseRecord
	consumed map[string]float64 // pre-filter reads per relation (completed phases)
	passed   map[string]float64 // post-filter (completed phases)
	live     map[string]float64 // pre-filter reads including the running phase

	planner *opt.Planner // reoptimizer's
	rep     *Report
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
	rep, err := finish()
	ex.release()
	return rep, err
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
		ctx:      exec.NewRunContext(exec.DefaultCosts()),
		reg:      stats.NewRegistry(),
		runCtx:   ctx,
		hooks:    hooks,
		out:      newRootRows(ctx, hooks),
		consumed: map[string]float64{},
		passed:   map[string]float64{},
		live:     map[string]float64{},
		rep:      &Report{Query: q.Name, Strategy: o.Strategy},
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
	if err := ex.bindOutput(q); err != nil {
		return nil, nil, err
	}

	finish := func() (*Report, error) {
		if ex.agg != nil && !ex.out.standing {
			ex.agg.EmitFinal(ex.out.next)
		}
		ex.rep.Rows, ex.rep.RowCount = ex.out.kept, ex.out.count
		ex.rep.Schema = ex.outSchema
		ex.rep.VirtualSeconds = exec.Seconds(ex.ctx.Clock.Now)
		ex.rep.CPUSeconds = exec.Seconds(ex.ctx.Clock.CPU)
		ex.rep.RealSeconds = elapsed()
		ex.snapshotSourceFaults()
		ex.flushFinal()
		return ex.rep, nil
	}
	return ex, finish, nil
}

// release gives the storage of every structure the run built back to the
// pool for the next run (exec.Context.Release), once its report is final:
// nothing reads the run's trees or lists after. A run that fails skips it
// and leaves its storage to the GC. The contexts give their spares back in
// the reverse of the order they took them: the pool hands out the spare
// given back last first, so in the next run of the same shape each context
// takes the spare the same context filled.
func (ex *executor) release() {
	for _, c := range slices.Backward(ex.clones) {
		c.Release()
	}
	ex.ctx.Release()
}

// cloneContext is a partition clone's context: a run context of its own,
// which the clone uses on its worker and release gives back after the run.
func (ex *executor) cloneContext() *exec.Context {
	c := exec.NewRunContext(ex.ctx.Cost)
	ex.clones = append(ex.clones, c)
	return c
}

// bindOutput derives from q what the run's phases deliver into: the full
// join layout, the final group-by shared across phases (nil for SPJ) and the
// output schema.
func (ex *executor) bindOutput(q *algebra.Query) error {
	ex.fullSchema = q.Relations[0].Schema
	for _, r := range q.Relations[1:] {
		ex.fullSchema = ex.fullSchema.Concat(r.Schema)
	}
	ex.agg, ex.outSchema = nil, ex.fullSchema
	var err error
	switch {
	case len(q.Aggs) > 0 || len(q.GroupBy) > 0:
		if ex.agg, err = exec.NewAggTable(ex.ctx, ex.fullSchema, q.GroupBy, q.Aggs); err == nil {
			ex.outSchema = ex.agg.Schema()
		}
	case len(q.Project) > 0:
		ex.outSchema, err = ex.fullSchema.Project(q.Project)
	}
	return err
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
// counters into the report.
func (ex *executor) snapshotSourceFaults() {
	for _, r := range ex.q.Relations {
		ex.recordFaults(r.Name, ex.cat.Providers[r.Name])
	}
}

// recordFaults reports p's recovery counters under key, if p injects faults
// and any fired (clean runs keep a nil SourceFaults).
func (ex *executor) recordFaults(key string, p source.Provider) {
	fp, ok := p.(*source.Faulty)
	if !ok {
		return
	}
	st := fp.Stats()
	if st == (source.FaultStats{}) {
		return
	}
	if ex.rep.SourceFaults == nil {
		ex.rep.SourceFaults = map[string]source.FaultStats{}
	}
	ex.rep.SourceFaults[key] = st
}

// handleFault is the notify hook for faulty providers: it narrates the
// degradation through the event stream, accumulates the monitor's stall
// signal (backoff waits count as stall time — either way the source fell
// behind its advertised schedule), and applies the failure policy when a
// source is abandoned: latch a fatal error (fail-fast, the default) or
// mark the run partial (Options.PartialResults).
func (ex *executor) handleFault(ev source.FaultEvent) {
	now := ex.now()
	switch ev.Kind {
	case source.FaultEventStalled:
		ex.stall += exec.Nanos(ev.Seconds)
		ex.emit(SourceStalled{Source: ev.Source, Tuple: ev.Tuple, Seconds: ev.Seconds, VirtualSeconds: now})
	case source.FaultEventRetried:
		ex.stall += exec.Nanos(ev.Seconds)
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
// running phase.
func (ex *executor) phaseStall() int64 { return ex.stall - ex.phaseStallBase }

// now is the run's virtual clock reading in the seconds that reports and
// events carry.
func (ex *executor) now() float64 { return exec.Seconds(ex.ctx.Clock.Now) }

// optInputs assembles the optimizer inputs from current observations. It
// runs only after observeLeaves, so live holds every relation's reads.
func (ex *executor) optInputs() opt.Inputs {
	return opt.Inputs{
		Query:    ex.q,
		Known:    ex.o.Known,
		Obs:      ex.reg,
		Consumed: ex.live,
		Cost:     ex.ctx.Cost,
		PreAgg:   ex.o.PreAgg,
	}
}

// reoptimizer hands out the run's planner — the monitors' and the
// maintenance set-up's — for one optimizer call, which it counts. The
// planner is built at the first: a static run, or one whose plan came from
// the plan cache and never polls, builds none.
func (ex *executor) reoptimizer() *opt.Planner {
	if ex.planner == nil {
		// Cannot fail: prepareRun validated q, and the optimization that
		// planned phase 0 (or filled the plan cache) accepted its size.
		ex.planner, _ = opt.NewPlanner(ex.q)
	}
	ex.rep.OptCalls++
	return ex.planner
}

// stitchPenalty estimates the stitch-up work a plan switch would add:
// every tuple already routed to earlier phases must be re-hashed and
// cross-probed against the new phase's partitions, and the combination
// count grows with the phase count (§3.4). This is what keeps the monitor
// from switching gratuitously near the end of a query.
func (ex *executor) stitchPenalty() float64 {
	// Mixed combinations pair consumed partitions with remaining data;
	// with scan/probe side selection the work per combination is bounded
	// by the smaller side, so the penalty tracks min(consumed, remaining)
	// per relation and grows with the phase count.
	var work float64
	for _, rel := range ex.q.Relations {
		consumed := ex.live[rel.Name]
		remaining := math.Max(opt.TotalCard(ex.o.Known, ex.reg, rel.Name)-consumed, 0)
		work += math.Min(consumed, remaining)
	}
	phases := math.Max(1, float64(len(ex.phases)))
	return work * rehashCost(ex.ctx.Cost) * phases
}

// rehashCost is the work a plan switch induces per tuple an earlier plan
// already consumed — a hash insert, a probe and a move — in the optimizer's
// unit, seconds.
func rehashCost(cm *exec.CostModel) float64 {
	return exec.Seconds(cm.HashInsert) + exec.Seconds(cm.HashProbe) + exec.Seconds(cm.Move)
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
		ex.rep.OptCalls++
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
// returns the plan to switch to, nil to carry on. collision is the running
// tree's observed bucket-collision cost multiplier.
func (ex *executor) monitorStep(root algebra.Plan, delivered int64, collision float64) algebra.Plan {
	if ex.o.Strategy != Corrective || len(ex.phases)+1 >= ex.o.MaxPhases {
		return nil
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
		return nil
	}
	if stall > 0 {
		elapsed := max(ex.ctx.Clock.Now-ex.phaseT0, 1)
		collision *= 1 + float64(stall)/float64(elapsed)
	}
	// Only switch while enough data remains for a new plan to matter.
	var remaining, total float64
	for _, rel := range ex.q.Relations {
		tot := opt.TotalCard(ex.o.Known, ex.reg, rel.Name)
		total += tot
		if c := ex.live[rel.Name]; c < tot {
			remaining += tot - c
		}
	}
	if total <= 0 || remaining/total < 0.2 {
		return nil
	}
	// A switch is only worthwhile if the candidate (priced over the
	// remaining data) plus the stitch-up work it induces beats the current
	// plan substantially (§4.1).
	return ex.betterPlan(ex.optInputs(), root, collision, ex.stitchPenalty(), len(ex.phases))
}

// betterPlan is the monitor's decision, the same for a phased run and the
// maintenance stage: price current's remaining work in the optimizer's cost
// units, inflated by its observed bucket-collision factor — hash tables
// sized from wrong estimates cannot be re-bucketed (§4.4), and relieving
// that pain is what a plan switch buys — re-optimize over the same inputs,
// and adopt a candidate of another shape whose cost plus penalty, the work
// the switch itself induces, beats SwitchFactor × the current plan's (nil:
// none does). The decision goes to OnPoll and, taken, out as phase's
// PlanSwitched event.
func (ex *executor) betterPlan(in opt.Inputs, current algebra.Plan, collision, penalty float64, phase int) algebra.Plan {
	p := ex.reoptimizer()
	curModel, _ := p.CostPlan(in, current)
	curRemaining := curModel * collision
	best := p.Optimize(in)
	if samePlanShape(best.Root, current) {
		return nil
	}
	switched := best.Cost+penalty < ex.o.SwitchFactor*curRemaining
	if ex.o.OnPoll != nil {
		ex.o.OnPoll(curRemaining, best.Cost, penalty, switched)
	}
	if !switched {
		return nil
	}
	ex.emit(PlanSwitched{
		Phase:            phase,
		From:             current.String(),
		To:               best.Root.String(),
		CurrentRemaining: curRemaining,
		CandidateCost:    best.Cost,
		StitchPenalty:    penalty,
		VirtualSeconds:   ex.now(),
	})
	return best.Root
}

// runPhase lowers and executes one phase of plan root on the run's
// goroutine; it returns whether the sources are exhausted and, if not, the
// next phase's plan.
func (ex *executor) runPhase(root algebra.Plan) (exhausted bool, next algebra.Plan, err error) {
	ph, err := ex.lowerPhase(root)
	if err != nil {
		return false, nil, err
	}
	return ex.runMonitored(ph)
}

// lowerPhase lowers root into a serial phase: its tree, one leaf per relation
// into the tree's entries.
func (ex *executor) lowerPhase(root algebra.Plan) (*phase, error) {
	sink, err := ex.outputSink(root)
	if err != nil {
		return nil, err
	}
	tree, err := lower(ex.ctx, root, sink, ex.stitches())
	if err != nil {
		return nil, err
	}
	leaves, err := entryLeaves(tree, ex.q.Relations, ex.q.Filters, ex.cat.Providers)
	if err != nil {
		return nil, err
	}
	ph := ex.serialPhase(root, tree, leaves)
	ex.keepBase(ph)
	return ph, nil
}

// runMonitored drives ph under the execution monitor: every poll publishes
// the phase's observations and asks monitorStep whether to abandon the plan.
// Once the next phase or the stitch-up is sure to follow (a switch, or the
// end of a run that switched), ph's join tables give their index storage to
// the run's spare for those to build on; their lists stay.
func (ex *executor) runMonitored(ph *phase) (exhausted bool, next algebra.Plan, err error) {
	exhausted, err = ex.drive(ph, func() bool {
		ex.recordObservations(joinViews(ph.trees), ph.leaves)
		next = ex.monitorStep(ph.root, ph.delivered(), collisionFactor(ph.trees))
		return next != nil
	})
	if err == nil && (!exhausted || len(ex.phases) >= 2) {
		for _, t := range ph.trees {
			for _, j := range t.Joins {
				j.Node.Release(ex.ctx.Spare)
			}
		}
	}
	return exhausted, next, err
}

// runPhaseParallel is runPhase at Options.Partitions: the plan is lowered
// into that many pipeline clones (LowerPartitioned), the leaves — exactly
// a serial phase's: filter pushdown, base-partition capture, counters all
// happen on the driver goroutine — scatter each post-filter run across one
// worker per partition, and the monitor polls at quiesce
// points, the parallel analogue of §4.1's consistent suspension state.
// Where the clones' root output goes is partitionRoots' choice and
// phase.finish's work. Plans without a partitionable shape degrade to the
// serial runPhase.
func (ex *executor) runPhaseParallel(root algebra.Plan) (exhausted bool, next algebra.Plan, err error) {
	roots, merge, tables := ex.partitionRoots(root, ex.o.Partitions)
	pt, lerr := lowerPartitioned(ex.o.Partitions, ex.cloneContext, root, roots, ex.stitches())
	if lerr != nil {
		return ex.runPhase(root)
	}
	ph, err := ex.parallelPhase(root, pt)
	if err != nil {
		return false, nil, err
	}
	ph.merge, ph.tables = merge, tables
	if merge != nil {
		// Where the merge releases SPJ rows.
		if ph.sink, err = ex.outputSink(root); err != nil {
			return false, nil, err
		}
	}
	for i, rel := range ex.q.Relations {
		l, err := leaf(rel, ex.q.Filters, ex.cat.Providers[rel.Name], exec.Feed(ph.par.LeafScatter(i, pt.LeafKeys[rel.Name])))
		if err != nil {
			return false, nil, err
		}
		ph.leaves = append(ph.leaves, l)
	}
	ex.keepBase(ph)
	return ex.runMonitored(ph)
}

// keepBase completes the leaves of a static or corrective phase, one per
// relation: each one's base partition goes into ph.base when a stitch-up or
// a maintenance stage can read it, and optional instrumentation is attached.
// The base partition is shared, the list of the join side the leaf feeds,
// when there is one (Tree.LeafLists): source data is buffered once (§3.4).
// Otherwise the leaf captures it on its way into the plan.
func (ex *executor) keepBase(ph *phase) {
	for i, rel := range ex.q.Relations {
		l := ph.leaves[i]
		if ex.stitches() || ex.out.standing {
			part, _ := ph.trees[0].LeafLists(rel.Name)
			if part == nil {
				part = state.NewList(rel.Schema, ex.ctx.Spare)
				capture, deliver := part, l.PushBatch
				l.PushBatch = func(ts []types.Tuple) {
					capture.InsertBatch(ts)
					deliver(ts)
				}
			}
			ph.base[rel.Name] = part
		}
		if ex.o.Instrument {
			l.OnTuple = ex.instrumentFor(rel)
		}
	}
}

// outputSink is where a phase of plan root delivers the run's output.
func (ex *executor) outputSink(root algebra.Plan) (exec.Sink, error) {
	return ex.rootSinkFor(root.Schema(), ex.agg, ex.fullSchema, ex.outSchema, planHasPreAgg(root), true)
}

// rootSinkFor adapts a root layout — a phase tree's, the stitch-up's — into
// where a run's root rows go: agg, when the query aggregates (the shared
// group-by, a partition's private table, plan partitioning's second-stage
// table), absorbing partials when the layout is pre-aggregated and
// full-layout tuples otherwise; else the run's SPJ result rows in layout
// out. cost charges one Move per SPJ row: a phase's output pays it, a
// stitch-up's was charged when it was concatenated. Each takes signed batches
// too: a phase's tree may become a standing query's maintenance tree.
func (ex *executor) rootSinkFor(from *types.Schema, agg *exec.AggTable, full, out *types.Schema, partial, cost bool) (exec.Sink, error) {
	to := out
	switch {
	case agg != nil && partial:
		to = agg.PartialSchema()
	case agg != nil:
		to = full
	}
	ad, err := types.NewAdapter(from, to)
	switch {
	case err != nil:
		return nil, err
	case agg == nil && cost:
		return &rootSink{ctx: ex.ctx, ad: ad, out: ex.out, move: ex.ctx.Cost.Move}, nil
	case agg == nil:
		return &rootSink{ctx: ex.ctx, ad: ad, out: ex.out}, nil
	case !partial && ad.IsIdentity():
		return agg, nil
	}
	return &aggSink{agg: agg, ad: ad, partial: partial}, nil
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
		return ex.rootSinkFor(root.Schema(), t, ex.fullSchema, nil, planHasPreAgg(root), true)
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

// observeLeaves publishes what the leaves have read on top of the completed
// phases' totals into the shared registry (§3.3): source cardinalities and
// local-filter selectivities.
func (ex *executor) observeLeaves(leaves []*exec.Leaf) {
	for _, l := range leaves {
		name := l.Provider.Name()
		read := ex.consumed[name] + float64(l.Read)
		ex.live[name] = read
		ex.reg.ObserveSource(name, read, l.Provider.Exhausted())
		if read > 0 {
			ex.reg.ObserveExpr(opt.FilterSelKey(name), ex.passed[name]+float64(l.Passed), read, l.Provider.Exhausted())
		}
	}
}

// recordObservations publishes a running phase's statistics: what its leaves
// have read (observeLeaves), per-subexpression join selectivities, and
// multiplicative-join flags.
func (ex *executor) recordObservations(joins []joinView, leaves []*exec.Leaf) {
	ex.observeLeaves(leaves)
	phasePassed := map[string]float64{} // post-filter tuples per relation, this phase
	for _, l := range leaves {
		phasePassed[l.Provider.Name()] = float64(l.Passed)
	}
	for _, j := range joins {
		out, prod := float64(j.Out), 1.0
		for _, r := range j.Rels {
			prod *= phasePassed[r]
		}
		if prod <= 0 {
			continue // an input is still empty: no selectivity to speak of
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

// samePlanShape compares optimizer plans structurally (the relation at every
// leaf, the sides of every join, pre-agg placement); two plans with
// identical shapes differ only in physical detail, so switching would buy
// nothing.
func samePlanShape(a, b algebra.Plan) bool {
	switch x := a.(type) {
	case *algebra.ScanPlan:
		y, ok := b.(*algebra.ScanPlan)
		return ok && x.Rel.Name == y.Rel.Name
	case *algebra.JoinPlan:
		y, ok := b.(*algebra.JoinPlan)
		return ok && samePlanShape(x.Left, y.Left) && samePlanShape(x.Right, y.Right)
	case *algebra.GroupPlan:
		y, ok := b.(*algebra.GroupPlan)
		return ok && samePlanShape(x.Input, y.Input)
	default:
		return false
	}
}

// stitchUp runs the stitch-up phase over recorded phases (§3.4),
// routing its output into the shared aggregate / result set.
func (ex *executor) stitchUp() error {
	if len(ex.phases) < 2 || len(ex.q.Relations) < 2 {
		return nil
	}
	t0 := ex.ctx.Clock.Now
	// The output sink depends on the stitch-up's fold-order schema, so it
	// is bound after construction.
	fwd := &forwardSink{}
	s, err := NewStitchUp(ex.ctx, ex.q, ex.phases, fwd)
	if err != nil {
		return err
	}
	if fwd.out, err = ex.rootSinkFor(s.Schema, ex.agg, ex.fullSchema, ex.outSchema, false, false); err != nil {
		return err
	}
	s.DisableReuse = ex.o.DisableStitchReuse
	ex.emit(StitchUpStarted{Phases: len(ex.phases), VirtualSeconds: exec.Seconds(t0)})
	if err := s.RunContext(ex.runCtx); err != nil {
		return err
	}
	ex.rep.StitchTime = exec.Seconds(ex.ctx.Clock.Now - t0)
	ex.rep.StitchCombos = s.Combos
	ex.rep.Reused = s.Reused
	ex.rep.Discarded = s.Discarded
	return nil
}
