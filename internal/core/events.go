package core

import (
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/types"
)

// Event is a typed notification emitted by a streaming run. Events
// narrate the adaptive-execution lifecycle — the phase transitions, plan
// switches, and stitch-up work that a blocking Execute only reports post
// hoc — in the order they happen on the execution timeline: a corrective
// run that switches plans emits PhaseStarted (phase 0), then PlanSwitched,
// then PhaseStarted (phase 1), …, then StitchUpStarted. Events carry the
// virtual clock reading at emission, so a consumer can reconstruct the
// run's timeline without a Report.
//
// Concrete event types: PhaseStarted, PlanSwitched, StitchUpStarted,
// PartitionStats, RowsDelivered, and the source-degradation narrative
// SourceStalled, SourceRetried, SourceFailedOver, SourceAbandoned.
type Event interface {
	// event restricts implementations to this package's concrete types.
	event()
}

// PhaseStarted marks the start of one execution phase: the initial plan,
// every post-switch plan, and both plan-partitioning stages.
type PhaseStarted struct {
	// Phase is the 0-based phase index.
	Phase int
	// Plan is the phase's algebra plan rendering.
	Plan string
	// Partitions is the phase's partition-parallel width (1 = serial).
	Partitions int
	// VirtualSeconds is the clock reading when the phase began.
	VirtualSeconds float64
}

func (PhaseStarted) event() {}

// PlanSwitched reports a corrective-monitor decision to abandon the
// running plan (§4.1): the cost estimates that triggered the switch and
// the plans involved. The next PhaseStarted event carries the new plan.
type PlanSwitched struct {
	// Phase is the index of the phase being abandoned.
	Phase int
	// From and To render the abandoned and adopted plans.
	From, To string
	// CurrentRemaining is the extrapolated remaining cost of the running
	// plan (inflated by its observed bucket-collision factor).
	CurrentRemaining float64
	// CandidateCost is the adopted plan's estimated cost over the
	// remaining data.
	CandidateCost float64
	// StitchPenalty is the estimated stitch-up work the switch induces;
	// the switch fired because CandidateCost + StitchPenalty beat
	// SwitchFactor × CurrentRemaining.
	StitchPenalty float64
	// VirtualSeconds is the clock reading at the decision.
	VirtualSeconds float64
}

func (PlanSwitched) event() {}

// StitchUpStarted marks the start of the cross-phase stitch-up (§3.4):
// all sources are exhausted and the run is combining partial results from
// its phases.
type StitchUpStarted struct {
	// Phases is the number of executed phases being stitched.
	Phases int
	// VirtualSeconds is the clock reading when stitch-up began.
	VirtualSeconds float64
}

func (StitchUpStarted) event() {}

// PartitionStats reports per-partition timing for one completed
// partition-parallel phase.
type PartitionStats struct {
	// Phase is the 0-based phase index.
	Phase int
	// Delivered is the phase's source-tuple delivery count.
	Delivered int64
	// Seconds holds each partition pipeline's virtual seconds in this
	// phase (read-only; shared with the report's PhaseInfo).
	Seconds []float64
	// VirtualSeconds is the clock reading (the phase makespan folded in)
	// at emission.
	VirtualSeconds float64
}

func (PartitionStats) event() {}

// RowsDelivered is a result-delivery watermark: the cumulative number of
// root result rows made available to the consumer so far. Emitted at
// monitor poll boundaries and phase ends whenever rows were produced since
// the last watermark, and at run completion (full batches reach the
// consumer as they fill, ahead of the watermark that counts them).
// Blocking queries (aggregates) emit a single watermark when the final
// groups are released.
type RowsDelivered struct {
	// Rows is the cumulative root-row count.
	Rows int64
	// VirtualSeconds is the clock reading at the flush.
	VirtualSeconds float64
}

func (RowsDelivered) event() {}

// SourceStalled reports an injected (or observed) source stall: the
// source's tuples from Tuple onward arrive Seconds virtual seconds later
// than scheduled. The corrective monitor treats accumulated stall time as
// a cost-estimate violation, making the running plan eligible for a
// switch.
type SourceStalled struct {
	// Source names the stalled source.
	Source string
	// Tuple is the delivered watermark when the stall hit.
	Tuple int
	// Seconds is the stall duration in virtual seconds.
	Seconds float64
	// VirtualSeconds is the clock reading at the observation.
	VirtualSeconds float64
}

func (SourceStalled) event() {}

// SourceRetried reports one recovered read attempt: a transient fault
// failed the read and the retry policy waited Backoff virtual seconds
// before attempt Attempt+1.
type SourceRetried struct {
	// Source names the faulting source.
	Source string
	// Tuple is the delivered watermark of the failing read.
	Tuple int
	// Attempt numbers the retry, starting at 1.
	Attempt int
	// Backoff is the wait charged before this retry, in virtual seconds.
	Backoff float64
	// VirtualSeconds is the clock reading at the observation.
	VirtualSeconds float64
}

func (SourceRetried) event() {}

// SourceFailedOver reports that a source exhausted its retries (or died
// permanently) and switched to its mirror, resuming at the consumed
// watermark — the reader sees every tuple index exactly once.
type SourceFailedOver struct {
	// Source names the source.
	Source string
	// Tuple is the watermark the mirror resumed at.
	Tuple int
	// VirtualSeconds is the clock reading at the failover.
	VirtualSeconds float64
}

func (SourceFailedOver) event() {}

// SourceAbandoned reports a permanently failed source that recovery could
// not save. Under the default fail-fast policy the run terminates with
// Err (a *source.SourceError); with partial results enabled the run
// continues over the delivered prefix and the final Report is marked
// Partial.
type SourceAbandoned struct {
	// Source names the dead source.
	Source string
	// Tuple is the delivered watermark: tuples 0..Tuple-1 made it out.
	Tuple int
	// Err is the terminal *source.SourceError.
	Err error
	// Partial reports whether the run degrades to partial results
	// (true) or fails with Err (false).
	Partial bool
	// VirtualSeconds is the clock reading at the abandonment.
	VirtualSeconds float64
}

func (SourceAbandoned) event() {}

// MaintenanceStarted marks the transition from the initial run to the
// maintenance stage of a standing query: the initial result is complete
// and the delta streams are about to be pumped.
type MaintenanceStarted struct {
	// Relations names the relations with registered delta streams.
	Relations []string
	// VirtualSeconds is the clock reading when maintenance began.
	VirtualSeconds float64
}

func (MaintenanceStarted) event() {}

// UpdateWatermark is the maintenance counterpart of RowsDelivered: a
// consistency point at which the update stream delivered so far folds to
// an exact query result over the bases as of this point. Seq 0 is the
// baseline watermark (the initial result as assertions, emitted even
// when empty); subsequent watermarks fire at maintenance poll
// boundaries whenever revisions were produced.
type UpdateWatermark struct {
	// Seq numbers the watermark, starting at 0 (the baseline).
	Seq int
	// Updates is the number of updates flushed by this watermark.
	Updates int
	// DeltaRows is the cumulative delta-source row count consumed.
	DeltaRows int64
	// VirtualSeconds is the clock reading at the flush.
	VirtualSeconds float64
}

func (UpdateWatermark) event() {}

// RunHooks observe a streaming run. All hooks are optional (nil = off)
// and are invoked synchronously on the run's goroutine, in execution
// order; they must not call back into the run.
type RunHooks struct {
	// Emit receives lifecycle events (see Event).
	Emit func(Event)
	// OnRows receives newly produced root result rows, in result order,
	// every row exactly once, never an empty batch. The batch is lent: the
	// slice and the tuples' storage belong to the run and are overwritten
	// once the batch is released — when the hook returns, or, with a
	// Lender, when the holder calls Lender.Release for it. A hook that
	// keeps rows longer clones them. With OnRows set the Report carries
	// RowCount only and Rows stays nil; the concatenation of all batches
	// equals, byte for byte, the Rows of the same run without the hook.
	OnRows func(rows []types.Tuple)
	// Lender, when set with OnRows, is the window of batches OnRows lends
	// from: each delivered batch stays valid until the holder releases it
	// (oldest first), and the run blocks while the whole window is out.
	Lender *RowLender
	// OnSchema receives the output schema, exactly once, before any
	// OnRows call. (Under plan partitioning the schema is announced after
	// stage-2 re-optimization, whose column renames shape the output.)
	OnSchema func(s *types.Schema)
	// OnUpdates receives each flushed standing-query watermark window
	// with its updates, in emission order (RunMaintenance only), invoked
	// just before the matching UpdateWatermark event. Each call's slice
	// is a sub-slice of the final Report.Updates: updates are retained
	// and immutable, every update is delivered exactly once, and the
	// concatenation of all calls equals Report.Updates. The baseline
	// window (Seq 0) is delivered even when empty.
	OnUpdates func(wm UpdateWatermark, updates []ivm.Update)
}

// emit sends an event to the Emit hook, if any.
func (ex *executor) emit(ev Event) {
	if ex.hooks.Emit != nil {
		ex.hooks.Emit(ev)
	}
}

// announceSchema fires the OnSchema hook exactly once.
func (ex *executor) announceSchema(s *types.Schema) {
	if ex.schemaSent {
		return
	}
	ex.schemaSent = true
	if ex.hooks.OnSchema != nil {
		ex.hooks.OnSchema(s)
	}
}

// flushRows hands the consumer whatever root rows are still in the batch
// being filled and emits a RowsDelivered watermark, if any rows were
// produced since the last one. SPJ queries flush as phases produce output
// (full batches have gone out already, as they filled); aggregate queries
// have nothing to flush until the shared group-by releases its groups at
// the end of the run (flushFinal). Flushing charges nothing to the virtual
// clock, so a streamed run's Report is identical to a blocking one's.
func (ex *executor) flushRows() {
	n := ex.out.count
	if n == ex.flushed {
		return
	}
	ex.out.flush()
	ex.flushed = n
	ex.emit(RowsDelivered{Rows: n, VirtualSeconds: ex.now()})
}

// flushFinal delivers whatever part of the final result has not been
// streamed yet (the whole result for aggregate queries, the stitch-up
// tail for SPJ ones) and emits the run's closing watermark.
func (ex *executor) flushFinal() {
	ex.out.flush()
	ex.flushed = ex.out.count
	ex.emit(RowsDelivered{Rows: ex.flushed, VirtualSeconds: ex.now()})
}
