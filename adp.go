package adp

import (
	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/server"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// ---- Values, tuples, schemas ------------------------------------------

// Kind is a scalar type tag.
type Kind = types.Kind

// Scalar kinds.
const (
	KindNull   = types.KindNull
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
)

// Value is a dynamically typed scalar.
type Value = types.Value

// Tuple is a row: a vector of values aligned with a Schema.
type Tuple = types.Tuple

// Schema describes a tuple layout.
type Schema = types.Schema

// Col is one schema column.
type Col = types.Column

// Scalar constructors.
var (
	// Int builds an integer value.
	Int = types.Int
	// Float builds a float value.
	Float = types.Float
	// Str builds a string value.
	Str = types.Str
	// Null builds the NULL value.
	Null = types.Null
	// NewSchema builds a schema from columns.
	NewSchema = types.NewSchema
)

// ---- Expressions -------------------------------------------------------

// Expr is a scalar expression; Predicate is a boolean one.
type (
	// Expr is a scalar expression over tuples.
	Expr = expr.Expr
	// Predicate is a boolean expression over tuples.
	Predicate = expr.Predicate
)

// Expression constructors.
var (
	// Column references a (possibly qualified) column.
	Column = expr.Column
	// IntLit, FloatLit, StrLit build literals.
	IntLit   = expr.IntLit
	FloatLit = expr.FloatLit
	StrLit   = expr.StrLit
	// Arithmetic.
	Add = expr.Add
	Sub = expr.Sub
	Mul = expr.Mul
	Div = expr.Div
	// Comparisons.
	Eq = expr.Eq
	Ne = expr.Ne
	Lt = expr.Lt
	Le = expr.Le
	Gt = expr.Gt
	Ge = expr.Ge
	// Connectives.
	And = expr.AndOf
	Or  = expr.OrOf
	Not = expr.NotOf
)

// ---- Queries -----------------------------------------------------------

// Query is a validated select-project-join-aggregate query.
type Query = algebra.Query

// AggKind names an aggregate function.
type AggKind = algebra.AggKind

// Aggregate functions (all distribute over union, enabling ADP's shared
// group-by and pre-aggregation).
const (
	AggMin   = algebra.AggMin
	AggMax   = algebra.AggMax
	AggSum   = algebra.AggSum
	AggCount = algebra.AggCount
	AggAvg   = algebra.AggAvg
)

// ---- Sources -----------------------------------------------------------

// Relation is an in-memory table registered with the engine.
type Relation = source.Relation

// NewRelation builds a relation from a schema and rows.
var NewRelation = source.NewRelation

// Schedule assigns virtual arrival times to a remote source's tuples.
type Schedule = source.Schedule

// Delivery schedules.
type (
	// Immediate delivers everything at t=0 (local data).
	Immediate = source.Immediate
	// Bandwidth delivers at a constant tuple rate.
	Bandwidth = source.Bandwidth
	// Bursty models a congested wireless-style link.
	Bursty = source.Bursty
)

// NewBursty precomputes a deterministic bursty arrival schedule.
var NewBursty = source.NewBursty

// Dataset-shaping helpers (experiments, demos).
var (
	// SortBy returns a copy of a relation sorted on one column.
	SortBy = source.SortBy
	// ReorderFraction randomly displaces a fraction of tuples.
	ReorderFraction = source.ReorderFraction
	// Shuffle fully randomizes row order.
	Shuffle = source.Shuffle
)

// ---- Source fault tolerance ---------------------------------------------

// FaultKind classifies an injected source fault.
type FaultKind = source.FaultKind

// Fault kinds.
const (
	// FaultTransient fails one tuple's read for Times attempts.
	FaultTransient = source.FaultTransient
	// FaultStall delays the source by Stall virtual seconds.
	FaultStall = source.FaultStall
	// FaultPermanent kills the source at the scheduled tuple.
	FaultPermanent = source.FaultPermanent
)

// Fault is one scheduled source fault.
type Fault = source.Fault

// FaultSchedule is an ordered, deterministic list of faults for one
// source, installed with Engine.InjectFaults.
type FaultSchedule = source.FaultSchedule

// Fault-schedule constructors.
var (
	// NewFaultSchedule builds a schedule ordered by trigger index.
	NewFaultSchedule = source.NewFaultSchedule
	// RandomFaults draws a deterministic seeded mix of transient faults
	// and stalls (the chaos suite's generator).
	RandomFaults = source.RandomFaults
)

// RetryPolicy describes how one source's reads recover from faults:
// bounded retries with exponential backoff in virtual seconds, and an
// optional mirror relation to fail over to. Install per run with
// WithSourcePolicy.
type RetryPolicy = source.RetryPolicy

// SourceError is the typed terminal error of a permanently failed
// source; fail-fast runs return it (unwrap with errors.As).
type SourceError = source.SourceError

// FaultStats counts one source's fault and recovery activity; the final
// Report carries one entry per faulting source in SourceFaults.
type FaultStats = source.FaultStats

// ---- Engine ------------------------------------------------------------

// Engine owns a catalog of sources and executes queries.
type Engine = engine.Engine

// NewEngine creates an empty engine.
func NewEngine() *Engine { return engine.New() }

// Strategy selects the execution regime.
type Strategy = core.Strategy

// Execution strategies.
const (
	// StrategyStatic optimizes once and runs to completion.
	StrategyStatic = core.Static
	// StrategyCorrective runs corrective query processing: monitor,
	// switch plans mid-stream, stitch up at the end (the paper's §4).
	StrategyCorrective = core.Corrective
	// StrategyPlanPartition materializes after a fixed number of joins
	// and re-optimizes the remainder (the §4.4 baseline).
	StrategyPlanPartition = core.PlanPartition
)

// PreAggMode selects pre-aggregation handling (the paper's §6).
type PreAggMode = opt.PreAggMode

// Pre-aggregation modes.
const (
	// PreAggNone aggregates only at the top of the plan.
	PreAggNone = opt.PreAggNone
	// PreAggTraditional inserts a blocking pre-aggregate where estimated
	// beneficial.
	PreAggTraditional = opt.PreAggTraditional
	// PreAggWindowed inserts the adjustable-window operator everywhere it
	// applies; it self-regulates at runtime.
	PreAggWindowed = opt.PreAggWindowed
)

// Options configures one execution.
type Options = core.Options

// Report is the outcome: the adaptive-execution narrative plus the result
// — Rows from Execute, RowCount alone from a streamed run, whose rows went
// to the cursor.
type Report = core.Report

// PhaseInfo describes one executed phase.
type PhaseInfo = core.PhaseInfo

// FormatRows renders result rows as an aligned text table.
var FormatRows = engine.FormatRows

// ---- Streaming execution -------------------------------------------------

// Stream is a streaming execution cursor returned by Engine.Stream: root
// result rows arrive incrementally (Next / Rows, or NextBatch for the
// run's own lent batches) while the run executes in the background, a
// typed event subscription (Events) narrates the
// adaptive-execution lifecycle, and Report returns the final execution
// report. Always Close a stream; see the package documentation's
// "Streaming results" section for the cursor lifecycle and ordering
// guarantees.
type Stream = engine.Stream

// Option is a functional execution option accepted by Engine.Stream,
// layered over Options.
type Option = engine.Option

// Functional execution options.
var (
	// WithStrategy selects the execution regime.
	WithStrategy = engine.WithStrategy
	// WithPartitions sets the partition-parallel width (<= 1 = serial).
	WithPartitions = engine.WithPartitions
	// WithPreAgg selects pre-aggregation handling.
	WithPreAgg = engine.WithPreAgg
	// WithPollEvery sets the monitor polling / row-flush cadence in
	// delivered tuples.
	WithPollEvery = engine.WithPollEvery
	// WithSwitchFactor sets the corrective switch threshold.
	WithSwitchFactor = engine.WithSwitchFactor
	// WithMaxPhases caps corrective phase switching.
	WithMaxPhases = engine.WithMaxPhases
	// WithInstrument attaches per-leaf histograms and order detectors.
	WithInstrument = engine.WithInstrument
	// WithKnownCardinality records one source-supplied cardinality.
	WithKnownCardinality = engine.WithKnownCardinality
	// WithSourcePolicy sets one relation's fault-recovery policy.
	WithSourcePolicy = engine.WithSourcePolicy
	// WithPartialResults degrades gracefully on unrecoverable source
	// failure instead of failing the run.
	WithPartialResults = engine.WithPartialResults
	// WithOptions replaces the whole configuration with a prebuilt
	// Options value (apply first when mixed with other options).
	WithOptions = engine.WithOptions
)

// Event is a typed notification from a streaming run; concrete types are
// PhaseStarted, PlanSwitched, StitchUpStarted, PartitionStats,
// RowsDelivered, and the source-degradation narrative SourceStalled,
// SourceRetried, SourceFailedOver, SourceAbandoned.
type Event = core.Event

// Streaming run events.
type (
	// PhaseStarted marks the start of one execution phase.
	PhaseStarted = core.PhaseStarted
	// PlanSwitched reports a corrective-monitor plan switch with the cost
	// estimates that triggered it (§4.1).
	PlanSwitched = core.PlanSwitched
	// StitchUpStarted marks the start of the cross-phase stitch-up (§3.4).
	StitchUpStarted = core.StitchUpStarted
	// PartitionStats reports per-partition timing for one completed
	// partition-parallel phase.
	PartitionStats = core.PartitionStats
	// RowsDelivered is a cumulative result-delivery watermark.
	RowsDelivered = core.RowsDelivered
	// SourceStalled reports an injected source stall (also a
	// cost-estimate violation for the corrective monitor).
	SourceStalled = core.SourceStalled
	// SourceRetried reports one recovered read attempt.
	SourceRetried = core.SourceRetried
	// SourceFailedOver reports a source switching to its mirror.
	SourceFailedOver = core.SourceFailedOver
	// SourceAbandoned reports a permanently failed source.
	SourceAbandoned = core.SourceAbandoned
	// MaintenanceStarted marks the hand-off from the initial run to
	// incremental maintenance of a standing query.
	MaintenanceStarted = core.MaintenanceStarted
	// UpdateWatermark closes one standing-query update window.
	UpdateWatermark = core.UpdateWatermark
)

// ---- Standing queries (incremental view maintenance) ---------------------

// Delta is one signed change to a base relation: Sign +1 inserts Row,
// -1 deletes one matching duplicate, at virtual time At.
type Delta = source.Delta

var (
	// Ins builds an insert delta arriving at the given virtual time.
	Ins = source.Ins
	// Del builds a delete delta arriving at the given virtual time.
	Del = source.Del
)

// Update is one signed revision to a standing query's result: an
// assertion (Sign +1) or retraction (-1) of Row.
type Update = ivm.Update

// StandingQuery is a registered incremental view returned by
// Engine.RegisterStanding: the query runs once over the base sources,
// then signed deltas stream through the same lowered plan, revising the
// result at watermark boundaries instead of recomputing from scratch.
// Consume the update stream — the baseline window, which asserts the
// initial result, then the revisions — with NextWindow, NextUpdate or
// Updates, then Report (Report.Maintained holds the current view,
// Report.UpdateCount the updates delivered) and always Close.
type StandingQuery = engine.StandingQuery

// StandingWindow is one watermark window of standing-query updates.
type StandingWindow = engine.StandingWindow

// ---- Direct operator access (advanced) ----------------------------------

// HashJoin is the binary hash-join push operator: the pipelined
// (symmetric) hash join, which needs no end-of-stream call.
type HashJoin = exec.HashJoin

// NewHashJoin builds a join node delivering concatenated (left ++ right)
// tuples to a sink.
var NewHashJoin = exec.NewHashJoin

// JoinStyle names the join's iterator module; NewHashJoin takes it.
type JoinStyle = exec.JoinStyle

// JoinPipelined is the symmetric (data-availability-driven) hash join, the
// one style there is.
const JoinPipelined = exec.Pipelined

// ComplementaryJoin is the merge/hash complementary join pair of §5.
type ComplementaryJoin = core.ComplementaryJoin

// NewComplementaryJoin builds a pair; pqCap > 0 enables the priority-queue
// router (DefaultPQCap reproduces the paper's 1024).
var NewComplementaryJoin = core.NewComplementaryJoin

// DefaultPQCap is the paper's reorder-buffer capacity.
const DefaultPQCap = core.DefaultPQCap

// Exchange hash-partitions a tuple stream across partition-parallel
// pipelines on its key columns (the boundary operator of partitioned
// execution; Options.Partitions drives the whole machinery end to end,
// this type is for direct operator assemblies).
type Exchange = exec.Exchange

// NewExchange builds an exchange over a partition count, key columns, and
// a per-partition route callback.
var NewExchange = exec.NewExchange

// ParallelDriver runs one partitioned plan as per-partition pipelines on
// worker goroutines (advanced; see Options.Partitions for the integrated
// path).
type ParallelDriver = exec.ParallelDriver

// NewParallelDriver creates a parallel driver over per-partition
// execution contexts.
var NewParallelDriver = exec.NewParallelDriver

// ExecContext carries the virtual clock and cost model for direct operator
// use.
type ExecContext = exec.Context

// NewExecContext creates a fresh context.
var NewExecContext = exec.NewContext

// ClockSeconds converts an ExecContext clock reading, virtual nanoseconds,
// to the seconds a Report carries.
var ClockSeconds = exec.Seconds

// Sink receives batches of tuples from push operators through its one
// method, Push(rows, sign): sign 0 for ordinary execution, ±1 for a
// standing query's delta (see doc.go, "One layout between operators"); a
// single tuple is a batch of one.
type Sink = exec.Sink

// SinkFunc adapts a function over a batch of tuples and its sign to a Sink.
type SinkFunc = exec.SinkFunc

// ---- Plan cache ----------------------------------------------------------

// Fingerprint returns the canonical query-shape fingerprint used as the
// plan-cache key: query structure plus the optimizer-relevant options
// (pre-aggregation mode, advertised cardinalities), excluding execution
// knobs like strategy and partitions.
var Fingerprint = engine.Fingerprint

// PlanCache is a concurrency-safe LRU cache of initial optimized plans
// keyed by Fingerprint; a hit lets a run skip the optimizer entirely and
// is semantically inert (byte-identical rows).
type PlanCache = engine.PlanCache

// PlanCacheStats is a point-in-time snapshot of a cache's hit/miss/size
// counters.
type PlanCacheStats = engine.PlanCacheStats

// NewPlanCache creates a plan cache (capacity <= 0 selects
// DefaultPlanCacheSize).
var NewPlanCache = engine.NewPlanCache

// DefaultPlanCacheSize is the capacity NewPlanCache defaults to.
const DefaultPlanCacheSize = engine.DefaultPlanCacheSize

// ---- Query service -------------------------------------------------------

// Server serves Engine.Stream over HTTP: POST /v1/query streams results
// as NDJSON frames, GET /v1/query/{id}/events replays the
// adaptive-execution event feed as server-sent events, plus /healthz and
// Prometheus-text /metrics. It layers admission control, per-query
// deadline/partition/row budgets, a Fingerprint-keyed plan cache, and
// graceful drain over the engine; see docs/wire-protocol.md and
// docs/operations.md. Server implements http.Handler for in-process
// embedding (examples/server); cmd/adpserve is the deployable binary.
type Server = server.Server

// ServerConfig tunes a Server's admission, budgets, plan cache, drain,
// and source fault policies; the zero value selects production defaults.
type ServerConfig = server.Config

// NewServer builds a query service over an engine.
var NewServer = server.New

// WireProtocolVersion is the query service's wire protocol version (the
// /v1 path prefix).
const WireProtocolVersion = server.ProtocolVersion

// ---- TPC-H-style data generation ----------------------------------------

// DatagenConfig configures the synthetic TPC-H-style generator.
type DatagenConfig = datagen.Config

// Dataset is a generated database.
type Dataset = datagen.Dataset

// GenerateDataset builds a dataset (uniform, or Zipf-skewed with
// Skewed: true as in the paper's skewed TPC-D variant).
var GenerateDataset = datagen.Generate
