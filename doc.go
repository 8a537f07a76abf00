// Package adp is a Go implementation of adaptive data partitioning (ADP)
// query processing, reproducing "Adapting to Source Properties in
// Processing Data Integration Queries" (Ives, Halevy, Weld — SIGMOD 2004),
// the Tukwila adaptive query processing architecture.
//
// Data integration systems query autonomous sources about which almost
// nothing is known in advance — no cardinalities, no ordering guarantees,
// no histograms — so a statically chosen plan is often wrong. ADP responds
// by dividing the source data into regions executed by different,
// complementary plans:
//
//   - Corrective query processing (StrategyCorrective) monitors the
//     running plan, re-optimizes in the background from observed
//     selectivities and cardinalities, switches to a better plan
//     mid-pipeline, and computes a final stitch-up phase joining data
//     across the phases while reusing materialized intermediate results.
//   - Complementary join pairs (NewComplementaryJoin) speculate that
//     inputs are (mostly) sorted: a router sends in-order tuples to a
//     cheap merge join and out-of-order tuples to a pipelined hash join,
//     with a mini stitch-up joining across the two partitions.
//   - Adjustable-window pre-aggregation (via PreAggWindowed) inserts a
//     pipelined pre-aggregation operator at every eligible point and
//     adapts its window to the observed coalescing ratio, so grouping is
//     pushed down exactly where the data rewards it.
//
// # Quick start
//
//	eng := adp.NewEngine()
//	eng.Register(ordersRelation)
//	eng.Register(customersRelation)
//	q := eng.Query("spend").
//		From("orders", "customers").
//		Join("orders", "custkey", "customers", "custkey").
//		GroupBy("customers.name").
//		Agg(adp.AggSum, adp.Column("orders.total"), "spend").
//		MustBuild()
//	s, err := eng.Stream(ctx, q,
//		adp.WithStrategy(adp.StrategyCorrective),
//		adp.WithPartitions(4),
//		adp.WithPollEvery(1024))
//	defer s.Close()
//	for row, err := range s.Rows() { … }   // or s.Next()
//	report, err := s.Report()
//
// The Report carries the execution narrative: phases run, plans used,
// stitch-up time, and tuples reused from prior phases. Engine.Execute is
// the blocking form — the same execution path run on the caller's
// goroutine with nothing attached to the root — and the only one whose
// Report.Rows holds the result; a streamed run's report carries RowCount.
//
// # Streaming results
//
// Stream returns a cursor whose rows arrive while the run executes.
//
// Cursor lifecycle: Stream validates synchronously and starts the run on
// a background goroutine; Rows/Next deliver result rows (single
// consumer), each a tuple the caller owns; NextBatch is the zero-copy
// read — the batch the run's root sink wrote, lent until the next cursor
// call; Report discards what the cursor has not read, waits for
// completion, and returns the final report (RowCount, not Rows: a
// streamed result is retained nowhere); Close — always call it — cancels a still-running
// query and joins every goroutine the run started. Canceling ctx has the
// same effect mid-flight: drivers observe cancellation at batch
// boundaries, partition workers quiesce and drain, the stitch-up loop
// stops between combinations, and Err reports context.Canceled.
//
// Delivery guarantees: rows arrive in result order, exactly once, and
// concatenate to exactly Execute's Report.Rows — streaming never
// perturbs execution (same rows, counters, and virtual clocks, pinned by
// equivalence tests). Select-project-join queries deliver first rows
// mid-run, whenever a 1024-row batch fills and at monitor-poll boundaries
// and phase ends (a
// partition-parallel phase releases its rows at the phase's
// deterministic partition-ordered merge); aggregate queries are blocking
// by nature and release all groups at completion.
//
// Stream.Events exposes the adaptive-execution lifecycle as typed events:
// PhaseStarted, PlanSwitched (with the §4.1 cost estimates that
// triggered the switch), StitchUpStarted, PartitionStats, and
// RowsDelivered watermarks. Events for one run are totally ordered —
// a corrective run that switches emits PhaseStarted(0) → PlanSwitched →
// PhaseStarted(1) → … → StitchUpStarted — and every subscription replays
// the sequence from the start of the run, so late subscribers miss
// nothing. Event emission never blocks execution.
//
// # Source fault tolerance
//
// Autonomous sources fail mid-query; the engine injects such failures
// deterministically and recovers from them. Engine.InjectFaults arms a
// FaultSchedule on a relation — transient read errors (fail Times reads,
// then succeed), stalls (a virtual-time delay), and permanent death,
// each triggering at an exact delivered-tuple watermark; RandomFaults
// derives a seeded schedule. WithSourcePolicy sets the per-source
// RetryPolicy: bounded retries with exponential backoff charged to the
// virtual clock, then failover to a mirror relation resuming exactly at
// the consumed watermark (exactly once across the switch).
//
//	eng.InjectFaults("orders", adp.RandomFaults(n, 6, 3.0, seed))
//	s, err := eng.Stream(ctx, q,
//		adp.WithSourcePolicy("orders", adp.RetryPolicy{MaxAttempts: 4, Backoff: 0.5}),
//		adp.WithPartialResults(true))
//
// Recovery is woven into the adaptive machinery rather than bolted on:
// stalls and backoff surface as arrival-time penalties, so the
// availability-ordered source driver masks a slow source with other
// sources' tuples (§3.3), and the corrective monitor treats an observed
// stall as a cost-estimate violation — waiving its re-optimization
// cooldown and inflating the running plan's cost estimate — so source
// failures can trigger plan switches. An unrecoverable source either
// fails the query fast with a typed *SourceError (default) or, under
// WithPartialResults, degrades gracefully: the run completes over the
// delivered prefix and Report.Partial is set. Report.SourceFaults
// carries per-source counters (transients, stalls, retries, backoff and
// stall seconds, failover/abandonment), and the event stream narrates
// recovery live via SourceStalled, SourceRetried, SourceFailedOver, and
// SourceAbandoned.
//
// Because faults live entirely in virtual time, chaos testing is cheap
// and exactly reproducible: the seeded suite (make chaos) pins that any
// run whose faults are all recovered yields exactly the fault-free rows,
// across every strategy, serial and partition-parallel, under -race.
//
// # One layout between operators
//
// Rows travel between operators as row batches and in no other form: Sink
// is the single method Push(rows []Tuple, sign int), where sign 0 is
// ordinary execution and ±1 a standing query's delta, a lone tuple is a
// batch of one, and SinkFunc adapts a function over a signed batch. Every
// operator takes batches — HashJoin and MergeJoin (both inputs, via
// LeftSink/RightSink), the ComplementaryJoin router (which groups
// consecutive same-destination tuples into sub-batches for its merge and
// hash components and batches the mini stitch-up's emits), AggTable,
// WindowPreAgg (whose w=1 mode is the paper's pseudogroup), the partition
// Exchange and the PartitionMerge — and hands its consumer batches: a join
// delivers one input batch's results in one call, a windowed pre-aggregate
// the partials of the windows one input batch filled, the corrective
// stitch-up each combination's result vector.
// Selections run in the source driver, as each leaf's predicate, and the
// driver groups consecutive already-available tuples from the same source
// into batches. How a stream is cut into batches never shows in rows or
// counters.
//
// Within a batch the engine is allocation-free at steady state: join keys
// are hashed once and shared between build-insert and probe
// (HashTable.ProbeHashed), probe keys and group-by keys live in reused
// scratch buffers (the types.AppendKey byte codec replaces fmt-based key
// encoding), and join/projection outputs are carved from slab arenas so a
// pipeline segment performs amortized O(1) allocations per tuple instead
// of several.
//
// A row is buffered once. A state.HashTable is an index — one {hash, next}
// entry per row, one {head, tail, count} per bucket — over a state.List
// that stores the rows in arrival order in fixed-size chunks, so growing
// either never copies a row. A corrective phase's base partition is the
// list of the join side its scan fed, the stitch-up probes a second index
// over that same list (state.IndexList), carries joined prefixes as
// base-tuple headers, and concatenates values only at its last fold step
// (docs/architecture.md, "State structures").
//
// Rows, not columns, because every hash build retains its rows as tuples
// (the paper's shareable state structures, §3.1, §3.4): a columnar frame
// between two joins is transposed in at one and back out at the next, and
// both end-to-end measurements of such wiring came out behind row batches
// (docs/architecture.md has the numbers). Signed traffic is the same row
// batches through the same Push, the sign travelling beside them: a
// standing query's deltas enter the tree as the source rows they are, see
// "Standing queries". So one row format runs from the leaves to the socket: a
// partitioned SPJ phase's merge buffers its partitions' root rows as the
// root joins emit them. The columnar layout, types.ColBatch, survives only
// behind the shims the benchmark's kernel probes call, each of which
// transposes its batch once and runs the row entry.
//
// # Standing queries
//
// Engine.RegisterStanding runs a query once and then keeps its result current
// as signed deltas stream in, emitting revisions (Update) at watermarks. The
// initial result leaves once, as the baseline window, which asserts it, so
// folding the update stream from empty always yields the maintained view. The
// stream leaves only through the standing cursor; the report just counts it
// (Report.UpdateCount). Maintenance starts from the state the initial run
// built — base rows are processed once:
//
//   - adopted: a serial run without pre-aggregation (the default) absorbs
//     into its group-by as signed from the first row, so that table's pending
//     revisions are the baseline and the table is the standing aggregate; if
//     the run ended in one phase, that phase's join tree is the maintenance
//     tree as it stands, and nothing is pushed a second time;
//   - built: if it ended in several phases, or whenever the corrective
//     monitor switches the maintenance plan, a new tree is warmed with its
//     root unbound from the lists that already hold each relation's rows —
//     asserted (+1), then retracted (-1);
//   - replayed: with Partitions > 1 or pre-aggregation the result cannot be
//     maintained in place, and a tree is warmed through a live root into a
//     fresh aggregate: a full replay before the first update.
//
// Report.MaintReplayed counts the rows pushed again (0 when adopted). See
// docs/architecture.md, "Standing queries: the delta data-flow".
//
// # Parallel execution
//
// Options.Partitions > 1 runs every phase as P hash-partitioned pipeline
// clones on worker goroutines (partition-parallel execution) — through the
// same phase runner, monitor and root adapters as a serial phase, which is
// its one-tree case (docs/architecture.md, "One phase runner"). The
// exchange placement follows the plan's key structure:
//
//	source ──scatter(join key)──▶ [clone 0: join ⋈ … agg γ₀] ──┐ fold γ₀, γ₁ … into the
//	source ──scatter(join key)──▶ [clone 1: join ⋈ … agg γ₁] ──┴▶ shared γ at phase end ─▶ output
//	                                 │ exchange(new key) │
//	                                 └─ cross-partition ─┘
//	SPJ:                          [clone p: join ⋈ …] ──▶ ordered merge ───────────────▶ output
//
// Each source run is scattered at the driver on the key its consumer
// joins or groups on (exec.Exchange); every partition owns a full clone
// of the operator chain with private state.HashTable/AggTable instances
// (no locks on the per-tuple path) and its own virtual clock. Where the
// partitioning key changes mid-plan — a join output feeding a join or
// aggregation on different columns — an exchange inside each clone
// routes same-partition rows onward synchronously and ships the rest to
// the owning worker over bounded channels.
//
// An aggregate query aggregates inside its partitions: each clone's root
// join feeds a private AggTable on the clone's own context, nothing of
// the join output is buffered, and when the phase has finished the driver
// folds the P tables into the shared group-by in ascending partition
// order (AggTable.MergeFrom: groups adopted or merged state by state,
// one AggUpdate charge per group). Corrective runs fold at every phase
// end, before the stitch-up. Only SPJ queries use the partition merge.
//
// The determinism contract: equal keys always land in the same
// partition, so the union of the clones' outputs is exactly the serial
// plan's output multiset and per-operator counters sum to the serial
// totals. SPJ root output is merged in ascending partition order; global
// interleaving across partitions may differ from the serial stream, which
// is why SPJ equivalence is pinned as an order-insensitive multiset.
// Aggregate groups, counts, min and max equal the serial run's exactly
// and are emitted in the same order; a float sum keeps the bits a serial
// absorb of the clones' root rows would give it wherever its group lives
// in one partition of a one-phase run, and differs by reassociation only
// (a fixed order of per-partition, per-phase sums) where the group spans
// partitions or phases.
// Per-partition clocks are reported in PhaseInfo.PartitionSeconds (the
// partition's aggregate work included); Report.VirtualSeconds advances to
// the slowest partition (the parallel makespan) while CPUSeconds
// accumulates all partitions' charged work. Virtual time is integer
// nanoseconds, so a serial run's clock is exact whatever order its
// charges are added in; a partition clock still depends on the order
// messages from several producers reach it, so parallel clocks are
// diagnostics, reproducible only within a tolerance.
// The corrective monitor still runs: polls happen at quiesce points
// (every in-flight batch fully absorbed — the §4.1 "consistent state"),
// so plan switching and stitch-up compose with partitioned phases.
//
// Continuous integration (.github/workflows/ci.yml, scripts/
// check_allocs.sh via make check-allocs) pins the hot paths' allocs/op
// budgets on every push (including the exchange scatter path), and a
// GOMAXPROCS={1,4} matrix leg checks the parallel executor at both
// scheduling extremes, so these wins cannot silently regress.
//
// # Query service
//
// cmd/adpserve puts Engine.Stream on the network (internal/server): POST
// /v1/query streams results as NDJSON frames — one schema frame, row
// frames as the engine produces them, one terminal report or error frame
// — and GET /v1/query/{id}/events replays the adaptive-execution event
// feed as server-sent events. The service adds the production plumbing
// the library leaves out: admission control with a bounded wait queue,
// per-query deadline/partition/row budgets, a query-shape plan cache
// (NewPlanCache, Fingerprint) that lets repeated queries skip the
// optimizer, Prometheus-text metrics, and graceful drain that never cuts
// an in-flight stream. Rows on the wire are byte-identical to encoding
// the direct cursor. NewServer constructs the handler for in-process
// embedding; see docs/wire-protocol.md for the framing contract and
// docs/operations.md for tuning.
//
// See README.md for the project quickstart, docs/architecture.md for the
// layer map and determinism contract, and ROADMAP.md for the growth
// history; cmd/adpbench regenerates every table and figure of the
// paper's evaluation.
package adp
