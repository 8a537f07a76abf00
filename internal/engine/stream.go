package engine

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// Option is a functional execution option layered over core.Options.
// Options compose left to right; WithOptions replaces the whole
// configuration and therefore belongs first when mixed with others.
type Option func(*core.Options)

// WithStrategy selects the execution regime (static, corrective,
// plan-partitioning).
func WithStrategy(s core.Strategy) Option {
	return func(o *core.Options) { o.Strategy = s }
}

// WithPartitions runs each phase as p hash-partitioned pipeline clones on
// worker goroutines (<= 1 = serial).
func WithPartitions(p int) Option {
	return func(o *core.Options) { o.Partitions = p }
}

// WithPreAgg selects pre-aggregation handling.
func WithPreAgg(m opt.PreAggMode) Option {
	return func(o *core.Options) { o.PreAgg = m }
}

// WithPollEvery sets the corrective monitor polling interval in delivered
// tuples; it is also the streaming row-flush cadence.
func WithPollEvery(n int) Option {
	return func(o *core.Options) { o.PollEvery = n }
}

// WithSwitchFactor sets the corrective switch threshold: switch when the
// best alternative is estimated cheaper than f × the current plan's
// remaining cost.
func WithSwitchFactor(f float64) Option {
	return func(o *core.Options) { o.SwitchFactor = f }
}

// WithMaxPhases caps corrective phase switching.
func WithMaxPhases(n int) Option {
	return func(o *core.Options) { o.MaxPhases = n }
}

// WithInstrument attaches histograms and order detectors to every leaf,
// charging their per-tuple overhead.
func WithInstrument(on bool) Option {
	return func(o *core.Options) { o.Instrument = on }
}

// WithKnownCardinality records a source-supplied cardinality for one
// relation ("given cardinalities" mode), overriding any engine-level
// advertisement.
func WithKnownCardinality(rel string, card float64) Option {
	return func(o *core.Options) {
		if o.Known == nil {
			o.Known = map[string]float64{}
		}
		o.Known[rel] = card
	}
}

// WithSourcePolicy sets one relation's fault-recovery policy for this
// run: retry attempts, exponential backoff (virtual seconds), and an
// optional mirror relation to fail over to at the consumed watermark.
// Relations without a policy recover under the defaults (3 attempts,
// 0.5 s backoff doubling, no mirror).
func WithSourcePolicy(rel string, p source.RetryPolicy) Option {
	return func(o *core.Options) {
		if o.SourcePolicies == nil {
			o.SourcePolicies = map[string]source.RetryPolicy{}
		}
		o.SourcePolicies[rel] = p
	}
}

// WithPartialResults selects the graceful-degradation policy for
// unrecoverable source failures: instead of failing the run with a
// *source.SourceError (the fail-fast default), the run continues over
// the surviving sources and the delivered prefix of the dead one, and
// the final Report is marked Partial.
func WithPartialResults(on bool) Option {
	return func(o *core.Options) { o.PartialResults = on }
}

// WithOptions replaces the whole configuration with a prebuilt
// core.Options value — the bridge for code that already assembles Options
// structs (Execute is built on it). Apply it before any other Option.
func WithOptions(base core.Options) Option {
	return func(o *core.Options) { *o = base }
}

// streamRowBuffer is how many row batches may be in flight between the
// run goroutine and the cursor before the producer blocks (cursor
// backpressure): the window of the stream's core.RowLender.
const streamRowBuffer = 16

// lenders holds the lenders of finished streams that got every batch back
// (Stream.Report): a later stream lends the same batches again. The GC
// drops one nobody took for two cycles.
var lenders = state.Pool[core.RowLender]{New: func() *core.RowLender { return core.NewRowLender(streamRowBuffer) }}

// Stream is a streaming execution cursor: root result rows arrive
// incrementally while the run executes on a background goroutine, and a
// typed event subscription narrates the adaptive-execution lifecycle
// (phase starts, plan switches, stitch-up, delivery watermarks).
//
// Lifecycle: obtain a Stream from Engine.Stream, consume rows with Next
// or Rows (single consumer), then Report for the final execution report,
// and always Close when done — Close cancels the run if it is still going
// and releases its goroutines. Canceling the context passed to
// Engine.Stream has the same effect as Close: the run winds down at the
// next batch boundary and Err reports context.Canceled.
//
// Delivery contract: rows arrive in result order, exactly once, and their
// concatenation is byte-identical to what a blocking Execute returns;
// select-project-join queries deliver first rows mid-run (as batches fill,
// at monitor poll boundaries and at phase ends), while aggregate queries
// — blocking by nature — deliver all groups when the run completes. Rows
// travel on batches lent by the run and are not retained anywhere: Next
// returns a clone the caller owns, NextBatch the lent batch itself, whose
// storage a later stream reuses once Report has returned (Close alone
// leaves it to the caller). Events for one run are totally ordered and
// every subscription replays them from the start of the run, so a consumer
// can subscribe at any time without missing the PhaseStarted →
// PlanSwitched → StitchUpStarted narrative.
type Stream struct {
	cancel context.CancelFunc

	// runFn is the execution entry point driven on the background
	// goroutine. Engine.Stream installs core.RunStream; the standing-query
	// layer installs a closure over core.RunMaintenance. The hooks passed
	// in carry the stream's event/schema/row plumbing; the runner may add
	// its own hooks (OnUpdates) before dispatching.
	runFn func(context.Context, *core.Catalog, *algebra.Query, core.Options, core.RunHooks) (*core.Report, error)

	// rowsCh carries lent batches to the cursor; lender takes them back.
	// The channel's capacity is the lender's window, so a send never
	// blocks: a batch in the channel is a batch not yet released. cur is
	// the batch the cursor holds (released when it moves on), curIdx how
	// far Next has walked it.
	rowsCh chan []types.Tuple
	lender *core.RowLender
	cur    []types.Tuple
	curIdx int

	schemaReady chan struct{}
	schema      *types.Schema

	done chan struct{} // closed (after rep/err are set) before rowsCh closes
	rep  *core.Report
	err  error

	mu       sync.Mutex
	evCond   *sync.Cond
	events   []core.Event
	finished bool
	closed   bool

	closeCh   chan struct{}
	closeOnce sync.Once
}

// Stream starts executing q under the given options and returns a cursor
// over its root result rows. The query and its relations are validated
// synchronously; execution itself proceeds on a background goroutine and
// honors ctx cancellation (workers quiesce and drain cleanly). Every call
// opens fresh providers, exactly like Execute.
func (e *Engine) Stream(ctx context.Context, q *algebra.Query, opts ...Option) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.validate(q); err != nil {
		return nil, err
	}
	o := e.buildOptions(opts)
	cat := e.catalog(o)
	return startStream(ctx, cat, q, o, core.RunStream), nil
}

// validate checks q against the registered relations.
func (e *Engine) validate(q *algebra.Query) error {
	for _, r := range q.Relations {
		if _, ok := e.rels[r.Name]; !ok {
			return fmt.Errorf("engine: relation %q not registered", r.Name)
		}
	}
	return q.Validate()
}

// buildOptions folds functional options into a core.Options value,
// defaulting Known to the engine-level cardinality advertisements.
func (e *Engine) buildOptions(opts []Option) core.Options {
	var o core.Options
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	e.defaultKnown(&o)
	return o
}

// defaultKnown fills o.Known from the engine-level cardinality
// advertisements when the run brought none of its own.
func (e *Engine) defaultKnown(o *core.Options) {
	if o.Known == nil && len(e.known) > 0 {
		o.Known = map[string]float64{}
		for k, v := range e.known {
			o.Known[k] = v
		}
	}
}

// startStream spins up the background run goroutine behind a cursor; the
// caller has already validated the query and assembled catalog + options.
func startStream(ctx context.Context, cat *core.Catalog, q *algebra.Query, o core.Options,
	runFn func(context.Context, *core.Catalog, *algebra.Query, core.Options, core.RunHooks) (*core.Report, error)) *Stream {
	runCtx, cancel := context.WithCancel(ctx)
	s := &Stream{
		cancel:      cancel,
		runFn:       runFn,
		rowsCh:      make(chan []types.Tuple, streamRowBuffer),
		lender:      lenders.Get(),
		schemaReady: make(chan struct{}),
		done:        make(chan struct{}),
		closeCh:     make(chan struct{}),
	}
	s.evCond = sync.NewCond(&s.mu)
	go s.run(runCtx, cat, q, o)
	return s
}

// run executes the query on the stream's background goroutine.
func (s *Stream) run(ctx context.Context, cat *core.Catalog, q *algebra.Query, o core.Options) {
	hooks := core.RunHooks{
		Emit: s.appendEvent,
		OnSchema: func(sch *types.Schema) {
			s.schema = sch
			close(s.schemaReady)
		},
		// Never blocks (see rowsCh); the run waits in the lender instead,
		// for the cursor to release a batch or for cancellation.
		OnRows: func(rows []types.Tuple) { s.rowsCh <- rows },
		Lender: s.lender,
	}
	rep, err := s.runFn(ctx, cat, q, o, hooks)
	s.rep, s.err = rep, err

	s.mu.Lock()
	s.finished = true
	s.evCond.Broadcast()
	s.mu.Unlock()

	select {
	case <-s.schemaReady:
	default:
		close(s.schemaReady) // run failed before announcing a schema
	}
	// done closes before rowsCh: a consumer that sees the row channel
	// close can immediately read a definitive Err.
	close(s.done)
	close(s.rowsCh)
}

// appendEvent adds one event to the replayable event log.
func (s *Stream) appendEvent(ev core.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.evCond.Broadcast()
	s.mu.Unlock()
}

// advance releases the batch the cursor holds and takes the next one off
// the row channel; false when the stream is exhausted.
func (s *Stream) advance() bool {
	if s.cur != nil {
		s.lender.Release()
	}
	s.cur, s.curIdx = <-s.rowsCh, 0
	return s.cur != nil
}

// Next returns the next result row, as a tuple the caller owns. ok is
// false when the stream is exhausted — because the run completed, failed,
// or was canceled; consult Err (definitive at that point) to distinguish.
// Next is not safe for concurrent use; the Stream is a single-consumer
// cursor.
//
//adp:hotpath gated by BenchmarkStreamDelivery/next (scripts/check_allocs.sh)
func (s *Stream) Next() (types.Tuple, bool) {
	if s.curIdx == len(s.cur) && !s.advance() {
		return nil, false
	}
	t := s.cur[s.curIdx].Clone()
	s.curIdx++
	return t, true
}

// NextBatch returns the rows the cursor has not read yet from the current
// lent batch, or else the next batch: the zero-copy read. The slice and
// the tuples' storage stay valid until the next NextBatch, Next or Report
// call, which gives the batch back to the run; a caller that keeps a row
// longer clones it. ok is false exactly when Next's would be. Batches are
// never empty.
//
//adp:hotpath gated by BenchmarkStreamDelivery/batch (scripts/check_allocs.sh)
func (s *Stream) NextBatch() ([]types.Tuple, bool) {
	if s.curIdx == len(s.cur) && !s.advance() {
		return nil, false
	}
	rest := s.cur[s.curIdx:]
	s.curIdx = len(s.cur)
	return rest, true
}

// Rows returns the remaining result rows as a Go 1.23 range-over-func
// iterator. A run error (including cancellation) is yielded once, as the
// final pair, with a nil tuple. Breaking out of the loop leaves the
// cursor usable (Next resumes where the loop stopped); it does not cancel
// the run — Close does.
func (s *Stream) Rows() iter.Seq2[types.Tuple, error] {
	return func(yield func(types.Tuple, error) bool) {
		for {
			t, ok := s.Next()
			if !ok {
				if err := s.Err(); err != nil {
					yield(nil, err)
				}
				return
			}
			if !yield(t, nil) {
				return
			}
		}
	}
}

// Schema blocks until the run's output schema is known — always before
// the first row is delivered — and returns it (nil if the run failed
// before reaching execution). Under plan partitioning the schema is only
// announced after stage-2 re-optimization, whose column renames shape the
// output.
func (s *Stream) Schema() *types.Schema {
	<-s.schemaReady
	return s.schema
}

// Events subscribes to the run's event stream. The returned channel
// replays every event from the start of the run in emission order, then
// follows the live run, and is closed once the run has finished and all
// events were delivered. Multiple subscriptions each get the full
// replay; the event log outlives the run, so a subscription opened after
// completion — or after Close — still receives the whole sequence (as a
// pre-loaded snapshot, with no goroutine behind it). The one truncation:
// Close tears down subscriptions that are still live at that moment,
// closing their channels possibly before the tail was delivered.
// Consumers of a live subscription should keep receiving; an abandoned
// one stalls only its own delivery goroutine (reaped on Close), never
// the run.
func (s *Stream) Events() <-chan core.Event {
	s.mu.Lock()
	if s.finished || s.closed {
		// The log is complete and immutable: hand it over as a snapshot.
		evs := s.events
		s.mu.Unlock()
		ch := make(chan core.Event, len(evs))
		for _, ev := range evs {
			ch <- ev
		}
		close(ch)
		return ch
	}
	s.mu.Unlock()
	ch := make(chan core.Event, 16)
	go func() {
		defer close(ch)
		idx := 0
		for {
			s.mu.Lock()
			for idx >= len(s.events) && !s.finished && !s.closed {
				s.evCond.Wait()
			}
			if s.closed || idx >= len(s.events) {
				s.mu.Unlock()
				return
			}
			ev := s.events[idx]
			idx++
			s.mu.Unlock()
			select {
			case ch <- ev:
			case <-s.closeCh:
				return
			}
		}
	}()
	return ch
}

// Err returns the run's terminal error (nil on success, context.Canceled
// after cancellation). It returns nil while the run is still in flight;
// once Next has returned ok=false — or Report has returned — the answer
// is definitive.
func (s *Stream) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Report discards any rows not yet consumed through the cursor, waits for
// the run to complete, and returns the final execution report. A streamed
// result is not retained: the report carries RowCount and a nil Rows, and
// rows dropped here are gone — read the cursor to the end first, or use
// Execute, for a report that holds the rows. Report gives the last batch
// back: from then on a later stream reuses the storage of every batch
// NextBatch returned.
func (s *Stream) Report() (*core.Report, error) {
	for s.advance() {
	}
	<-s.done
	if s.lender != nil && s.lender.Idle() {
		lenders.Put(s.lender)
		s.lender = nil
	}
	return s.rep, s.err
}

// Close cancels the run if it is still going, waits for its goroutines
// to drain and exit, and tears down live event subscriptions (the event
// log itself survives for later Events calls). Close is idempotent and
// must be called once the consumer is done with the stream; rows not yet
// consumed are discarded. It never blocks on an absent consumer, and —
// unlike the cursor methods — it is safe to call from any goroutine
// (e.g. a watchdog aborting a long run): it only drains the row channel,
// never the consumer-owned cursor state, and releases nothing (a batch
// the consumer still holds is never overwritten, by this run or a later
// stream; the canceled run stops waiting for batches). In particular it
// is safe to call — including concurrently from several goroutines —
// while the run is mid-read on a stalled or retrying source: source
// delays are virtual time, so the run reaches its next cancellation point
// promptly and Close returns once the goroutines have drained.
func (s *Stream) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		for range s.rowsCh {
		}
		<-s.done
		s.mu.Lock()
		s.closed = true
		s.evCond.Broadcast()
		s.mu.Unlock()
		close(s.closeCh)
	})
	return nil
}
