package engine

import (
	"context"
	"fmt"
	"iter"
	"maps"
	"slices"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// standingUpdateBuffer is how many watermark windows of updates may be
// in flight between the maintenance run and the update cursor before the
// producer blocks (cursor backpressure, mirroring streamRowBuffer).
const standingUpdateBuffer = 16

// InjectDeltaFaults schedules deterministic faults against a relation's
// delta stream (chaos testing of standing queries): every subsequent
// RegisterStanding reads that relation's deltas through a fault-injecting
// wrapper replaying the schedule. The base read keeps its own schedule
// from InjectFaults — the two streams fail independently, exactly as a
// live feed and its backing store would. Pass nil to clear.
func (e *Engine) InjectDeltaFaults(rel string, fs *source.FaultSchedule) *Engine {
	if e.deltaFaults == nil {
		e.deltaFaults = map[string]*source.FaultSchedule{}
	}
	if fs == nil {
		delete(e.deltaFaults, rel)
	} else {
		e.deltaFaults[rel] = fs
	}
	return e
}

// StandingQuery is a registered incremental view: the query ran once over
// the base sources, and a maintenance run keeps its result current as
// signed deltas stream in, emitting revision updates at watermark
// boundaries instead of recomputing from scratch.
//
// Lifecycle: obtain one from Engine.RegisterStanding, consume the update
// stream through its one cursor — NextWindow, NextUpdate or Updates
// (single consumer) — then Report for the final execution report —
// Report.Maintained carries the fully maintained result — and always
// Close when done.
//
// Delivery contract: the initial result leaves once, as the baseline
// window (Seq 0), which asserts it. Updates arrive in emission order,
// exactly once, grouped by watermark window, and are not kept behind the
// cursor: the final Report counts them (UpdateCount) and its Updates is
// nil. Folding them from an empty multiset yields Report.Maintained. The
// event subscription interleaves the standing lifecycle
// (MaintenanceStarted, UpdateWatermark, PlanSwitched during maintenance)
// with the usual run narrative.
type StandingQuery struct {
	s     *Stream
	updCh chan StandingWindow
	cur   []ivm.Update
	curI  int
}

// StandingWindow is one watermark window of revision updates: the
// watermark metadata and the updates flushed at it, which the holder may
// keep. The baseline window (Seq 0) carries the initial result as
// assertions and is delivered even when empty.
type StandingWindow struct {
	Watermark core.UpdateWatermark
	Updates   []ivm.Update
}

// RegisterStanding runs q to completion over the registered sources and
// then maintains its result incrementally against the given delta
// scripts (relation name -> signed changes, applied in script order at
// their stamped virtual arrival times). Relations without an entry see
// no changes; a script for a relation q does not read is refused here,
// before anything runs. Delta-stream faults injected via
// InjectDeltaFaults — or a WithSourcePolicy for the relation — wrap the
// stream in the same retry/backoff/failover machinery base sources use.
// The watermark cadence follows WithPollEvery.
//
// The returned StandingQuery starts executing immediately on a
// background goroutine and honors ctx cancellation.
func (e *Engine) RegisterStanding(ctx context.Context, q *algebra.Query, deltas map[string][]source.Delta, opts ...Option) (*StandingQuery, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.validate(q); err != nil {
		return nil, err
	}
	o := e.buildOptions(opts)
	cat := e.catalog(o)
	m := core.MaintOptions{Deltas: map[string]source.Provider{}}
	// By name, so that of several bad streams the same one is refused.
	for _, name := range slices.Sorted(maps.Keys(deltas)) {
		rel, ok := e.rels[name]
		if !ok {
			return nil, fmt.Errorf("engine: delta stream for unregistered relation %q", name)
		}
		if !slices.ContainsFunc(q.Relations, func(r algebra.RelRef) bool { return r.Name == name }) {
			return nil, fmt.Errorf("engine: delta stream %q is not a relation of query %q", name, q.Name)
		}
		p, err := source.NewDeltaProvider(source.NewProvider(rel, nil), deltas[name])
		if err != nil {
			return nil, err
		}
		fs := e.deltaFaults[name]
		policy, hasPolicy := o.SourcePolicies[name]
		if fs != nil || hasPolicy {
			p = source.NewFaulty(p, fs, policy)
		}
		m.Deltas[name] = p
	}
	sq := &StandingQuery{updCh: make(chan StandingWindow, standingUpdateBuffer)}
	runFn := func(runCtx context.Context, cat *core.Catalog, q *algebra.Query, o core.Options, hooks core.RunHooks) (*core.Report, error) {
		hooks.OnUpdates = func(wm core.UpdateWatermark, us []ivm.Update) {
			select {
			case sq.updCh <- StandingWindow{Watermark: wm, Updates: us}:
			case <-runCtx.Done():
				// Canceled: drop the window; the run winds down at its
				// next cancellation point.
			}
		}
		return core.RunMaintenance(runCtx, cat, q, o, m, hooks)
	}
	sq.s = startStream(ctx, cat, q, o, runFn)
	// Close the update channel only after the run's terminal state is
	// published (done before updCh, like done before rowsCh): a consumer
	// that sees the update channel close can immediately read a
	// definitive Err.
	go func() {
		<-sq.s.done
		close(sq.updCh)
	}()
	return sq, nil
}

// NextWindow returns the next watermark window of updates. ok is false
// when the update stream is exhausted — the maintenance run completed,
// failed, or was canceled; consult Err to distinguish. NextWindow and
// NextUpdate share one cursor: interleave them only deliberately. Not
// safe for concurrent use.
func (sq *StandingQuery) NextWindow() (StandingWindow, bool) {
	win, ok := <-sq.updCh
	return win, ok
}

// NextUpdate returns the next revision update, flattening windows. ok is
// false when the update stream is exhausted. Not safe for concurrent use.
func (sq *StandingQuery) NextUpdate() (ivm.Update, bool) {
	if sq.curI < len(sq.cur) {
		u := sq.cur[sq.curI]
		sq.curI++
		return u, true
	}
	for {
		win, ok := <-sq.updCh
		if !ok {
			return ivm.Update{}, false
		}
		if len(win.Updates) == 0 {
			continue
		}
		sq.cur, sq.curI = win.Updates, 1
		return win.Updates[0], true
	}
}

// Updates returns the remaining revision updates as a range-over-func
// iterator. A run error (including cancellation) is yielded once, as the
// final pair, with a zero Update. Breaking out leaves the cursor usable.
func (sq *StandingQuery) Updates() iter.Seq2[ivm.Update, error] {
	return func(yield func(ivm.Update, error) bool) {
		for {
			u, ok := sq.NextUpdate()
			if !ok {
				if err := sq.Err(); err != nil {
					yield(ivm.Update{}, err)
				}
				return
			}
			if !yield(u, nil) {
				return
			}
		}
	}
}

// Next delivers no row — the initial result is the baseline window — and
// returns false once the run has ended. It stays only because the
// benchmark harness calls it (docs/architecture.md, Benchmark-frozen
// surface).
func (sq *StandingQuery) Next() (types.Tuple, bool) { return sq.s.Next() }

// Schema blocks until the output schema is known and returns it.
func (sq *StandingQuery) Schema() *types.Schema { return sq.s.Schema() }

// Events subscribes to the run's event stream; see Stream.Events.
func (sq *StandingQuery) Events() <-chan core.Event { return sq.s.Events() }

// Err returns the run's terminal error; see Stream.Err.
func (sq *StandingQuery) Err() error { return sq.s.Err() }

// Report discards any updates not yet consumed through the cursor (they
// are counted in Report.UpdateCount, not retained), waits for the
// maintenance run to complete, and returns the final report.
// Report.Maintained is the view's current contents.
func (sq *StandingQuery) Report() (*core.Report, error) {
	sq.drain()
	return sq.s.Report()
}

// Result is Report reduced to the maintained view contents.
func (sq *StandingQuery) Result() ([]types.Tuple, error) {
	rep, err := sq.Report()
	if err != nil {
		return nil, err
	}
	return rep.Maintained, nil
}

// Close cancels the maintenance run if it is still going and releases
// its goroutines; see Stream.Close. Idempotent.
func (sq *StandingQuery) Close() error {
	sq.drain()
	return sq.s.Close()
}

// drain discards pending update windows on a background goroutine so the
// run can never deadlock publishing into an abandoned cursor. The update
// channel closes once the run is done, terminating the drain.
func (sq *StandingQuery) drain() {
	sq.cur, sq.curI = nil, 0
	go func() {
		for range sq.updCh {
		}
	}()
}
