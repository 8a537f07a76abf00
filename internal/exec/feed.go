package exec

import (
	"context"

	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// Leaf connects one source provider to the operator tree. Per-relation
// selection predicates push down to the leaf; optional instrumentation
// hooks feed histograms and order detectors (§3.3, §4.5), with their CPU
// overhead charged to the clock so the overhead experiment is honest.
type Leaf struct {
	Provider source.Provider
	// PushBatch delivers a batch of post-filter tuples into the plan. The
	// slice is reused across batches and must not be retained.
	PushBatch func(ts []types.Tuple)
	// Pred is the bound local selection (nil = none).
	Pred func(t types.Tuple) bool
	// OnTuple observes every tuple read (pre-filter), e.g. histogram
	// maintenance. Charged HistUpdate per call.
	OnTuple func(t types.Tuple)

	// Read counts tuples consumed from the provider by this driver;
	// Passed counts tuples surviving the filter.
	Read   int64
	Passed int64
}

// Feed is the leaf delivery (Leaf.PushBatch) that pushes every post-filter
// batch into s unsigned.
func Feed(s Sink) func([]types.Tuple) {
	return func(ts []types.Tuple) { s.Push(ts, 0) }
}

// Driver delivers source tuples into a plan in global availability order:
// at each step the leaf whose next tuple arrives earliest is serviced.
// This models Tukwila's adaptive scheduling — when one source stalls,
// another's tuples are processed, masking I/O delays (§3.3) — while
// remaining fully deterministic.
type Driver struct {
	ctx    *Context
	leaves []*Leaf
	// Delivered counts tuples delivered across all leaves.
	Delivered int64
	// Fatal, when set, is consulted between batch deliveries (the same
	// cadence as context cancellation): a non-nil return aborts the run
	// with that error, with the plan in the usual consistent suspended
	// state. The fault layer uses it to fail fast once a source is
	// abandoned under the fail-fast policy; a permanently failed leaf
	// otherwise just stops yielding tuples (graceful degradation).
	Fatal func() error

	counters stats.OpCounters
}

// NewDriver creates a driver over the given leaves.
func NewDriver(ctx *Context, leaves ...*Leaf) *Driver {
	return &Driver{ctx: ctx, leaves: leaves}
}

// Leaves returns the attached leaves.
func (d *Driver) Leaves() []*Leaf { return d.leaves }

// DefaultBatch is the source-delivery batch size: the driver groups up to
// this many consecutive same-leaf, already-available tuples into one
// batch delivery.
const DefaultBatch = 64

// bestLeaf returns the index of the leaf whose next tuple arrives
// earliest (ties to the lowest index), or -1 when all are exhausted.
func (d *Driver) bestLeaf() int {
	best := -1
	bestAt := 0.0
	for i, l := range d.leaves {
		at, ok := l.Provider.PeekArrival()
		if !ok {
			continue
		}
		if best < 0 || at < bestAt {
			best, bestAt = i, at
		}
	}
	return best
}

// readInto consumes one row from leaf l, advancing the clock to the row's
// arrival stamp rounded to the nanosecond and charging
// instrumentation/filter costs; it returns the tuple and whether it
// survived the filter. A read that yields nothing (the provider faulted
// or exhausted between the availability peek and the read) counts as
// filtered-out without touching the counters or the clock.
func (d *Driver) readInto(l *Leaf) (types.Tuple, bool) {
	row, ok := l.Provider.Next()
	if !ok {
		return nil, false
	}
	d.ctx.Clock.AdvanceTo(Nanos(row.At))
	l.Read++
	d.Delivered++
	d.counters.In++
	if l.OnTuple != nil {
		d.ctx.Clock.Charge(d.ctx.Cost.HistUpdate)
		l.OnTuple(row.T)
	}
	if l.Pred != nil {
		d.ctx.Clock.Charge(d.ctx.Cost.Compare)
		if !l.Pred(row.T) {
			return nil, false
		}
	}
	l.Passed++
	d.counters.Out++
	return row.T, true
}

// stepBatch reads up to max tuples from the earliest-available leaf into
// batch and delivers the post-filter survivors in one call. A batch extends
// only while the same leaf remains the earliest (bestLeaf) AND its next
// tuple is already available (its stamp, rounded as readInto rounds it, is
// at most the current virtual time, so the AdvanceTo it would perform is a
// no-op) — so the delivery order, the counters and the clock do not depend
// on max. It returns the number of
// tuples read (0 when sources are exhausted).
func (d *Driver) stepBatch(max int, batch *[]types.Tuple) int {
	best := d.bestLeaf()
	if best < 0 {
		return 0
	}
	l := d.leaves[best]
	buf := (*batch)[:0]
	reads := 0
	for reads < max {
		t, ok := d.readInto(l)
		reads++
		if ok {
			buf = append(buf, t)
		}
		at, more := l.Provider.PeekArrival()
		if !more || Nanos(at) > d.ctx.Clock.Now || d.bestLeaf() != best {
			break
		}
	}
	*batch = buf
	if len(buf) > 0 {
		l.PushBatch(buf)
	}
	return reads
}

// Run delivers tuples until the sources are exhausted or poll asks to
// stop. poll (optional) is invoked after every pollEvery delivered tuples;
// returning true suspends the run — execution is then at a consistent
// state, because suspension happens between source-tuple deliveries and
// every operator has fully processed what it was fed ("allow the plan to
// reach a consistent state", §4.1). Run reports whether the sources are
// exhausted.
//
// Delivery is batched: consecutive already-available tuples from the same
// source flow to the plan as one batch (capped so poll still fires at
// exactly every pollEvery tuples read).
func (d *Driver) Run(pollEvery int, poll func() bool) (exhausted bool) {
	exhausted, _ = d.run(context.Background(), DefaultBatch, pollEvery, poll)
	return exhausted
}

// RunContext is Run with cancellation: the context is checked between
// batch deliveries (so at most one batch of work happens after a cancel),
// and a canceled run returns the context's error with the plan in the
// same consistent suspended state a poll-initiated suspension leaves —
// every delivered tuple fully processed, no operator mid-frame.
func (d *Driver) RunContext(ctx context.Context, pollEvery int, poll func() bool) (exhausted bool, err error) {
	return d.run(ctx, DefaultBatch, pollEvery, poll)
}

// run is RunContext with an explicit batch cap (the parallel driver reads
// with a larger cap to amortize per-message scatter overhead; the cap does
// not change delivery order, counters, or the clock — batches only extend
// over already-available same-source tuples).
func (d *Driver) run(ctx context.Context, batchCap, pollEvery int, poll func() bool) (exhausted bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	batch := make([]types.Tuple, 0, batchCap)
	done := ctx.Done() // nil for Background: the select below is skipped
	sincePoll := 0
	for {
		if done != nil {
			select {
			case <-done:
				return false, ctx.Err()
			default:
			}
		}
		// Cancellation outranks a source fault: a canceled run reports
		// context.Canceled even when a source was abandoned in the same
		// window.
		if d.Fatal != nil {
			if ferr := d.Fatal(); ferr != nil {
				return false, ferr
			}
		}
		budget := batchCap
		if poll != nil && pollEvery-sincePoll < budget {
			budget = pollEvery - sincePoll
		}
		if budget < 1 {
			budget = 1
		}
		n := d.stepBatch(budget, &batch)
		if n == 0 {
			// A fault can latch during the very batch that drains the last
			// leaf (an abandoned source peeks not-ok): re-check before
			// declaring the sources exhausted, with cancellation still
			// taking precedence.
			if done != nil {
				select {
				case <-done:
					return false, ctx.Err()
				default:
				}
			}
			if d.Fatal != nil {
				if ferr := d.Fatal(); ferr != nil {
					return false, ferr
				}
			}
			return true, nil
		}
		if poll == nil {
			continue
		}
		sincePoll += n
		if sincePoll >= pollEvery {
			sincePoll = 0
			if poll() {
				return false, nil
			}
		}
	}
}
