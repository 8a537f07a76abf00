package core

import (
	"context"

	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/types"
)

// lentBatchRows is the capacity of one lent row batch: a full batch is
// handed to the consumer at once, a partial one at the next monitor poll
// or phase end.
const lentBatchRows = 1024

// RowLender is the bounded window of row batches a streaming run lends its
// consumer. The run's root sink writes result rows straight into the
// oldest free batch — the tuples are carved from one slab per batch — and
// passes it to RunHooks.OnRows; the consumer gives batches back, oldest
// first, with Release. While every batch is out the run blocks (until its
// context is canceled), which is the cursor's back-pressure. Once each
// batch has been lent a first time a stream allocates nothing per row or
// per batch, however long it runs.
//
// One producer (the run goroutine) and one consumer: batches are lent and
// released in the same order, so a count of free batches is all the state
// the two sides share.
type RowLender struct {
	batches []rowBatch
	free    chan struct{} // one token per batch not lent
	head    int           // next batch to lend (run goroutine only)
	slabs   int           // slabs allocated so far (run goroutine only)
}

// rowBatch is one lent batch: row headers over one value slab.
type rowBatch struct {
	rows []types.Tuple
	slab []types.Value
}

// NewRowLender creates a lender of window batches.
func NewRowLender(window int) *RowLender {
	l := &RowLender{batches: make([]rowBatch, window), free: make(chan struct{}, window)}
	for i := 0; i < window; i++ {
		l.free <- struct{}{}
	}
	return l
}

// Release gives the oldest batch still lent back to the run: its rows and
// their storage are overwritten from then on. Call it once per OnRows
// delivery, in delivery order.
func (l *RowLender) Release() { l.free <- struct{}{} }

// Idle reports whether every batch is back: once its run is over, such a
// lender can serve another run.
func (l *RowLender) Idle() bool { return len(l.free) == cap(l.free) }

// acquire waits for a free batch and returns it empty, sized for rows of
// the given width; nil once ctx is canceled.
func (l *RowLender) acquire(ctx context.Context, width int) *rowBatch {
	select {
	case <-l.free:
	case <-ctx.Done():
		return nil
	}
	b := &l.batches[l.head]
	l.head = (l.head + 1) % len(l.batches)
	if cap(b.slab) < lentBatchRows*width {
		b.rows = make([]types.Tuple, 0, lentBatchRows)
		b.slab = make([]types.Value, 0, lentBatchRows*width)
		l.slabs++
	}
	b.rows, b.slab = b.rows[:0], b.slab[:0]
	return b
}

// rootRows is where a run's root rows end up: every phase's root sink, the
// stitch-up's and the final aggregate emit (AggTable.EmitFinal) write
// through it. With a row hook the rows go into lent batches and nothing is
// retained; without one each row is a retained tuple of Report.Rows.
type rootRows struct {
	ctx    context.Context
	onRows func([]types.Tuple) // nil: retain
	lender *RowLender
	// own marks the run's private one-batch lender (a hook without a
	// lender of its own): the batch is taken back when OnRows returns.
	own bool

	cur   *rowBatch     // lent batch being filled
	kept  []types.Tuple // retained rows (no hook)
	count int64         // rows written, either way
	drop  types.Tuple   // where rows go once the run is canceled

	// A standing query's root rows are counted, not written: its result
	// leaves as updates, the signed root rows since the last watermark and,
	// with asserts, the initial run's as +1, the baseline.
	standing, asserts bool
	updates           []types.Update
}

func newRootRows(ctx context.Context, hooks RunHooks) *rootRows {
	r := &rootRows{ctx: ctx, onRows: hooks.OnRows, lender: hooks.Lender}
	if r.onRows != nil && r.lender == nil {
		r.lender, r.own = NewRowLender(1), true
	}
	return r
}

// next returns the storage of the next root row: width values the caller
// fills in.
func (r *rootRows) next(width int) types.Tuple {
	r.count++
	if r.onRows == nil {
		t := make(types.Tuple, width)
		r.kept = append(r.kept, t)
		return t
	}
	b := r.cur
	if b == nil || len(b.rows) == cap(b.rows) {
		r.flush()
		if b = r.lender.acquire(r.ctx, width); b == nil {
			// Canceled with every batch out: the consumer is gone. The
			// run stops at its next cancellation point; until then its
			// rows land in a scratch tuple.
			if cap(r.drop) < width {
				r.drop = make(types.Tuple, width)
			}
			return r.drop[:width]
		}
		r.cur = b
	}
	off := len(b.slab)
	b.slab = b.slab[:off+width]
	t := types.Tuple(b.slab[off : off+width : off+width])
	b.rows = append(b.rows, t)
	return t
}

// flush hands the consumer the batch being filled, if it holds any rows.
func (r *rootRows) flush() {
	b := r.cur
	if b == nil || len(b.rows) == 0 {
		return
	}
	r.cur = nil
	r.onRows(b.rows)
	if r.own {
		r.lender.Release()
	}
}

// rootSink adapts one root layout — a phase plan's, the stitch-up's — into
// the run's output layout, writing each row once, into rootRows storage.
type rootSink struct {
	ctx  *exec.Context
	ad   *types.Adapter
	out  *rootRows
	move int64 // charged per row: a Move, or 0 where the producer paid it (rootSinkFor's cost)
}

// CopiesInput implements exec.InputCopier: the root join feeding this sink
// recycles its emit arena.
func (s *rootSink) CopiesInput() {}

// Push implements exec.Sink. A signed row — a standing SPJ query's root row
// out of its maintenance tree — is an update of the next window.
//
//adp:hotpath gated by BenchmarkStreamDelivery (scripts/check_allocs.sh)
func (s *rootSink) Push(ts []types.Tuple, sign int) {
	s.ctx.Clock.Charge(int64(len(ts)) * s.move)
	out := s.out
	if sign == 0 && out.standing {
		if out.count += int64(len(ts)); !out.asserts {
			return
		}
		sign = 1
	}
	if sign != 0 {
		for _, t := range ts {
			out.updates = append(out.updates, types.Update{Row: s.ad.Adapt(t), Sign: sign})
		}
		return
	}
	w := s.ad.To().Len()
	for _, t := range ts {
		s.ad.AdaptInto(out.next(w), t)
	}
}
