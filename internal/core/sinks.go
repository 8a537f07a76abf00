package core

import (
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// aggSink adapts a root layout — a phase tree's, the stitch-up's — into an
// AggTable: AbsorbRaw for full-layout tuples, AbsorbPartial for
// pre-aggregated partials. Absorption does not retain the pushed tuple, so
// adaptation reuses one scratch tuple (types.Adapter.AdaptInto): the sink
// performs zero steady-state allocations, tuple-at-a-time, batched, or
// columnar.
type aggSink struct {
	agg     *exec.AggTable
	ad      *types.Adapter
	partial bool
	scratch types.Tuple
	rowView types.Tuple     // partial-layout columnar entry: row view (never retained)
	colView *types.ColBatch // raw-layout columnar entry: adapted columns (alias the input)
}

// CopiesInput implements exec.InputCopier.
func (s *aggSink) CopiesInput() {}

// Push implements exec.Sink.
func (s *aggSink) Push(t types.Tuple) {
	s.scratch = s.ad.AdaptInto(s.scratch, t)
	if s.partial {
		s.agg.AbsorbPartial(s.scratch)
	} else {
		s.agg.AbsorbRaw(s.scratch)
	}
}

// PushBatch implements exec.BatchSink.
func (s *aggSink) PushBatch(ts []types.Tuple) {
	for _, t := range ts {
		s.Push(t)
	}
}

// PushColBatch implements exec.ColBatchSink. A raw-layout frame stays
// columnar: the adapter permutes its columns without copying a value and
// the table routes the whole frame off one hash vector — the same groups,
// counters and charges, row for row, as pushing the rows. The table has no
// columnar entry for partials, so those are viewed row by row through a
// reused scratch tuple.
func (s *aggSink) PushColBatch(b *types.ColBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if !s.partial {
		if s.colView == nil {
			s.colView = types.NewColBatch(s.ad.To().Len())
		}
		s.ad.AdaptCols(s.colView, b)
		s.agg.PushColBatch(s.colView)
		return
	}
	w := b.Width()
	if cap(s.rowView) < w {
		s.rowView = make(types.Tuple, w)
	}
	row := s.rowView[:w]
	for i := 0; i < n; i++ {
		b.ReadRow(row, i)
		s.Push(row)
	}
}

// forwardSink forwards tuples and batches to a late-bound downstream sink
// (the stitch-up output is constructed before its schema-dependent
// destination exists). Batches pass through PushAll so the downstream
// sink's vectorized path is preserved; columnar frames likewise.
type forwardSink struct {
	out exec.Sink
	cr  exec.ColRows
}

// Push implements exec.Sink.
func (f *forwardSink) Push(t types.Tuple) { f.out.Push(t) }

// PushBatch implements exec.BatchSink.
func (f *forwardSink) PushBatch(ts []types.Tuple) { exec.PushAll(f.out, ts) }

// PushColBatch implements exec.ColBatchSink.
func (f *forwardSink) PushColBatch(b *types.ColBatch) {
	if b.Len() == 0 {
		return
	}
	f.cr.PushColAll(f.out, b)
}

// listSink materializes tuples into a state structure, charging one Move
// per tuple (a materialization write).
type listSink struct {
	ctx *exec.Context
	dst *state.List
	cr  exec.ColRows
}

// Push implements exec.Sink.
func (s *listSink) Push(t types.Tuple) {
	s.ctx.Clock.Charge(s.ctx.Cost.Move)
	s.dst.Insert(t)
}

// PushBatch implements exec.BatchSink: one bulk append after the
// per-tuple Move charges.
func (s *listSink) PushBatch(ts []types.Tuple) {
	for range ts {
		s.ctx.Clock.Charge(s.ctx.Cost.Move)
	}
	s.dst.InsertBatch(ts)
}

// PushColBatch implements exec.ColBatchSink: the list retains rows, so
// the batch materializes (arena-bulk) exactly once here.
func (s *listSink) PushColBatch(b *types.ColBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		s.ctx.Clock.Charge(s.ctx.Cost.Move)
	}
	s.dst.InsertBatch(s.cr.Rows(b))
}
