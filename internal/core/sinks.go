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
// performs zero steady-state allocations.
type aggSink struct {
	agg     *exec.AggTable
	ad      *types.Adapter
	partial bool
	scratch types.Tuple
}

// CopiesInput implements exec.InputCopier.
func (s *aggSink) CopiesInput() {}

// PushBatch implements exec.Sink.
func (s *aggSink) PushBatch(ts []types.Tuple) {
	for _, t := range ts {
		s.scratch = s.ad.AdaptInto(s.scratch, t)
		if s.partial {
			s.agg.AbsorbPartial(s.scratch)
		} else {
			s.agg.AbsorbRaw(s.scratch)
		}
	}
}

// PushSigned implements exec.DeltaSink: a standing query's signed root rows,
// out of its maintenance tree, are adapted and absorbed as signed.
func (s *aggSink) PushSigned(ts []types.Tuple, sign int) {
	for _, t := range ts {
		s.scratch = s.ad.AdaptInto(s.scratch, t)
		s.agg.AbsorbSigned(s.scratch, sign)
	}
}

// forwardSink forwards batches to a late-bound downstream sink: the
// stitch-up output is constructed before its schema-dependent destination
// exists, and a maintenance tree is warmed up before its root is bound when
// every consequence of the rows it is warmed with has been delivered already.
type forwardSink struct {
	out exec.DeltaSink
}

// CopiesInput implements exec.InputCopier: every destination rootSinkFor
// binds a stitch-up to — the aggregate, an aggSink, a rootSink — copies what
// it keeps.
func (f *forwardSink) CopiesInput() {}

// PushBatch implements exec.Sink.
func (f *forwardSink) PushBatch(ts []types.Tuple) { f.out.PushBatch(ts) }

// PushSigned implements exec.DeltaSink. While nothing is bound the batch is
// dropped: the warm-up only reconstructs join state.
func (f *forwardSink) PushSigned(ts []types.Tuple, sign int) {
	if f.out != nil {
		f.out.PushSigned(ts, sign)
	}
}

// listSink materializes tuples into a state structure, charging one Move
// per tuple (a materialization write).
type listSink struct {
	ctx *exec.Context
	dst *state.List
}

// PushBatch implements exec.Sink: one bulk append.
func (s *listSink) PushBatch(ts []types.Tuple) {
	s.ctx.Clock.Charge(int64(len(ts)) * s.ctx.Cost.Move)
	s.dst.InsertBatch(ts)
}
