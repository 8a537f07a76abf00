package core

import (
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// aggSink adapts a root layout — a phase tree's, the stitch-up's — into an
// AggTable: AbsorbRaw for full-layout tuples, AbsorbPartial for
// pre-aggregated partials, AbsorbSigned for a standing query's signed root
// rows out of its maintenance tree. Absorption does not retain the pushed
// tuple, so adaptation reuses one scratch tuple (types.Adapter.AdaptInto):
// the sink performs zero steady-state allocations.
type aggSink struct {
	agg     *exec.AggTable
	ad      *types.Adapter
	partial bool
	scratch types.Tuple
}

// CopiesInput implements exec.InputCopier.
func (s *aggSink) CopiesInput() {}

// Push implements exec.Sink.
func (s *aggSink) Push(ts []types.Tuple, sign int) {
	for _, t := range ts {
		s.scratch = s.ad.AdaptInto(s.scratch, t)
		switch {
		case sign != 0:
			s.agg.AbsorbSigned(s.scratch, sign)
		case s.partial:
			s.agg.AbsorbPartial(s.scratch)
		default:
			s.agg.AbsorbRaw(s.scratch)
		}
	}
}

// forwardSink forwards batches to a late-bound downstream sink: the
// stitch-up output is constructed before its schema-dependent destination
// exists, and a maintenance tree is warmed up before its root is bound when
// every consequence of the rows it is warmed with has been delivered already.
type forwardSink struct {
	out exec.Sink
}

// CopiesInput implements exec.InputCopier: every destination rootSinkFor
// binds a stitch-up to — the aggregate, an aggSink, a rootSink — copies what
// it keeps.
func (f *forwardSink) CopiesInput() {}

// Push implements exec.Sink. While nothing is bound the batch is dropped:
// the warm-up only reconstructs join state.
func (f *forwardSink) Push(ts []types.Tuple, sign int) {
	if f.out != nil {
		f.out.Push(ts, sign)
	}
}

// listSink materializes tuples into a state structure, charging one Move
// per tuple (a materialization write).
type listSink struct {
	ctx *exec.Context
	dst *state.List
}

// Push implements exec.Sink: one bulk append. A materialization keeps no
// signed state (exec.SignBlind).
func (s *listSink) Push(ts []types.Tuple, sign int) {
	exec.SignBlind(sign)
	s.ctx.Clock.Charge(int64(len(ts)) * s.ctx.Cost.Move)
	s.dst.InsertBatch(ts)
}
