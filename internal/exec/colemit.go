package exec

import (
	"github.com/tukwila/adp/internal/types"
)

// hitEmitter is the hash join's columnar probe-hit gatherer: while a
// columnar batch probes the build table, hits accumulate as (probe row
// index, matched build tuple) pairs, and flushes gather them into the
// reused output batch in one AppendHits — probe-side values move
// column-at-a-time straight from the input batch's dense storage into the
// output columns, so no output row is ever materialized. Flushes happen
// at emitFlushLen and at the end of the probe (before the input batch is
// invalidated), preserving hit order.
type hitEmitter struct {
	sel     []int32
	matches []types.Tuple
	buf     *types.ColBatch
}

// begin readies the reused output batch for an output width.
func (e *hitEmitter) begin(width int) {
	if e.buf == nil || e.buf.Width() != width {
		e.buf = types.NewColBatch(width)
	}
}

// add buffers one hit: probe row i of the current input batch matched the
// build-side tuple match.
func (e *hitEmitter) add(out ColBatchSink, src *types.ColBatch, probeOff, matchOff int, i int32, match types.Tuple) {
	e.sel = append(e.sel, i)
	e.matches = append(e.matches, match)
	if len(e.sel) >= emitFlushLen {
		e.flush(out, src, probeOff, matchOff)
	}
}

// flush gathers the buffered hits into the output batch and delivers it.
func (e *hitEmitter) flush(out ColBatchSink, src *types.ColBatch, probeOff, matchOff int) {
	if len(e.sel) == 0 {
		return
	}
	e.buf.AppendHits(src, e.sel, probeOff, e.matches, matchOff)
	clear(e.matches)
	e.sel, e.matches = e.sel[:0], e.matches[:0]
	out.PushColBatch(e.buf)
	e.buf.Reset()
}
