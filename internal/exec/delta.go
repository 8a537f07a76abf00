// Signed (delta) execution for incremental view maintenance. During the
// maintenance stage of a standing query, batches flow through the same
// lowered operator tree as the initial run, but each batch carries a
// sign: +1 for insertions into the result, -1 for retractions. The sign
// travels out of band — a delta batch is an ordinary ColBatch whose rows
// all share the batch's sign — so the columnar storage, hashing, and
// gather kernels are reused untouched.
//
// Join state follows the z-set formulation (Olteanu, arXiv:2404.17679):
// each side's effective multiset is its main table minus a lazily
// created negative table that retains deleted rows. A delta with sign s
// inserts into the main (s>0) or negative (s<0) table of its own side,
// then re-probes the opposite side's main table emitting sign s and its
// negative table emitting -s — the bilinear delta rule. The maintenance
// driver clamps deletes against the tracked base multiset before they
// reach the tree, so a negative-table row always has a matching main-
// table row and the z-set difference is an exact multiset.
package exec

import (
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// DeltaSink is a sink that accepts signed columnar batches. Every row of
// b carries the batch's sign; b is only valid during the call.
type DeltaSink interface {
	Sink
	PushDelta(b *types.ColBatch, sign int)
}

// DeltaForward delivers signed batches to a downstream sink, caching the
// one DeltaSink type assertion. Pure insertions (+1) degrade to the
// unsigned path when the sink is sign-agnostic — an insert-only delta
// stream is indistinguishable from ordinary execution — but a retraction
// reaching a sign-agnostic sink is a lowering bug and panics.
type DeltaForward struct {
	checked bool
	ds      DeltaSink
	del     colDelivery
}

// Forward delivers one signed batch to out.
func (d *DeltaForward) Forward(out Sink, b *types.ColBatch, sign int) {
	if b.Len() == 0 {
		return
	}
	if !d.checked {
		d.ds, _ = out.(DeltaSink)
		d.checked = true
	}
	if d.ds != nil {
		d.ds.PushDelta(b, sign)
		return
	}
	if sign > 0 {
		d.del.PushColAll(out, b)
		return
	}
	panic("exec: retraction delta reached a sink without PushDelta")
}

// signedOut adapts the join's columnar hit-gather machinery to signed
// delivery: it implements ColBatchSink so hitEmitter can flush straight
// into it, forwarding every frame downstream as a delta with the armed
// sign. One instance lives on the join and is re-armed per probe sweep,
// so steady-state signed emits allocate nothing.
type signedOut struct {
	fw   DeltaForward
	out  Sink
	sign int
	buf  *types.ColBatch // row→column bridge for the row-path emits
}

func (s *signedOut) arm(out Sink, sign int) {
	s.out = out
	s.sign = sign
}

func (s *signedOut) ensure(width int) {
	if s.buf == nil || s.buf.Width() != width {
		s.buf = types.NewColBatch(width)
	}
}

// PushBatch implements Sink (the nested-loops scan's row emits).
func (s *signedOut) PushBatch(ts []types.Tuple) {
	if len(ts) == 0 {
		return
	}
	s.ensure(len(ts[0]))
	s.buf.Reset()
	s.buf.AppendRows(ts)
	s.fw.Forward(s.out, s.buf, s.sign)
	s.buf.Reset()
}

// PushColBatch implements ColBatchSink: the hit emitter's flush lands
// here and leaves as a signed frame.
func (s *signedOut) PushColBatch(b *types.ColBatch) {
	if b.Len() == 0 {
		return
	}
	s.fw.Forward(s.out, b, s.sign)
}

// --- HashJoin ---------------------------------------------------------

// PushDelta implements DeltaSink on the join's input sides.
func (s joinSide) PushDelta(b *types.ColBatch, sign int) {
	if s.left {
		s.j.PushDeltaLeft(b, sign)
	} else {
		s.j.PushDeltaRight(b, sign)
	}
}

// PushDeltaLeft feeds a signed delta batch into the left input: build
// into the left z-set, re-probe the retained right state both ways.
//
//adp:hotpath gated by BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (j *HashJoin) PushDeltaLeft(b *types.ColBatch, sign int) { j.pushDelta(true, b, sign) }

// PushDeltaRight feeds a signed delta batch into the right input.
//
//adp:hotpath gated by BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (j *HashJoin) PushDeltaRight(b *types.ColBatch, sign int) { j.pushDelta(false, b, sign) }

// pushDelta is the shared signed push. During maintenance every join
// style is symmetric — both inputs finished their initial run, so
// BuildThenProbe joins probe immediately like Pipelined ones.
//
//adp:hotpath gated by BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (j *HashJoin) pushDelta(left bool, b *types.ColBatch, sign int) {
	n := b.Len()
	if n == 0 {
		return
	}
	if j.sout == nil {
		j.sout = &signedOut{} //adp:alloc-ok once per join, first delta only
	}
	j.counters.In += int64(n)
	if left {
		j.counters.InLeft += int64(n)
	} else {
		j.counters.InRight += int64(n)
	}
	if j.Style == NestedLoops {
		j.pushDeltaNested(left, b, sign)
		return
	}
	keyCols := j.leftKey
	if !left {
		keyCols = j.rightKey
	}
	j.hashVec = types.HashKeys(j.hashVec, b, keyCols)
	rows := j.colIn.materialize(b)
	j.deltaTable(left, sign).InsertHashedBatch(j.hashVec, rows)
	for range rows {
		j.ctx.Clock.Charge(j.ctx.Cost.HashInsert)
	}
	// Bilinear delta rule: probe the opposite main state with the
	// delta's sign and its negative state with the opposite sign. The
	// positive-emitting probe always runs first: downstream consumers
	// that track value multisets (the signed aggregate's min/max bags)
	// need every retraction to find a live assertion, and since the
	// negative table is a sub-multiset of the main one, assert-first
	// ordering guarantees that prefix property.
	if left {
		if sign > 0 {
			j.probeDelta(j.rightHT, false, b, rows, j.leftKey, sign)
			j.probeDelta(j.negRightHT, false, b, rows, j.leftKey, -sign)
		} else {
			j.probeDelta(j.negRightHT, false, b, rows, j.leftKey, -sign)
			j.probeDelta(j.rightHT, false, b, rows, j.leftKey, sign)
		}
	} else {
		if sign > 0 {
			j.probeDelta(j.leftHT, true, b, rows, j.rightKey, sign)
			j.probeDelta(j.negLeftHT, true, b, rows, j.rightKey, -sign)
		} else {
			j.probeDelta(j.negLeftHT, true, b, rows, j.rightKey, -sign)
			j.probeDelta(j.leftHT, true, b, rows, j.rightKey, sign)
		}
	}
}

// deltaTable returns the hash table a signed build lands in, creating
// the negative table on first retraction. Negative tables start at the
// default bucket count — they hold deletions, which the cardinality
// estimates behind NewHashJoinSized never cover.
func (j *HashJoin) deltaTable(left bool, sign int) *state.HashTable {
	if sign > 0 {
		if left {
			return j.leftHT
		}
		return j.rightHT
	}
	if left {
		if j.negLeftHT == nil {
			j.negLeftHT = state.NewHashTable(j.left.Schema(), j.leftKey) //adp:alloc-ok first retraction only
			j.negLeftList = j.negLeftHT.List()
		}
		return j.negLeftHT
	}
	if j.negRightHT == nil {
		j.negRightHT = state.NewHashTable(j.right.Schema(), j.rightKey) //adp:alloc-ok first retraction only
		j.negRightList = j.negRightHT.List()
	}
	return j.negRightHT
}

// SideLists exposes one side's z-set as the join buffers it, whatever the
// style. main holds the rows pushed or asserted, in arrival order: the source
// data a plan must buffer at its leaves (§3.4), which a leaf feeding this
// side directly shares as its base partition. neg holds the rows retracted
// (nil until there is one); a maintenance tree built later is warmed from
// both.
func (j *HashJoin) SideLists(left bool) (main, neg *state.List) {
	if left {
		return j.leftList, j.negLeftList
	}
	return j.rightList, j.negRightList
}

// Lists is SideLists of the side this sink feeds.
func (s joinSide) Lists() (main, neg *state.List) { return s.j.SideLists(s.left) }

// probeDelta probes one retained table with the delta batch, emitting
// every hit with emitSign. hashes and rows come from pushDelta's key
// sweep; probedLeft says the probed table belongs to the left side, so
// matches fill the left half of the output layout. Probe work is
// charged per row up front (1 + chain length, as the row path would);
// each hit charges one Move. The probed table never changes during the
// sweep — the delta built into its own side's table — so the upfront
// charge is exact. A nil or empty table is skipped entirely: probing
// state that was never created costs nothing, deterministically.
//
//adp:hotpath gated by BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (j *HashJoin) probeDelta(table *state.HashTable, probedLeft bool, b *types.ColBatch, rows []types.Tuple, keyCols []int, emitSign int) {
	if table == nil || table.Len() == 0 {
		return
	}
	for i := range rows {
		work := 1.0 + float64(table.ChainLenHashed(j.hashVec[i]))
		j.ctx.Clock.Charge(work * j.ctx.Cost.HashProbe)
	}
	probeOff, matchOff := 0, j.leftWidth
	if probedLeft {
		probeOff, matchOff = j.leftWidth, 0
	}
	j.sout.arm(j.out, emitSign)
	j.hits.begin(j.schema.Len())
	table.ProbeHashedBatch(j.hashVec, rows, keyCols, func(i int, match types.Tuple) bool {
		j.ctx.Clock.Charge(j.ctx.Cost.Move)
		j.counters.Out++
		j.hits.add(j.sout, b, probeOff, matchOff, int32(i), match)
		return true
	})
	j.hits.flush(j.sout, b, probeOff, matchOff)
}

// pushDeltaNested is the signed push for nested-loops joins: lists play
// the role of the hash tables, scans replace probes. Not a hot path —
// lowering only picks NestedLoops for joins without equijoin keys.
func (j *HashJoin) pushDeltaNested(left bool, b *types.ColBatch, sign int) {
	rows := j.colIn.materialize(b)
	build, opp, negOpp := j.deltaLists(left, sign)
	for _, t := range rows {
		build.Insert(t)
		j.ctx.Clock.Charge(j.ctx.Cost.Move)
		// Positive-emitting scan first (see pushDelta).
		if sign > 0 {
			j.scanDelta(opp, left, t, sign)
			j.scanDelta(negOpp, left, t, -sign)
		} else {
			j.scanDelta(negOpp, left, t, -sign)
			j.scanDelta(opp, left, t, sign)
		}
	}
}

// deltaLists resolves the nested-loops build target plus the opposite
// side's main and negative lists, creating the negative build list on
// first retraction.
func (j *HashJoin) deltaLists(left bool, sign int) (build, opp, negOpp *state.List) {
	if left {
		opp, negOpp = j.rightList, j.negRightList
		if sign > 0 {
			return j.leftList, opp, negOpp
		}
		if j.negLeftList == nil {
			j.negLeftList = state.NewList(j.leftList.Schema())
		}
		return j.negLeftList, opp, negOpp
	}
	opp, negOpp = j.leftList, j.negLeftList
	if sign > 0 {
		return j.rightList, opp, negOpp
	}
	if j.negRightList == nil {
		j.negRightList = state.NewList(j.rightList.Schema())
	}
	return j.negRightList, opp, negOpp
}

// scanDelta scans one opposite-side list against a delta row, emitting
// concatenated matches with emitSign — the same KeyEquals sweep as the
// unsigned scanLeft/scanRight. deltaLeft says the delta row is the left
// operand.
func (j *HashJoin) scanDelta(l *state.List, deltaLeft bool, t types.Tuple, emitSign int) {
	if l == nil || l.Len() == 0 {
		return
	}
	j.sout.arm(j.out, emitSign)
	l.Scan(func(m types.Tuple) bool {
		j.ctx.Clock.Charge(j.ctx.Cost.Compare)
		lt, rt := t, m
		if !deltaLeft {
			lt, rt = m, t
		}
		if !lt.KeyEquals(j.leftKey, rt, j.rightKey) {
			return true
		}
		j.ctx.Clock.Charge(j.ctx.Cost.Move)
		j.counters.Out++
		j.sout.PushBatch([]types.Tuple{lt.Concat(rt)})
		return true
	})
}

// --- Filter -----------------------------------------------------------

// PushDelta implements DeltaSink: the predicate sweep is sign-blind,
// survivors keep the batch's sign.
func (f *Filter) PushDelta(b *types.ColBatch, sign int) {
	w := b.Width()
	if f.colScratch == nil || f.colScratch.Width() != w {
		f.colScratch = types.NewColBatch(w)
	}
	out := f.colScratch
	out.Reset()
	if cap(f.rowView) < w {
		f.rowView = make(types.Tuple, w)
	}
	row := f.rowView[:w]
	for i, n := 0, b.Len(); i < n; i++ {
		f.counters.In++
		f.ctx.Clock.Charge(f.ctx.Cost.Compare)
		b.ReadRow(row, i)
		if f.pred(row) {
			f.counters.Out++
			out.AppendRow(row)
		}
	}
	if out.Len() > 0 {
		f.dfw.Forward(f.out, out, sign)
	}
}

// --- Project ----------------------------------------------------------

// PushDelta implements DeltaSink: the column permutation is sign-blind.
func (p *Project) PushDelta(b *types.ColBatch, sign int) {
	n := b.Len()
	if n == 0 {
		return
	}
	if p.colScratch == nil {
		p.colScratch = types.NewColBatch(p.adapter.To().Len())
	}
	p.counters.In += int64(n)
	p.counters.Out += int64(n)
	for i := 0; i < n; i++ {
		p.ctx.Clock.Charge(p.ctx.Cost.Move)
	}
	p.adapter.AdaptCols(p.colScratch, b)
	p.dfw.Forward(p.out, p.colScratch, sign)
}

// --- Combine ----------------------------------------------------------

// PushDelta implements DeltaSink (signed pass-through).
func (c *Combine) PushDelta(b *types.ColBatch, sign int) {
	c.counters.In += int64(b.Len())
	c.counters.Out += int64(b.Len())
	c.dfw.Forward(c.out, b, sign)
}

// PushDelta on the discard sink drops signed batches like everything
// else.
func (discardSink) PushDelta(*types.ColBatch, int) {}
