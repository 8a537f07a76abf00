package exec

import (
	"fmt"

	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// mergeGroup is a closed run of equal-key tuples on one merge-join input.
// The group's key is implied by its rows: every row shares it, so
// comparisons go through rows[0] and the side's key columns instead of a
// materialized key slice.
type mergeGroup struct {
	rows []types.Tuple
}

// groupSlab is the tuple-slice arena slab size for group storage.
const groupSlab = 1024

// tupleArena carves single-tuple group storage out of large slabs: in the
// common (mostly-unique-key) case every group holds exactly one row, so
// group creation costs one allocation per slab instead of one per group.
// A group that grows past its first row reallocates onto the heap (the
// arena slice is capacity-capped, so the append cannot clobber a
// neighbour).
type tupleArena struct {
	slab []types.Tuple
}

func (a *tupleArena) one(t types.Tuple) []types.Tuple {
	if cap(a.slab)-len(a.slab) < 1 {
		a.slab = make([]types.Tuple, 0, groupSlab)
	}
	off := len(a.slab)
	a.slab = a.slab[:off+1]
	s := a.slab[off : off+1 : off+1]
	s[0] = t
	return s
}

// mergeSide is one input of the merge join: an open (still growing) group
// plus a FIFO of closed groups ready to match.
type mergeSide struct {
	keyCols []int
	open    mergeGroup
	hasOpen bool
	ready   []mergeGroup
	done    bool
	arena   tupleArena
	table   *state.HashTable // consumed tuples, kept for mini stitch-up
}

func (s *mergeSide) push(t types.Tuple) error {
	if !s.hasOpen {
		s.open = mergeGroup{rows: s.arena.one(t)}
		s.hasOpen = true
		return nil
	}
	c := types.CompareKey(s.open.rows[0], s.keyCols, t, s.keyCols)
	switch {
	case c == 0:
		s.open.rows = append(s.open.rows, t)
	case c < 0:
		s.ready = append(s.ready, s.open)
		s.open = mergeGroup{rows: s.arena.one(t)}
	default:
		return fmt.Errorf("exec: merge join received out-of-order tuple (%v after %v on key columns %v)",
			t, s.open.rows[0], s.keyCols)
	}
	return nil
}

func (s *mergeSide) finish() {
	s.done = true
	if s.hasOpen {
		s.ready = append(s.ready, s.open)
		s.open = mergeGroup{}
		s.hasOpen = false
	}
}

// MergeJoin is a streaming merge join over two key-ordered inputs — the
// merge half of the complementary join pair (§5). Both inputs are also
// stored into hash tables (the merge join's local h(R)/h(S) of Figure 4)
// so the pair's mini stitch-up can join them against the hash-side tables.
// An out-of-order push is a routing bug and returns an error.
type MergeJoin struct {
	ctx    *Context
	out    Sink
	left   mergeSide
	right  mergeSide
	schema *types.Schema

	em       BatchEmitter
	counters stats.OpCounters
}

// NewMergeJoin creates the node. Inputs must arrive ascending on their key
// columns. Its tables grow, on the context's spare.
func NewMergeJoin(ctx *Context, leftSchema, rightSchema *types.Schema, leftKey, rightKey []int, out Sink) *MergeJoin {
	m := &MergeJoin{
		ctx:    ctx,
		out:    out,
		schema: leftSchema.Concat(rightSchema),
		left: mergeSide{keyCols: leftKey,
			table: state.NewHashTableSized(leftSchema, leftKey, 0, ctx.Spare)},
		right: mergeSide{keyCols: rightKey,
			table: state.NewHashTableSized(rightSchema, rightKey, 0, ctx.Spare)},
		em: ctx.Emitter(),
	}
	ctx.owned = append(ctx.owned, m)
	return m
}

// free gives m's tables to spare at the end of its run.
func (m *MergeJoin) free(spare *state.Spare) {
	for _, t := range [2]*state.HashTable{m.left.table, m.right.table} {
		spare.Release(t)
		spare.ReleaseList(t.List())
	}
}

// Schema returns the output layout.
func (m *MergeJoin) Schema() *types.Schema { return m.schema }

// Counters exposes statistics.
func (m *MergeJoin) Counters() *stats.OpCounters { return &m.counters }

// Tables exposes the merge join's local storage (for the pair's
// stitch-up).
func (m *MergeJoin) Tables() (left, right *state.HashTable) { return m.left.table, m.right.table }

// push feeds a batch of in-order tuples to the left or the right input: the
// batch's inserts charged at once, then per tuple one key hash for the
// local-table insert, group accounting and advance, the batch's join outputs
// carved from the emitter's arena and delivered downstream in one call. An
// out-of-order tuple is rejected individually (it is still stored in the
// local table) and processing continues with the rest of the batch; the
// first error is returned. The batch slice is not retained.
//
//adp:hotpath gated by BenchmarkMergeJoinPush (scripts/check_allocs.sh)
func (m *MergeJoin) push(left bool, ts []types.Tuple) error {
	side, inSide := &m.right, &m.counters.InRight
	if left {
		side, inSide = &m.left, &m.counters.InLeft
	}
	var firstErr error
	m.counters.In += int64(len(ts))
	*inSide += int64(len(ts))
	m.ctx.Clock.Charge(int64(len(ts)) * m.ctx.Cost.HashInsert)
	for _, t := range ts {
		side.table.InsertHashed(t.HashKey(side.keyCols), t)
		if err := side.push(t); err != nil {
			// The offending tuple is dropped from the merge (its table
			// insert stands) and later tuples still flow.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m.advance()
	}
	m.em.Flush(m.out)
	return firstErr
}

// mergeSideSink exposes one input of a MergeJoin as a sink. The Sink
// interface has no error channel and an out-of-order push is a routing bug
// by the merge join's contract, so a caller wiring a merge join behind a
// sink MUST guarantee order — a violation panics rather than silently
// dropping rows from the join.
type mergeSideSink struct {
	m    *MergeJoin
	left bool
}

// Push implements Sink. The merge join keeps no signed state (SignBlind).
func (s mergeSideSink) Push(ts []types.Tuple, sign int) {
	SignBlind(sign)
	if err := s.m.push(s.left, ts); err != nil {
		panic("exec: out-of-order push through MergeJoin sink: " + err.Error())
	}
}

// LeftSink returns the join's left input as a sink.
func (m *MergeJoin) LeftSink() Sink { return mergeSideSink{m: m, left: true} }

// RightSink returns the join's right input as a sink.
func (m *MergeJoin) RightSink() Sink { return mergeSideSink{m: m, left: false} }

// FinishLeft closes the left input.
func (m *MergeJoin) FinishLeft() {
	m.left.finish()
	m.advance()
	m.em.Flush(m.out)
}

// FinishRight closes the right input.
func (m *MergeJoin) FinishRight() {
	m.right.finish()
	m.advance()
	m.em.Flush(m.out)
}

// emit buffers one joined tuple; every entry that can advance the merge
// flushes the emitter before it returns.
func (m *MergeJoin) emit(lt, rt types.Tuple) {
	m.ctx.Clock.Charge(m.ctx.Cost.Move)
	m.counters.Out++
	m.em.EmitConcat(m.out, lt, rt)
}

// canPop reports whether the head ready group of side s is safe to match:
// no smaller-or-equal key can still arrive on the other side... it is safe
// when the other side has a ready group to compare against, or is done.
func (m *MergeJoin) advance() {
	for {
		lHas, rHas := len(m.left.ready) > 0, len(m.right.ready) > 0
		switch {
		case lHas && rHas:
			lg, rg := &m.left.ready[0], &m.right.ready[0]
			m.ctx.Clock.Charge(m.ctx.Cost.Compare)
			c := types.CompareKey(lg.rows[0], m.left.keyCols, rg.rows[0], m.right.keyCols)
			switch {
			case c == 0:
				for _, lt := range lg.rows {
					for _, rt := range rg.rows {
						m.emit(lt, rt)
					}
				}
				m.left.ready = m.left.ready[1:]
				m.right.ready = m.right.ready[1:]
			case c < 0:
				m.left.ready = m.left.ready[1:]
			default:
				m.right.ready = m.right.ready[1:]
			}
		case lHas && m.right.done:
			// Right exhausted: remaining left groups can never match.
			m.left.ready = nil
		case rHas && m.left.done:
			m.right.ready = nil
		default:
			return
		}
	}
}
