// Signed (delta) execution for incremental view maintenance. During the
// maintenance stage of a standing query, batches flow through the same
// lowered operator tree as the initial run, but each batch carries a
// sign: +1 for insertions into the result, -1 for retractions. The sign
// travels out of band — a delta batch is an ordinary row batch whose rows
// all share the batch's sign — so the tuples the state structures retain,
// the hash tables and the emitters are the unsigned path's, untouched.
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

// DeltaSink is a sink that also accepts signed row batches. Every row of
// ts carries the batch's sign; like a PushBatch, ts must not be retained,
// the tuples may be.
type DeltaSink interface {
	Sink
	PushSigned(ts []types.Tuple, sign int)
}

// deliver hands rows to out: as a row batch when sign is 0 (unsigned
// traffic), else through out's signed entry. Pure insertions (+1) degrade
// to the unsigned path when out is sign-agnostic — an insert-only delta
// stream is indistinguishable from ordinary execution — but a retraction
// reaching a sign-agnostic sink is a lowering bug and panics.
func deliver(out Sink, ts []types.Tuple, sign int) {
	if len(ts) == 0 {
		return
	}
	if sign != 0 {
		if ds, ok := out.(DeltaSink); ok {
			ds.PushSigned(ts, sign)
			return
		}
		if sign < 0 {
			panic("exec: retraction delta reached a sink without PushSigned")
		}
	}
	out.PushBatch(ts)
}

// PushSigned on the discard sink drops signed batches like everything
// else.
func (discardSink) PushSigned([]types.Tuple, int) {}

// --- HashJoin ---------------------------------------------------------

// PushSigned implements DeltaSink on the join's input sides.
func (s joinSide) PushSigned(ts []types.Tuple, sign int) { s.j.pushSigned(s.left, ts, sign) }

// pushSigned is the z-set push: the rows build into their own side's main
// or negative table as they are, then re-probe the retained opposite state
// both ways. During maintenance every join style is symmetric — both inputs
// finished their initial run, so BuildThenProbe joins probe immediately
// like Pipelined ones.
//
//adp:hotpath gated by BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (j *HashJoin) pushSigned(left bool, rows []types.Tuple, sign int) {
	n := len(rows)
	if n == 0 {
		return
	}
	j.counters.In += int64(n)
	if left {
		j.counters.InLeft += int64(n)
	} else {
		j.counters.InRight += int64(n)
	}
	if j.Style == NestedLoops {
		j.pushSignedNested(left, rows, sign)
		return
	}
	keyCols := j.leftKey
	if !left {
		keyCols = j.rightKey
	}
	j.hashVec = j.hashVec[:0]
	for _, t := range rows {
		j.hashVec = append(j.hashVec, t.HashKey(keyCols))
	}
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
	main, neg := j.rightHT, j.negRightHT
	if !left {
		main, neg = j.leftHT, j.negLeftHT
	}
	if sign > 0 {
		j.probeSigned(main, !left, rows, keyCols, sign)
		j.probeSigned(neg, !left, rows, keyCols, -sign)
	} else {
		j.probeSigned(neg, !left, rows, keyCols, -sign)
		j.probeSigned(main, !left, rows, keyCols, sign)
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

// probeSigned probes one retained table with the delta rows, emitting
// every hit with emitSign through the join's emitter. The rows' hashes come
// from pushSigned's key sweep; probedLeft says the probed table belongs to
// the left side, so matches are the left operand. Probe work is charged per
// row up front (1 + chain length, as the unsigned path would); each hit
// charges one Move. The probed table never changes during the sweep — the
// delta built into its own side's table — so the upfront charge is exact.
// The sweep's hits leave at every emitFlushLen and at its end. A nil or
// empty table is skipped entirely: probing state that was never created
// costs nothing, deterministically.
//
//adp:hotpath gated by BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (j *HashJoin) probeSigned(table *state.HashTable, probedLeft bool, rows []types.Tuple, keyCols []int, emitSign int) {
	if table == nil || table.Len() == 0 {
		return
	}
	for i := range rows {
		work := 1.0 + float64(table.ChainLenHashed(j.hashVec[i]))
		j.ctx.Clock.Charge(work * j.ctx.Cost.HashProbe)
	}
	j.em.sign = emitSign
	table.ProbeHashedBatch(j.hashVec, rows, keyCols, func(i int, match types.Tuple) bool {
		if probedLeft {
			j.emit(match, rows[i])
		} else {
			j.emit(rows[i], match)
		}
		return true
	})
	j.endBatch()
	j.em.sign = 0
}

// pushSignedNested is the signed push for nested-loops joins: lists play
// the role of the hash tables, scans replace probes. Not a hot path —
// lowering only picks NestedLoops for joins without equijoin keys.
func (j *HashJoin) pushSignedNested(left bool, rows []types.Tuple, sign int) {
	build, opp, negOpp := j.deltaLists(left, sign)
	for _, t := range rows {
		build.Insert(t)
		j.ctx.Clock.Charge(j.ctx.Cost.Move)
		// Positive-emitting scan first (see pushSigned).
		if sign > 0 {
			j.scanSigned(opp, left, t, sign)
			j.scanSigned(negOpp, left, t, -sign)
		} else {
			j.scanSigned(negOpp, left, t, -sign)
			j.scanSigned(opp, left, t, sign)
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

// scanSigned scans one opposite-side list against a delta row, emitting
// concatenated matches with emitSign — the unsigned scan, delivered at its
// end. deltaLeft says the delta row is the left operand.
func (j *HashJoin) scanSigned(l *state.List, deltaLeft bool, t types.Tuple, emitSign int) {
	if l == nil || l.Len() == 0 {
		return
	}
	j.em.sign = emitSign
	j.scan(l, t, deltaLeft)
	j.endBatch()
	j.em.sign = 0
}
