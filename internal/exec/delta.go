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
// negative table emitting -s — the bilinear delta rule. Unsigned execution
// is the case with no negative table, and HashJoin.push serves both. The
// maintenance driver clamps deletes against the tracked base multiset
// before they reach the tree, so a negative-table row always has a
// matching main-table row and the z-set difference is an exact multiset.
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

// negTable returns input i's negative table, creating it on the input's
// first retraction. Negative tables start at the default bucket count —
// they hold deletions, which the cardinality estimates behind
// NewHashJoinSized never cover.
func (j *HashJoin) negTable(i int) *joinTable {
	in := &j.in[i]
	if in.neg == nil {
		in.neg = j.newTable(in.main.list.Schema(), in.key, 0) //adp:alloc-ok first retraction only
	}
	return in.neg
}

// SideLists exposes one side's z-set as the join buffers it, whatever the
// style. main holds the rows pushed or asserted, in arrival order: the source
// data a plan must buffer at its leaves (§3.4), which a leaf feeding this
// side directly shares as its base partition. neg holds the rows retracted
// (nil until there is one); a maintenance tree built later is warmed from
// both.
func (j *HashJoin) SideLists(left bool) (main, neg *state.List) {
	in := &j.in[1]
	if left {
		in = &j.in[0]
	}
	if in.neg != nil {
		neg = in.neg.list
	}
	return in.main.list, neg
}

// Lists is SideLists of the side this sink feeds.
func (s joinSide) Lists() (main, neg *state.List) { return s.j.SideLists(s.i == 0) }
