// Signed (delta) execution for incremental view maintenance. During the
// maintenance stage of a standing query, batches flow through the same
// lowered operator tree as the initial run, but each batch carries a
// sign: +1 for insertions into the result, -1 for retractions. The sign
// travels out of band — a delta batch is an ordinary row batch whose rows
// all share the batch's sign, Sink.Push's second argument — so the tuples
// the state structures retain, the hash tables and the emitters are the
// unsigned path's, untouched.
//
// Join state follows the z-set formulation (Olteanu, arXiv:2404.17679):
// each side's effective multiset is its main table minus a lazily
// created negative table that retains deleted rows. A delta with sign s
// inserts into the main (s>0) or negative (s<0) table of its own side,
// then re-probes the opposite side's main table emitting sign s and its
// negative table emitting -s — the bilinear delta rule. Unsigned execution
// is the case with no negative table, and HashJoin.push serves both. The
// maintenance driver clamps each delete against the side it will enter
// (joinSide.Live) before it reaches the tree, so a negative-table row
// always has a matching main-table row and the z-set difference is an
// exact multiset.
package exec

import (
	"slices"

	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// DeltaSink is Sink, whose Push carries the sign. The alias remains for
// benchmark/probes.go, which asserts Discard to it.
type DeltaSink = Sink

// SignBlind is the sign check of a sink that keeps no signed state: it takes
// an insertion (+1) as it takes an unsigned row — an insert-only delta stream
// is indistinguishable from ordinary execution — and panics on a retraction.
// No maintenance tree reaches such a sink (maintenance trees are serial and
// free of pre-aggregation), so a retraction there is a lowering bug.
func SignBlind(sign int) {
	if sign < 0 {
		panic(errSignBlind)
	}
}

const errSignBlind = "exec: retraction delta reached a sign-blind Push"

// --- HashJoin ---------------------------------------------------------

// negTable returns input i's negative table, creating it on the input's
// first retraction, on the context's spare. Negative tables start at the
// default bucket count and grow — they hold deletions, which the
// cardinality estimates behind NewHashJoinSized never cover.
func (j *HashJoin) negTable(i int) *state.HashTable {
	in := &j.in[i]
	if in.neg == nil {
		in.neg = state.NewHashTableSized(in.main.List().Schema(), in.key, 0, j.ctx.Spare) //adp:alloc-ok first retraction only
	}
	return in.neg
}

// SideLists exposes one side's z-set as the join buffers it. main holds the
// rows pushed or asserted, in arrival order: the source data a plan must
// buffer at its leaves (§3.4), which a leaf feeding this side directly
// shares as its base partition. neg holds the rows retracted (nil until
// there is one); a maintenance tree built later is warmed from both.
func (j *HashJoin) SideLists(left bool) (main, neg *state.List) {
	in := &j.in[1]
	if left {
		in = &j.in[0]
	}
	if in.neg != nil {
		neg = in.neg.List()
	}
	return in.main.List(), neg
}

// Lists is SideLists of the side this sink feeds.
func (s joinSide) Lists() (main, neg *state.List) { return s.j.SideLists(s.i == 0) }

// Live counts the occurrences of row that the side this sink feeds holds
// live: the rows of its main table that are types.StrictEqual to row on
// every column, less those of its negative table. Such rows have row's key,
// so only the chain of row's key hash is walked. It charges the virtual
// clock nothing: it answers the maintenance ingress's delete clamp, which
// the cost model does not price.
func (s joinSide) Live(row types.Tuple) int {
	in := &s.j.in[s.i]
	hs, rows := [1]uint64{row.HashKey(in.key)}, [1]types.Tuple{row}
	n := 0
	count := func(t *state.HashTable, d int) {
		t.ProbeHashedBatch(hs[:], rows[:], in.key, func(_ int, m types.Tuple) bool {
			if slices.EqualFunc(m, row, types.StrictEqual) {
				n += d
			}
			return true
		})
	}
	count(in.main, 1)
	if in.neg != nil {
		count(in.neg, -1)
	}
	return n
}
