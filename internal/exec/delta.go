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

// --- Join inputs -------------------------------------------------------

// negTable returns the input's negative table, creating it on the input's
// first retraction, on spare. Negative tables start at the default bucket
// count and grow — they hold deletions, which the cardinality estimates
// behind NewHashJoinSized never cover.
func (in *joinInput) negTable(spare *state.Spare) *state.HashTable {
	if in.neg == nil {
		in.neg = state.NewHashTableSized(in.main.List().Schema(), in.key, 0, spare) //adp:alloc-ok first retraction only
	}
	return in.neg
}

// lists returns the input's z-set as its tables buffer it: main holds the
// rows pushed or asserted, in arrival order; neg the rows retracted (nil
// until there is one).
func (in *joinInput) lists() (main, neg *state.List) {
	if in.neg != nil {
		neg = in.neg.List()
	}
	return in.main.List(), neg
}

// live counts the occurrences of row the input holds live: the rows of its
// main table that are types.StrictEqual to row on every column, less those
// of its negative table. Such rows have row's key, so only the chain of
// row's key hash is walked. It charges the virtual clock nothing: it answers
// the maintenance ingress's delete clamp, which the cost model does not
// price.
func (in *joinInput) live(row types.Tuple) int {
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

// eachLive calls fn with each row the input holds live, in main's order: main
// less neg as multisets, a retracted row cancelling the first of its
// types.StrictEqual occurrences in main. Retractions wait for their match
// under their stored key hash.
func (in *joinInput) eachLive(fn func(types.Tuple)) {
	if in.neg == nil {
		in.main.ScanHashed(func(_ uint64, t types.Tuple) { fn(t) })
		return
	}
	gone := make(map[uint64][]types.Tuple, in.neg.Len())
	in.neg.ScanHashed(func(h uint64, t types.Tuple) { gone[h] = append(gone[h], t) })
	in.main.ScanHashed(func(h uint64, t types.Tuple) {
		ns := gone[h]
		if i := slices.IndexFunc(ns, func(n types.Tuple) bool { return slices.EqualFunc(n, t, types.StrictEqual) }); i >= 0 {
			ns[i] = ns[len(ns)-1]
			gone[h] = ns[:len(ns)-1]
			return
		}
		fn(t)
	})
}

// release gives the index storage of the input's tables to spare; with rows
// also their lists' rows.
func (in *joinInput) release(spare *state.Spare, rows bool) {
	for _, t := range []*state.HashTable{in.main, in.neg} {
		if t == nil {
			continue
		}
		spare.Release(t)
		if rows {
			spare.ReleaseList(t.List())
		}
	}
}

// SideLists exposes one side's z-set as the join buffers it (joinInput.lists):
// main is the source data a plan must buffer at its leaves (§3.4), which a
// leaf feeding this side directly shares as its base partition; a
// maintenance tree built later is warmed from both lists.
func (j *HashJoin) SideLists(left bool) (main, neg *state.List) {
	if left {
		return j.in[0].lists()
	}
	return j.in[1].lists()
}

// Lists is SideLists of the side this sink feeds.
func (s joinSide) Lists() (main, neg *state.List) { return s.j.SideLists(s.i == 0) }

// Live counts the occurrences of row that the side this sink feeds holds
// live (joinInput.live).
func (s joinSide) Live(row types.Tuple) int { return s.j.in[s.i].live(row) }

// Result calls fn with every row of the join's result as its state holds it
// now — each live row of one input with each live match in the other, left
// operand first — in no particular order: a maintenance tree's root join
// holds its standing view. An input without retractions is probed through
// its main table as it stands; when both have some, the left one's live rows
// are indexed for the call on the run's spare. It charges the virtual clock
// nothing: reading a maintained view out is not query work the cost model
// prices.
func (j *HashJoin) Result(fn func(left, right types.Tuple)) {
	o, p := &j.in[0], &j.in[1] // o scanned, p probed
	if p.neg != nil {
		o, p = p, o
	}
	probe := p.main
	if p.neg != nil {
		spare := j.ctx.Spare
		live := state.NewList(probe.List().Schema(), spare)
		p.eachLive(live.Insert)
		probe = state.IndexList(live, p.key, spare)
		defer func() {
			spare.Release(probe)
			spare.ReleaseList(live)
		}()
	}
	var hs [1]uint64
	var row [1]types.Tuple
	emit := func(_ int, m types.Tuple) bool {
		if o == &j.in[0] {
			fn(row[0], m)
		} else {
			fn(m, row[0])
		}
		return true
	}
	o.eachLive(func(t types.Tuple) {
		hs[0], row[0] = t.HashKey(o.key), t
		probe.ProbeHashedBatch(hs[:], row[:], o.key, emit)
	})
}

// --- KeyedSide --------------------------------------------------------

// KeyedSide buffers a relation that feeds no join the way a join input
// buffers one that does: a main and a negative table, keyed on all the
// relation's columns. A single-relation standing query's scan feeds its
// result directly; a KeyedSide in front of it gives the maintenance driver
// the relation's z-set to clamp deletes against (Live) and to read the live
// rows from (Lists). It forwards every batch to its sink unchanged and
// charges the virtual clock nothing: the cost model prices no such buffer.
type KeyedSide struct {
	ctx *Context
	in  joinInput
	// Out receives every batch after it is buffered.
	Out Sink
}

// NewKeyedSide creates a side over the layout schema on ctx's spare, which
// Context.Release gives its tables and lists back to, holding the rows of
// base. With one list, as a single-phase run leaves, that list becomes the
// side's main list, indexed where it lies: its rows are buffered once.
func NewKeyedSide(ctx *Context, schema *types.Schema, base []*state.List, out Sink) *KeyedSide {
	var main *state.List
	if len(base) == 1 {
		main = base[0]
	} else {
		main = state.NewList(schema, ctx.Spare)
		for _, l := range base {
			for _, chunk := range l.Chunks() {
				main.InsertBatch(chunk)
			}
		}
	}
	key := types.Identity(schema.Len())
	s := &KeyedSide{ctx: ctx, in: joinInput{key: key, main: state.IndexList(main, key, ctx.Spare)}, Out: out}
	ctx.owned = append(ctx.owned, s)
	return s
}

// Push implements Sink: ts builds into the main table (the negative one when
// sign < 0), then goes on to Out.
func (s *KeyedSide) Push(ts []types.Tuple, sign int) {
	t := s.in.main
	if sign < 0 {
		t = s.in.negTable(s.ctx.Spare)
	}
	for _, r := range ts {
		t.Insert(r)
	}
	s.Out.Push(ts, sign)
}

// Lists returns the side's z-set (joinInput.lists).
func (s *KeyedSide) Lists() (main, neg *state.List) { return s.in.lists() }

// Live counts row's live occurrences in the side (joinInput.live).
func (s *KeyedSide) Live(row types.Tuple) int { return s.in.live(row) }

// Result calls fn with each row the side holds live, in arrival order.
func (s *KeyedSide) Result(fn func(types.Tuple)) { s.in.eachLive(fn) }

func (s *KeyedSide) free(spare *state.Spare) { s.in.release(spare, true) }
