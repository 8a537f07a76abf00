// Signed aggregation for incremental view maintenance. A maintenance-
// mode AggTable absorbs signed rows and, at each update watermark, emits
// group *revisions* per the standard IVM delta rules (Olteanu,
// arXiv:2404.17679 §3): a changed group retracts its previously
// asserted output row (-1) and asserts the new one (+1); a group whose
// multiplicity reaches zero retracts without asserting anything.
//
// Sum/count/avg revise directly from signed accumulation. Min/max are
// not self-maintainable from the scalar state — deleting the current
// minimum needs the runner-up — so each maintenance group keeps a value
// bag: a Compare-ordered multiset of the argument values seen, with a
// canonical byte-key tie-break so ordering is total and deterministic
// even across values that Compare equal but differ strictly.
package exec

import (
	"bytes"
	"sort"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/types"
)

// groupMaint is the per-group maintenance state: the group's signed
// multiplicity, the output row last asserted downstream, and the value
// bags backing min/max retraction.
type groupMaint struct {
	hash   uint64 // chain key, for removal when weight reaches zero
	weight int64  // signed multiplicity of the group's input rows
	dirty  bool
	last   types.Tuple // previously asserted output row (nil = none yet)
	bags   []valueBag  // per aggregate; populated only for min/max
}

// bagEntry is one distinct value in a bag with its multiplicity. key is
// the value's canonical byte encoding: the tie-break among values that
// Compare equal (Int(1) vs Float(1)) and the exact-match identity.
type bagEntry struct {
	v   types.Value
	key []byte
	cnt int64
}

// valueBag is an ordered multiset of aggregate argument values.
type valueBag struct {
	entries []bagEntry
}

// find returns the insertion index for (v, key) and whether the entry at
// that index is an exact match.
func (b *valueBag) find(v types.Value, key []byte) (int, bool) {
	i := sort.Search(len(b.entries), func(i int) bool {
		c := types.Compare(b.entries[i].v, v)
		if c != 0 {
			return c >= 0
		}
		return bytes.Compare(b.entries[i].key, key) >= 0
	})
	if i < len(b.entries) && bytes.Equal(b.entries[i].key, key) {
		return i, true
	}
	return i, false
}

// add inserts one occurrence of v. scratch carries the reused key
// buffer across calls; the updated buffer is returned.
func (b *valueBag) add(v types.Value, scratch []byte) []byte {
	key := types.AppendKeyValue(scratch[:0], v)
	if i, ok := b.find(v, key); ok {
		b.entries[i].cnt++
	} else {
		b.entries = append(b.entries, bagEntry{})
		copy(b.entries[i+1:], b.entries[i:])
		b.entries[i] = bagEntry{v: v, key: append([]byte(nil), key...), cnt: 1}
	}
	return key
}

// remove drops one occurrence of v. The maintenance driver clamps
// deletes against the tracked base multiset, so a miss means the caller
// broke that contract; removal of a value that is not present is a
// silent no-op to keep the bag a well-formed multiset regardless.
func (b *valueBag) remove(v types.Value, scratch []byte) []byte {
	key := types.AppendKeyValue(scratch[:0], v)
	i, ok := b.find(v, key)
	if !ok {
		return key
	}
	b.entries[i].cnt--
	if b.entries[i].cnt == 0 {
		copy(b.entries[i:], b.entries[i+1:])
		b.entries[len(b.entries)-1] = bagEntry{}
		b.entries = b.entries[:len(b.entries)-1]
	}
	return key
}

// EnableMaintenance switches the table to signed (maintenance) mode.
// Must be called before anything is absorbed: maintenance groups carry
// extra state that cannot be reconstructed retroactively.
func (a *AggTable) EnableMaintenance() {
	if a.nGroups > 0 {
		panic("exec: EnableMaintenance on a non-empty AggTable")
	}
	a.maint = true
	for _, spec := range a.aggs {
		if spec.Kind == algebra.AggMin || spec.Kind == algebra.AggMax {
			a.hasMinMax = true
		}
	}
}

// Maintained reports whether the table is in signed maintenance mode.
func (a *AggTable) Maintained() bool { return a.maint }

// AbsorbSigned folds one signed raw tuple (input layout) into its group
// and marks the group dirty for the next revision emit. A group is only
// removed from the table at emit time — mid-window the zero-weight group
// must stay findable so a re-insert revives it rather than forking a
// duplicate. The table must be in maintenance mode.
//
//adp:hotpath gated by BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (a *AggTable) AbsorbSigned(t types.Tuple, sign int) {
	a.counters.In++
	a.ctx.Clock.Charge(a.ctx.Cost.AggUpdate)
	vals := a.groupScratch(len(a.groupIdx))
	for i, gi := range a.groupIdx {
		vals[i] = t[gi]
	}
	g := a.groupFor(vals)
	m := g.m
	s := int64(sign)
	m.weight += s
	if !m.dirty {
		m.dirty = true
		a.dirty = append(a.dirty, g) //adp:alloc-ok amortized dirty-list growth
	}
	for i, spec := range a.aggs {
		var v types.Value
		if a.argEvals[i] != nil {
			v = a.argEvals[i](t)
		}
		var bag *valueBag
		if m.bags != nil {
			bag = &m.bags[i]
		}
		a.bagScratch = accumulateSigned(spec.Kind, v, s, &g.states[i], bag, a.bagScratch)
	}
}

// accumulateSigned folds one signed argument value into an aggregate
// state. COUNT follows the signed row unconditionally; the others track
// their non-null argument count, min/max through the value bag (whose
// extremes refresh the scalar state so final() stays oblivious to
// maintenance). Sum stays exact under retraction for integer-valued
// inputs — the float accumulates whole numbers only.
func accumulateSigned(kind algebra.AggKind, v types.Value, sign int64, st *aggState, bag *valueBag, scratch []byte) []byte {
	if kind == algebra.AggCount {
		st.cnt += sign
		return scratch
	}
	if v.IsNull() {
		return scratch
	}
	switch kind {
	case algebra.AggMin, algebra.AggMax:
		if sign > 0 {
			scratch = bag.add(v, scratch)
		} else {
			scratch = bag.remove(v, scratch)
		}
		if len(bag.entries) == 0 {
			st.has = false
			st.minmax = types.Value{}
		} else {
			st.has = true
			if kind == algebra.AggMin {
				st.minmax = bag.entries[0].v
			} else {
				st.minmax = bag.entries[len(bag.entries)-1].v
			}
		}
		st.cnt += sign
		return scratch
	case algebra.AggSum, algebra.AggAvg:
		st.sum += float64(sign) * v.AsFloat()
	}
	st.cnt += sign
	st.has = st.cnt > 0
	return scratch
}

// EmitRevisions walks the groups touched since the last call in group-
// key order and emits each one's revision: retraction of the previously
// asserted row, assertion of the new one. A group whose weight reached
// zero only retracts (never "emits 0") and is removed from the table; a
// dirty group whose output row is unchanged emits nothing. The emitted
// retraction tuple is the exact tuple asserted earlier — update folding
// by strict row equality always cancels.
func (a *AggTable) EmitRevisions(emit func(t types.Tuple, sign int)) {
	if len(a.dirty) == 0 {
		return
	}
	idx := types.Identity(len(a.groupIdx))
	sort.Slice(a.dirty, func(i, j int) bool {
		return types.CompareKey(types.Tuple(a.dirty[i].groupVals), idx, types.Tuple(a.dirty[j].groupVals), idx) < 0
	})
	for _, g := range a.dirty {
		m := g.m
		m.dirty = false
		if m.weight == 0 {
			a.removeGroup(g)
			if m.last != nil {
				a.ctx.Clock.Charge(a.ctx.Cost.Move)
				a.counters.Out++
				emit(m.last, -1)
				m.last = nil
			}
			continue
		}
		t := make(types.Tuple, 0, len(g.groupVals)+len(a.aggs))
		t = append(t, g.groupVals...)
		for i, spec := range a.aggs {
			t = append(t, g.states[i].final(spec.Kind))
		}
		if m.last != nil && strictEqualVals(m.last, t) {
			continue
		}
		if m.last != nil {
			a.ctx.Clock.Charge(a.ctx.Cost.Move)
			a.counters.Out++
			emit(m.last, -1)
		}
		a.ctx.Clock.Charge(a.ctx.Cost.Move)
		a.counters.Out++
		emit(t, +1)
		m.last = t
	}
	a.dirty = a.dirty[:0]
}

// EmitRevisionsTo delivers the pending revisions as signed row batches:
// consecutive same-sign revisions share one batch, of at most emitFlushLen
// rows.
func (a *AggTable) EmitRevisionsTo(out Sink) {
	cur := 0
	flush := func() {
		if len(a.revRows) > 0 {
			out.Push(a.revRows, cur)
			clear(a.revRows)
			a.revRows = a.revRows[:0]
		}
	}
	a.EmitRevisions(func(t types.Tuple, sign int) {
		if sign != cur || len(a.revRows) >= emitFlushLen {
			flush()
			cur = sign
		}
		a.revRows = append(a.revRows, t)
	})
	flush()
}

// removeGroup unlinks a zero-weight group from its hash chain.
func (a *AggTable) removeGroup(g *aggGroup) {
	chain := a.groups[g.m.hash]
	for i, c := range chain {
		if c != g {
			continue
		}
		copy(chain[i:], chain[i+1:])
		chain[len(chain)-1] = nil
		chain = chain[:len(chain)-1]
		if len(chain) == 0 {
			delete(a.groups, g.m.hash)
		} else {
			a.groups[g.m.hash] = chain
		}
		a.nGroups--
		return
	}
}
