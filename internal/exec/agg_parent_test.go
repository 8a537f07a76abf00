package exec

// The aggregate as it was before its groups moved into the flat group store
// (state.Groups): agg.go's AggTable and aggdelta.go's maintenance paths
// verbatim but for renamed identifiers, less what only delivers (Push,
// CopiesInput, EmitRevisionsTo, the columnar materializer, Schema,
// PartialSchema, Maintained). FuzzAggTableModel holds AggTable to it.
// MergeFrom's errors are the package's own.

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// parentAggState is the distributive state of one aggregate in one group. Every
// paper aggregate (min, max, sum, count, avg) is covered: avg decomposes
// into sum+count (§2.2 footnote 1), which is why pre-aggregation and
// cross-phase shared group-bys are sound.
type parentAggState struct {
	has    bool
	minmax types.Value
	sum    float64
	cnt    int64
}

func (s *parentAggState) accumulate(kind algebra.AggKind, v types.Value) {
	switch kind {
	case algebra.AggCount:
		s.cnt++
		return
	}
	if v.IsNull() {
		return
	}
	switch kind {
	case algebra.AggMin:
		if !s.has || types.Compare(v, s.minmax) < 0 {
			s.minmax = v
		}
	case algebra.AggMax:
		if !s.has || types.Compare(v, s.minmax) > 0 {
			s.minmax = v
		}
	case algebra.AggSum:
		s.sum += v.AsFloat()
	case algebra.AggAvg:
		s.sum += v.AsFloat()
	}
	s.cnt++
	s.has = true
}

// merge folds a partial state (from a pre-aggregation or another phase)
// into s.
func (s *parentAggState) merge(kind algebra.AggKind, other parentAggState) {
	switch kind {
	case algebra.AggMin:
		if other.has && (!s.has || types.Compare(other.minmax, s.minmax) < 0) {
			s.minmax = other.minmax
			s.has = true
		}
	case algebra.AggMax:
		if other.has && (!s.has || types.Compare(other.minmax, s.minmax) > 0) {
			s.minmax = other.minmax
			s.has = true
		}
	case algebra.AggSum, algebra.AggAvg:
		s.sum += other.sum
		s.cnt += other.cnt
		s.has = s.has || other.has
	case algebra.AggCount:
		s.cnt += other.cnt
	}
}

func (s *parentAggState) final(kind algebra.AggKind) types.Value {
	switch kind {
	case algebra.AggMin, algebra.AggMax:
		if !s.has {
			return types.Null()
		}
		return s.minmax
	case algebra.AggSum:
		return types.Float(s.sum)
	case algebra.AggCount:
		return types.Int(s.cnt)
	default: // avg
		if s.cnt == 0 {
			return types.Null()
		}
		return types.Float(s.sum / float64(s.cnt))
	}
}

// partialCols returns the partial-tuple state values of s in the layout of
// algebra.GroupSchema(partial=true).
func (s *parentAggState) partialCols(kind algebra.AggKind) []types.Value {
	switch kind {
	case algebra.AggMin, algebra.AggMax:
		if !s.has {
			return []types.Value{types.Null()}
		}
		return []types.Value{s.minmax}
	case algebra.AggSum:
		return []types.Value{types.Float(s.sum)}
	case algebra.AggCount:
		return []types.Value{types.Int(s.cnt)}
	default: // avg -> sum, cnt
		return []types.Value{types.Float(s.sum), types.Int(s.cnt)}
	}
}

// parentLoadPartial parses one partial tuple's state columns starting at col;
// it returns the parsed state and the next column index.
func parentLoadPartial(kind algebra.AggKind, t types.Tuple, col int) (parentAggState, int) {
	switch kind {
	case algebra.AggMin, algebra.AggMax:
		v := t[col]
		return parentAggState{has: !v.IsNull(), minmax: v}, col + 1
	case algebra.AggSum:
		return parentAggState{has: true, sum: t[col].AsFloat()}, col + 1
	case algebra.AggCount:
		return parentAggState{cnt: t[col].AsInt()}, col + 1
	default: // avg
		return parentAggState{has: true, sum: t[col].AsFloat(), cnt: t[col+1].AsInt()}, col + 2
	}
}

type parentAggGroup struct {
	groupVals []types.Value
	states    []parentAggState
	m         *parentGroupMaint // maintenance-mode state; nil otherwise
}

// parentAggTable is the hash-based aggregation state structure shared across ADP
// phases: the "shared Group-by operator" of Figure 1. Raw tuples (in the
// table's input layout) and partial tuples (in the corresponding partial
// layout) may be absorbed in any interleaving; EmitFinal produces the
// final aggregate relation.
type parentAggTable struct {
	ctx      *Context
	in       *types.Schema
	groupBy  []string
	aggs     []algebra.AggSpec
	groupIdx []int
	argEvals []expr.Evaluator

	outSchema     *types.Schema
	partialSchema *types.Schema

	// groups chains aggregate groups under their key hash; group identity
	// is the hash plus strict value equality (types.StrictEqual), which
	// matches the byte codec's grouping semantics exactly — Int(1),
	// Float(1), and Str("1") stay distinct.
	groups  map[uint64][]*parentAggGroup
	nGroups int
	// valScratch is allocation-free grouping scratch: group values are
	// extracted into it and only copied to owned storage when a new group
	// is created. colIn materializes the columnar entries (colbatch.go).
	valScratch []types.Value

	// Maintenance (signed) mode: dirty lists the groups touched since
	// the last EmitRevisions, bagScratch is the reused min/max bag key
	// buffer, revRows the reused revision delivery batch. See aggdelta.go.
	maint      bool
	hasMinMax  bool
	dirty      []*parentAggGroup
	bagScratch []byte
	revRows    []types.Tuple

	counters stats.OpCounters
}

// newParentAggTable builds an aggregation table over raw input layout in.
func newParentAggTable(ctx *Context, in *types.Schema, groupBy []string, aggs []algebra.AggSpec) (*parentAggTable, error) {
	a := &parentAggTable{
		ctx:           ctx,
		in:            in,
		groupBy:       groupBy,
		aggs:          aggs,
		outSchema:     algebra.GroupSchema(in, groupBy, aggs, false),
		partialSchema: algebra.GroupSchema(in, groupBy, aggs, true),
		groups:        make(map[uint64][]*parentAggGroup),
	}
	for _, g := range groupBy {
		i := in.IndexOf(g)
		if i < 0 {
			return nil, fmt.Errorf("exec: group-by column %q not in input %v", g, in.Names())
		}
		a.groupIdx = append(a.groupIdx, i)
	}
	for _, spec := range aggs {
		if spec.Arg == nil {
			a.argEvals = append(a.argEvals, nil)
			continue
		}
		ev, err := spec.Arg.Bind(in)
		if err != nil {
			return nil, fmt.Errorf("exec: aggregate %s: %w", spec, err)
		}
		a.argEvals = append(a.argEvals, ev)
	}
	return a, nil
}

// Counters exposes statistics.
func (a *parentAggTable) Counters() *stats.OpCounters { return &a.counters }

// Groups returns the current number of groups.
func (a *parentAggTable) Groups() int { return a.nGroups }

// groupFor finds or creates the group for the given key values. vals may
// be scratch storage: it is copied to owned storage only when the group is
// new. Lookup is allocation-free at steady state.
func (a *parentAggTable) groupFor(vals []types.Value) *parentAggGroup {
	hash := types.Tuple(vals).HashKey(types.Identity(len(vals)))
	for _, g := range a.groups[hash] {
		if parentStrictEqualVals(g.groupVals, vals) {
			return g
		}
	}
	owned := make([]types.Value, len(vals))
	copy(owned, vals)
	g := &parentAggGroup{groupVals: owned, states: make([]parentAggState, len(a.aggs))}
	if a.maint {
		g.m = &parentGroupMaint{hash: hash}
		if a.hasMinMax {
			g.m.bags = make([]parentValueBag, len(a.aggs))
		}
	}
	a.groups[hash] = append(a.groups[hash], g)
	a.nGroups++
	return g
}

// parentStrictEqualVals reports element-wise strict equality (group identity).
func parentStrictEqualVals(a, b []types.Value) bool {
	for i := range a {
		if !types.StrictEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// groupScratch returns the reused group-value buffer, sized to n.
func (a *parentAggTable) groupScratch(n int) []types.Value {
	if cap(a.valScratch) < n {
		a.valScratch = make([]types.Value, n)
	}
	return a.valScratch[:n]
}

// AbsorbRaw folds one raw tuple (input layout).
//
//adp:hotpath gated by BenchmarkAggTableAbsorb (scripts/check_allocs.sh)
func (a *parentAggTable) AbsorbRaw(t types.Tuple) {
	if a.maint {
		// Maintenance groups carry weights and value bags that plain
		// accumulation would not update; an unsigned absorb is an insert.
		a.AbsorbSigned(t, 1)
		return
	}
	a.counters.In++
	a.ctx.Clock.Charge(a.ctx.Cost.AggUpdate)
	vals := a.groupScratch(len(a.groupIdx))
	for i, gi := range a.groupIdx {
		vals[i] = t[gi]
	}
	g := a.groupFor(vals)
	for i, spec := range a.aggs {
		var v types.Value
		if a.argEvals[i] != nil {
			v = a.argEvals[i](t)
		}
		g.states[i].accumulate(spec.Kind, v)
	}
}

// AbsorbPartial folds one partial tuple (PartialSchema layout), merging
// pre-aggregated states: the final GROUP BY "coalesces pre-grouped
// information instead of operating on original tuples" (§2.2).
func (a *parentAggTable) AbsorbPartial(t types.Tuple) {
	a.counters.In++
	a.ctx.Clock.Charge(a.ctx.Cost.AggUpdate)
	ng := len(a.groupIdx)
	vals := a.groupScratch(ng)
	copy(vals, t[:ng])
	g := a.groupFor(vals)
	col := ng
	for i, spec := range a.aggs {
		var st parentAggState
		st, col = parentLoadPartial(spec.Kind, t, col)
		g.states[i].merge(spec.Kind, st)
	}
}

// MergeFrom folds src — a table of the same grouping and aggregates, such as
// a partition clone's private one — into a, state by state: a group a has
// not seen is adopted as it stands, a group both hold merges its aggregate
// states into a's. a is charged as if it had absorbed src's EmitPartial
// rows (one AggUpdate and one In per group of src) without any partial
// tuple being built or sorted. src's groups become a's: src must not be
// used afterwards.
//
//adp:hotpath gated by BenchmarkAggTableMergeFrom (scripts/check_allocs.sh)
func (a *parentAggTable) MergeFrom(src *parentAggTable) error {
	if a.maint || src.maint {
		// Maintenance groups carry weights and value bags that state-wise
		// merging would not combine.
		return errMergeMaintained
	}
	if len(src.groupIdx) != len(a.groupIdx) || !slices.EqualFunc(src.aggs, a.aggs,
		func(x, y algebra.AggSpec) bool { return x.Kind == y.Kind }) {
		return errMergeShape
	}
	a.counters.In += int64(src.nGroups)
	a.ctx.Clock.Charge(int64(src.nGroups) * a.ctx.Cost.AggUpdate)
	// No order of chains can show in a: chains of different hashes never
	// meet, and a group of a merges with at most one group of src.
	//adp:unordered-ok see above
	for hash, chain := range src.groups {
		mine := a.groups[hash]
		if len(mine) == 0 {
			a.groups[hash] = chain
			a.nGroups += len(chain)
			continue
		}
	adopt:
		for _, g := range chain {
			for _, have := range mine {
				if parentStrictEqualVals(have.groupVals, g.groupVals) {
					for i, spec := range a.aggs {
						have.states[i].merge(spec.Kind, g.states[i])
					}
					continue adopt
				}
			}
			a.groups[hash] = append(a.groups[hash], g) //adp:alloc-ok a hash collision between distinct groups
			a.nGroups++
		}
	}
	return nil
}

// parentCompareGroupVals is the emit order of groups: CompareKey's order wherever
// that decides, made total so that every pair of distinct groups has one
// order. Group identity is strict (types.StrictEqual), but Compare ties
// Int(k) with Float(k) and +0 with -0, and calls NaN equal to every number;
// NaN therefore sorts after all other numbers, and a remaining tie falls to
// the kind, then to the payload bits.
func parentCompareGroupVals(a, b []types.Value) int {
	for i := range a {
		x, y := a[i], b[i]
		xNaN := x.K == types.KindFloat && math.IsNaN(x.F)
		yNaN := y.K == types.KindFloat && math.IsNaN(y.F)
		switch {
		case xNaN && yNaN:
			continue // one group: every NaN is the same key
		case xNaN && (y.K == types.KindInt || y.K == types.KindFloat):
			return 1
		case yNaN && (x.K == types.KindInt || x.K == types.KindFloat):
			return -1
		}
		if c := types.Compare(x, y); c != 0 {
			return c
		}
		if c := cmp.Compare(x.K, y.K); c != 0 {
			return c
		}
		// Same kind and Compare-equal: only floats can still differ (±0).
		if x.K == types.KindFloat {
			if c := cmp.Compare(math.Float64bits(x.F), math.Float64bits(y.F)); c != 0 {
				return c
			}
		}
	}
	return 0
}

// sortedGroups returns the table's groups in emit order. The order is a
// function of the group values alone, never of map iteration or of the
// order groups were created in.
func (a *parentAggTable) sortedGroups() []*parentAggGroup {
	gs := make([]*parentAggGroup, 0, a.nGroups)
	for _, chain := range a.groups {
		gs = append(gs, chain...)
	}
	slices.SortFunc(gs, func(x, y *parentAggGroup) int { return parentCompareGroupVals(x.groupVals, y.groupVals) })
	return gs
}

// EmitFinal produces the final aggregate relation, sorted by group values
// for determinism, and charges output costs.
func (a *parentAggTable) EmitFinal() []types.Tuple {
	gs := a.sortedGroups()
	a.emitted(len(gs))
	out := make([]types.Tuple, 0, len(gs))
	for _, g := range gs {
		t := make(types.Tuple, 0, len(g.groupVals)+len(a.aggs))
		t = append(t, g.groupVals...)
		for i, spec := range a.aggs {
			t = append(t, g.states[i].final(spec.Kind))
		}
		out = append(out, t)
	}
	return out
}

// emitted accounts n output rows: one Move each.
func (a *parentAggTable) emitted(n int) {
	a.counters.Out += int64(n)
	a.ctx.Clock.Charge(int64(n) * a.ctx.Cost.Move)
}

// EmitPartial produces the table's groups as partial-layout tuples
// (PartialSchema), sorted by group values. A blocking parentAggTable emitting
// partials is exactly the paper's "traditional pre-aggregation" operator
// (§6): correct, but unpipelined.
func (a *parentAggTable) EmitPartial() []types.Tuple {
	gs := a.sortedGroups()
	a.emitted(len(gs))
	out := make([]types.Tuple, 0, len(gs))
	for _, g := range gs {
		t := make(types.Tuple, 0, len(g.groupVals)+len(a.aggs)+1)
		t = append(t, g.groupVals...)
		for i, spec := range a.aggs {
			t = append(t, g.states[i].partialCols(spec.Kind)...)
		}
		out = append(out, t)
	}
	return out
}

// parentGroupMaint is the per-group maintenance state: the group's signed
// multiplicity, the output row last asserted downstream, and the value
// bags backing min/max retraction.
type parentGroupMaint struct {
	hash   uint64 // chain key, for removal when weight reaches zero
	weight int64  // signed multiplicity of the group's input rows
	dirty  bool
	last   types.Tuple      // previously asserted output row (nil = none yet)
	bags   []parentValueBag // per aggregate; populated only for min/max
}

// parentBagEntry is one distinct value in a bag with its multiplicity. key is
// the value's canonical byte encoding: the tie-break among values that
// Compare equal (Int(1) vs Float(1)) and the exact-match identity.
type parentBagEntry struct {
	v   types.Value
	key []byte
	cnt int64
}

// parentValueBag is an ordered multiset of aggregate argument values.
type parentValueBag struct {
	entries []parentBagEntry
}

// find returns the insertion index for (v, key) and whether the entry at
// that index is an exact match.
func (b *parentValueBag) find(v types.Value, key []byte) (int, bool) {
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
func (b *parentValueBag) add(v types.Value, scratch []byte) []byte {
	key := types.AppendKeyValue(scratch[:0], v)
	if i, ok := b.find(v, key); ok {
		b.entries[i].cnt++
	} else {
		b.entries = append(b.entries, parentBagEntry{})
		copy(b.entries[i+1:], b.entries[i:])
		b.entries[i] = parentBagEntry{v: v, key: append([]byte(nil), key...), cnt: 1}
	}
	return key
}

// remove drops one occurrence of v. The maintenance driver clamps
// deletes against the tracked base multiset, so a miss means the caller
// broke that contract; removal of a value that is not present is a
// silent no-op to keep the bag a well-formed multiset regardless.
func (b *parentValueBag) remove(v types.Value, scratch []byte) []byte {
	key := types.AppendKeyValue(scratch[:0], v)
	i, ok := b.find(v, key)
	if !ok {
		return key
	}
	b.entries[i].cnt--
	if b.entries[i].cnt == 0 {
		copy(b.entries[i:], b.entries[i+1:])
		b.entries[len(b.entries)-1] = parentBagEntry{}
		b.entries = b.entries[:len(b.entries)-1]
	}
	return key
}

// EnableMaintenance switches the table to signed (maintenance) mode.
// Must be called before anything is absorbed: maintenance groups carry
// extra state that cannot be reconstructed retroactively.
func (a *parentAggTable) EnableMaintenance() {
	if a.nGroups > 0 {
		panic("exec: EnableMaintenance on a non-empty parentAggTable")
	}
	a.maint = true
	for _, spec := range a.aggs {
		if spec.Kind == algebra.AggMin || spec.Kind == algebra.AggMax {
			a.hasMinMax = true
		}
	}
}

// AbsorbSigned folds one signed raw tuple (input layout) into its group
// and marks the group dirty for the next revision emit. A group is only
// removed from the table at emit time — mid-window the zero-weight group
// must stay findable so a re-insert revives it rather than forking a
// duplicate. The table must be in maintenance mode.
//
//adp:hotpath gated by BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (a *parentAggTable) AbsorbSigned(t types.Tuple, sign int) {
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
		var bag *parentValueBag
		if m.bags != nil {
			bag = &m.bags[i]
		}
		a.bagScratch = parentAccumulateSigned(spec.Kind, v, s, &g.states[i], bag, a.bagScratch)
	}
}

// parentAccumulateSigned folds one signed argument value into an aggregate
// state. COUNT follows the signed row unconditionally; the others track
// their non-null argument count, min/max through the value bag (whose
// extremes refresh the scalar state so final() stays oblivious to
// maintenance). Sum stays exact under retraction for integer-valued
// inputs — the float accumulates whole numbers only.
func parentAccumulateSigned(kind algebra.AggKind, v types.Value, sign int64, st *parentAggState, bag *parentValueBag, scratch []byte) []byte {
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
func (a *parentAggTable) EmitRevisions(emit func(t types.Tuple, sign int)) {
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
		if m.last != nil && parentStrictEqualVals(m.last, t) {
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

// removeGroup unlinks a zero-weight group from its hash chain.
func (a *parentAggTable) removeGroup(g *parentAggGroup) {
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
