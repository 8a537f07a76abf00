package exec

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// aggState is the distributive state of one aggregate in one group, held in
// one value of the group's record (state.Groups): min and max keep the
// extreme (NULL: none yet), sum and avg the sum in F and the non-null count in
// I, count the count in I. Every paper aggregate (min, max, sum, count, avg)
// is covered: avg decomposes into sum+count (§2.2 footnote 1), which is why
// pre-aggregation and cross-phase shared group-bys are sound.
type aggState types.Value

func (s *aggState) accumulate(kind algebra.AggKind, v types.Value) {
	switch {
	case kind == algebra.AggCount:
		s.I++
	case kind == algebra.AggMin || kind == algebra.AggMax:
		s.fold(kind, v)
	case !v.IsNull():
		s.F += v.AsFloat()
		s.I++
	}
}

// fold keeps v, if it is not NULL, when it is the first or a new extreme.
func (s *aggState) fold(kind algebra.AggKind, v types.Value) {
	switch {
	case v.IsNull():
	case s.K == types.KindNull,
		kind == algebra.AggMin && types.Compare(v, types.Value(*s)) < 0,
		kind == algebra.AggMax && types.Compare(v, types.Value(*s)) > 0:
		*s = aggState(v)
	}
}

// merge folds a partial state (from a pre-aggregation or another phase)
// into s.
func (s *aggState) merge(kind algebra.AggKind, other aggState) {
	if kind == algebra.AggMin || kind == algebra.AggMax {
		s.fold(kind, types.Value(other))
		return
	}
	s.F += other.F
	s.I += other.I
}

func (s *aggState) final(kind algebra.AggKind) types.Value {
	switch kind {
	case algebra.AggMin, algebra.AggMax:
		return types.Value(*s)
	case algebra.AggSum:
		return types.Float(s.F)
	case algebra.AggCount:
		return types.Int(s.I)
	default: // avg
		if s.I == 0 {
			return types.Null()
		}
		return types.Float(s.F / float64(s.I))
	}
}

// appendPartial appends the partial-tuple state values of s, in the layout of
// algebra.GroupSchema(partial=true), to t.
func (s *aggState) appendPartial(t types.Tuple, kind algebra.AggKind) types.Tuple {
	if kind == algebra.AggAvg { // sum, cnt
		return append(t, types.Float(s.F), types.Int(s.I))
	}
	return append(t, s.final(kind))
}

// loadPartial parses one partial tuple's state columns starting at col;
// it returns the parsed state and the next column index.
func loadPartial(kind algebra.AggKind, t types.Tuple, col int) (aggState, int) {
	switch kind {
	case algebra.AggMin, algebra.AggMax:
		return aggState(t[col]), col + 1
	case algebra.AggSum:
		return aggState{F: t[col].AsFloat()}, col + 1
	case algebra.AggCount:
		return aggState{I: t[col].AsInt()}, col + 1
	default: // avg
		return aggState{F: t[col].AsFloat(), I: t[col+1].AsInt()}, col + 2
	}
}

// AggTable is the hash-based aggregation state structure shared across ADP
// phases: the "shared Group-by operator" of Figure 1. Raw tuples (in the
// table's input layout) and partial tuples (in the corresponding partial
// layout) may be absorbed in any interleaving; EmitFinal produces the
// final aggregate relation. Its groups live in a flat store (state.Groups):
// a record per group — the group values, then one aggState per aggregate —
// on storage from the context's spare, which Context.Release gives back
// when the run ends; a released table panics on use.
type AggTable struct {
	ctx      *Context
	aggs     []algebra.AggSpec
	groupIdx []int
	argEvals []expr.Evaluator

	outSchema     *types.Schema
	partialSchema *types.Schema

	// groups finds a group by strict equality of its group values, the byte
	// codec's grouping: Int(1), Float(1), and Str("1") stay distinct.
	groups *state.Groups
	// valScratch is allocation-free grouping scratch: group values are
	// extracted into it and only copied into the store when a group is
	// created. order is the reused emit-order buffer of group ids. colIn
	// materializes the columnar entries (colbatch.go).
	valScratch []types.Value
	order      []int32
	colIn      colDelivery

	// Maintenance (signed) mode: gm and bags are side storage by group id,
	// dirty lists the groups touched since the last EmitRevisions,
	// bagScratch is the reused min/max bag key buffer, revScratch the row a
	// revision is built in, revRows the reused revision batch (aggdelta.go).
	maint      bool
	hasMinMax  bool
	gm         []groupMaint
	bags       []valueBag // len(aggs) per group, min/max tables only
	dirty      []int32
	bagScratch []byte
	revScratch types.Tuple
	revRows    []types.Tuple

	counters stats.OpCounters
}

// NewAggTable builds an aggregation table over raw input layout in.
func NewAggTable(ctx *Context, in *types.Schema, groupBy []string, aggs []algebra.AggSpec) (*AggTable, error) {
	a := &AggTable{
		ctx:           ctx,
		aggs:          aggs,
		outSchema:     algebra.GroupSchema(in, groupBy, aggs, false),
		partialSchema: algebra.GroupSchema(in, groupBy, aggs, true),
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
	a.groups = state.NewGroups(len(groupBy), len(groupBy)+len(aggs), ctx.Spare)
	ctx.owned = append(ctx.owned, a)
	return a, nil
}

// free gives the table's group store to spare at the end of its run.
func (a *AggTable) free(spare *state.Spare) { spare.ReleaseGroups(a.groups) }

// Schema returns the final output layout.
func (a *AggTable) Schema() *types.Schema { return a.outSchema }

// PartialSchema returns the layout of partial tuples this table accepts.
func (a *AggTable) PartialSchema() *types.Schema { return a.partialSchema }

// Counters exposes statistics.
func (a *AggTable) Counters() *stats.OpCounters { return &a.counters }

// Groups returns the current number of groups.
func (a *AggTable) Groups() int { return a.groups.Len() }

// group finds or creates the group of the given key values and returns its
// id and record. vals may be scratch storage: it is copied into the store
// only when the group is new. Lookup is allocation-free at steady state.
func (a *AggTable) group(vals []types.Value) (int32, []types.Value) {
	id := a.groups.Find(vals)
	if a.maint && int(id) > len(a.gm) {
		a.gm = append(a.gm, groupMaint{}) //adp:alloc-ok amortized side-storage growth
		if a.hasMinMax {
			a.bags = append(a.bags, make([]valueBag, len(a.aggs))...)
		}
	}
	return id, a.groups.Record(id)
}

// state returns aggregate i's state in the group whose record is rec.
func (a *AggTable) state(rec []types.Value, i int) *aggState {
	return (*aggState)(&rec[len(a.groupIdx)+i])
}

// groupScratch returns the reused group-value buffer, sized to n.
func (a *AggTable) groupScratch(n int) []types.Value {
	if cap(a.valScratch) < n {
		a.valScratch = make([]types.Value, n)
	}
	return a.valScratch[:n]
}

// AbsorbRaw folds one raw tuple (input layout).
//
//adp:hotpath gated by BenchmarkAggTableAbsorb (scripts/check_allocs.sh)
func (a *AggTable) AbsorbRaw(t types.Tuple) {
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
	_, rec := a.group(vals)
	for i, spec := range a.aggs {
		var v types.Value
		if a.argEvals[i] != nil {
			v = a.argEvals[i](t)
		}
		a.state(rec, i).accumulate(spec.Kind, v)
	}
}

// CopiesInput implements InputCopier: absorption copies group values into
// owned storage and folds the rest into aggregate states.
func (a *AggTable) CopiesInput() {}

// Push implements Sink, letting an AggTable terminate a push pipeline
// directly: an unsigned batch is AbsorbRaw of every tuple, a signed one
// AbsorbSigned of every tuple with the batch's sign, both with the shared
// grouping scratch and no per-tuple allocations at steady state. A signed
// batch needs maintenance mode.
//
//adp:hotpath gated by BenchmarkAggTableAbsorb and BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (a *AggTable) Push(ts []types.Tuple, sign int) {
	if sign == 0 {
		for _, t := range ts {
			a.AbsorbRaw(t)
		}
		return
	}
	if len(ts) > 0 && !a.maint {
		panic("exec: signed Push on an AggTable without maintenance enabled")
	}
	for _, t := range ts {
		a.AbsorbSigned(t, sign)
	}
}

// AbsorbPartial folds one partial tuple (PartialSchema layout), merging
// pre-aggregated states: the final GROUP BY "coalesces pre-grouped
// information instead of operating on original tuples" (§2.2).
func (a *AggTable) AbsorbPartial(t types.Tuple) {
	a.counters.In++
	a.ctx.Clock.Charge(a.ctx.Cost.AggUpdate)
	ng := len(a.groupIdx)
	_, rec := a.group(t[:ng])
	col := ng
	for i, spec := range a.aggs {
		var st aggState
		st, col = loadPartial(spec.Kind, t, col)
		a.state(rec, i).merge(spec.Kind, st)
	}
}

var (
	errMergeMaintained = errors.New("exec: MergeFrom on a maintenance-mode AggTable")
	errMergeShape      = errors.New("exec: MergeFrom between AggTables of different grouping or aggregates")
)

// MergeFrom folds src — a table of the same grouping and aggregates, such as
// a partition clone's private one — into a, state by state: a group a has
// not seen is adopted as it stands, a group both hold merges its aggregate
// states into a's. Where a's spare has no storage to copy src's groups into
// (a cold run), a takes src's chunks (state.Groups.Adopt); else it copies
// them, starting each new group from the zero state, which merging leaves
// exactly src's. a is charged as if it had absorbed src's EmitPartial rows
// (one AggUpdate and one In per group of src) without any partial tuple
// being built or sorted. src must not be used afterwards.
//
//adp:hotpath gated by BenchmarkAggTableMergeFrom (scripts/check_allocs.sh)
func (a *AggTable) MergeFrom(src *AggTable) error {
	if a.maint || src.maint {
		// Maintenance groups carry weights and value bags that state-wise
		// merging would not combine.
		return errMergeMaintained
	}
	if len(src.groupIdx) != len(a.groupIdx) || !slices.EqualFunc(src.aggs, a.aggs,
		func(x, y algebra.AggSpec) bool { return x.Kind == y.Kind }) {
		return errMergeShape
	}
	n := src.groups.Len()
	a.counters.In += int64(n)
	a.ctx.Clock.Charge(int64(n) * a.ctx.Cost.AggUpdate)
	if a.groups.Adopt(src.groups, func(into, from int32) {
		a.mergeGroup(a.groups.Record(into), a.groups.Record(from))
	}) {
		return nil
	}
	// src removes no group (only maintenance does), so its ids are 1..n.
	for id := int32(1); id <= int32(n); id++ {
		rec := src.groups.Record(id)
		a.mergeGroup(a.groups.Record(a.groups.Find(rec[:len(a.groupIdx)])), rec)
	}
	return nil
}

// mergeGroup folds the aggregate states of record from into record into.
func (a *AggTable) mergeGroup(into, from []types.Value) {
	for i, spec := range a.aggs {
		a.state(into, i).merge(spec.Kind, *a.state(from, i))
	}
}

// compareGroupVals is the emit order of groups: CompareKey's order wherever
// that decides, made total so that every pair of distinct groups has one
// order. Group identity is strict (types.StrictEqual), but Compare ties
// Int(k) with Float(k) and +0 with -0, and calls NaN equal to every number;
// NaN therefore sorts after all other numbers, and a remaining tie falls to
// the kind, then to the payload bits.
func compareGroupVals(a, b []types.Value) int {
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

// sorted returns the table's group ids in emit order. The order is a
// function of the group values alone, never of the order groups were created
// in.
func (a *AggTable) sorted() []int32 {
	a.order = a.groups.IDs(a.order[:0])
	a.sortIDs(a.order)
	return a.order
}

// sortIDs sorts group ids by their group values (compareGroupVals).
func (a *AggTable) sortIDs(ids []int32) {
	ng := len(a.groupIdx)
	slices.SortFunc(ids, func(x, y int32) int {
		return compareGroupVals(a.groups.Record(x)[:ng], a.groups.Record(y)[:ng])
	})
}

// EmitFinal produces the final aggregate relation, sorted by group values
// for determinism, and charges output costs: each row is written into the
// storage next returns for it, width values.
func (a *AggTable) EmitFinal(next func(width int) types.Tuple) {
	ids := a.sorted()
	a.emitted(len(ids))
	for _, id := range ids {
		a.finalRow(next(len(a.groupIdx)+len(a.aggs)), a.groups.Record(id))
	}
}

// finalRow writes the final row of the group whose record is rec into t.
func (a *AggTable) finalRow(t types.Tuple, rec []types.Value) types.Tuple {
	ng := copy(t, rec[:len(a.groupIdx)])
	for i, spec := range a.aggs {
		t[ng+i] = a.state(rec, i).final(spec.Kind)
	}
	return t
}

// emitted accounts n output rows: one Move each.
func (a *AggTable) emitted(n int) {
	a.counters.Out += int64(n)
	a.ctx.Clock.Charge(int64(n) * a.ctx.Cost.Move)
}

// EmitPartial produces the table's groups as partial-layout tuples
// (PartialSchema), sorted by group values. A blocking AggTable emitting
// partials is exactly the paper's "traditional pre-aggregation" operator
// (§6): correct, but unpipelined. The rows share one slab of their own:
// the consumer may keep them.
func (a *AggTable) EmitPartial() []types.Tuple {
	ids := a.sorted()
	a.emitted(len(ids))
	w := a.partialSchema.Len()
	out, slab := make([]types.Tuple, len(ids)), make([]types.Value, len(ids)*w)
	for j, id := range ids {
		out[j] = a.appendPartial(slab[j*w:j*w:(j+1)*w], a.groups.Record(id))
	}
	return out
}

// appendPartial appends the partial row of the group whose record is rec to t.
func (a *AggTable) appendPartial(t types.Tuple, rec []types.Value) types.Tuple {
	t = append(t, rec[:len(a.groupIdx)]...)
	for i, spec := range a.aggs {
		t = a.state(rec, i).appendPartial(t, spec.Kind)
	}
	return t
}

// WindowPreAgg is the paper's adjustable sliding-window pre-aggregation
// operator (§2.3, §6): it partially pre-aggregates every w tuples,
// emitting each window's partial groups downstream, and adapts w to the
// observed coalescing ratio — doubling the window when pre-aggregation is
// effective, halving it (down to pseudogroup pass-through at w=1) when it
// is not. Unlike a traditional pre-aggregate it is fully pipelined.
type WindowPreAgg struct {
	ctx    *Context
	schema *types.Schema
	out    Sink
	// win aggregates the current window; a flush empties its store.
	win *AggTable

	// W is the current window size; MinW/MaxW bound adaptation.
	W, MinW, MaxW int
	// GrowBelow/ShrinkAbove are coalescing-ratio thresholds
	// (groups emitted / tuples absorbed in the window).
	GrowBelow, ShrinkAbove float64

	curN int

	// keyBuf holds a flushed window's encoded group keys, group id's at
	// keyBuf[keyOff[id-1]:keyOff[id]]: their byte order is the flush order.
	keyBuf []byte
	keyOff []int
	// pending collects the partials produced while one input batch (or the
	// final flush) is absorbed; they go downstream in one call.
	pending []types.Tuple

	counters stats.OpCounters
	// WindowsFlushed and Coalesced instrument the adaptation policy.
	WindowsFlushed int
	Coalesced      int64 // tuples absorbed minus partials emitted
}

// NewWindowPreAgg builds the operator with the default policy (initial
// window 64, bounds [1, 64k], grow below 0.75, shrink above 0.95).
func NewWindowPreAgg(ctx *Context, in *types.Schema, groupBy []string, aggs []algebra.AggSpec, out Sink) (*WindowPreAgg, error) {
	win, err := NewAggTable(ctx, in, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &WindowPreAgg{
		ctx:         ctx,
		schema:      win.partialSchema,
		out:         out,
		win:         win,
		W:           64,
		MinW:        1,
		MaxW:        64 * 1024,
		GrowBelow:   0.75,
		ShrinkAbove: 0.95,
	}, nil
}

// Schema returns the partial layout produced.
func (w *WindowPreAgg) Schema() *types.Schema { return w.schema }

// Counters exposes statistics.
func (w *WindowPreAgg) Counters() *stats.OpCounters { return &w.counters }

// Push implements Sink: every tuple is absorbed into the current window, and
// the partials of the windows that filled on the way (or, at w=1, the
// tuples' singletons) leave as one batch. Partials keep no signed state
// (SignBlind).
func (w *WindowPreAgg) Push(ts []types.Tuple, sign int) {
	SignBlind(sign)
	for _, t := range ts {
		w.absorb(t)
	}
	w.deliver()
}

// deliver hands the collected partials downstream.
func (w *WindowPreAgg) deliver() {
	if len(w.pending) == 0 {
		return
	}
	w.out.Push(w.pending, 0)
	clear(w.pending)
	w.pending = w.pending[:0]
}

// absorb folds one tuple into the current window.
func (w *WindowPreAgg) absorb(t types.Tuple) {
	w.counters.In++
	if w.W <= 1 {
		// Degenerate window: pseudogroup pass-through, costing "little
		// more than a conventional projection operation" (§3.2) — this is
		// what makes the operator low-risk on non-coalescing data (§6).
		w.pushSingleton(t)
		return
	}
	w.win.AbsorbRaw(t)
	w.curN++
	if w.curN >= w.W {
		w.flush()
	}
}

// pushSingleton converts one tuple into a partial-layout singleton and
// emits it (the w=1 pass-through mode).
func (w *WindowPreAgg) pushSingleton(t types.Tuple) {
	w.ctx.Clock.Charge(w.ctx.Cost.Move)
	a := w.win
	out := make(types.Tuple, 0, w.schema.Len())
	for _, gi := range a.groupIdx {
		out = append(out, t[gi])
	}
	for i, spec := range a.aggs {
		var st aggState
		var v types.Value
		if a.argEvals[i] != nil {
			v = a.argEvals[i](t)
		}
		st.accumulate(spec.Kind, v)
		out = st.appendPartial(out, spec.Kind)
	}
	w.counters.Out++
	w.pending = append(w.pending, out)
}

// flush emits the current window's partial groups (into pending), in the
// byte order of their encoded keys, and adapts the window size to the
// coalescing ratio.
func (w *WindowPreAgg) flush() {
	if w.curN == 0 {
		return
	}
	a := w.win
	ids := a.groups.IDs(a.order[:0]) // 1..n: a window removes no group
	w.keyBuf, w.keyOff = w.keyBuf[:0], append(w.keyOff[:0], 0)
	for _, id := range ids {
		w.keyBuf = types.AppendKeyAll(w.keyBuf, types.Tuple(a.groups.Record(id)[:len(a.groupIdx)]))
		w.keyOff = append(w.keyOff, len(w.keyBuf))
	}
	key := func(id int32) []byte { return w.keyBuf[w.keyOff[id-1]:w.keyOff[id]] }
	slices.SortFunc(ids, func(x, y int32) int { return bytes.Compare(key(x), key(y)) })
	w.counters.Out += int64(len(ids))
	w.ctx.Clock.Charge(int64(len(ids)) * w.ctx.Cost.Move)
	for _, id := range ids {
		w.pending = append(w.pending, a.appendPartial(make(types.Tuple, 0, w.schema.Len()), a.groups.Record(id)))
	}
	ratio := float64(len(ids)) / float64(w.curN)
	w.Coalesced += int64(w.curN - len(ids))
	w.WindowsFlushed++
	switch {
	case ratio <= w.GrowBelow:
		if w.W*2 <= w.MaxW {
			w.W *= 2
		}
	case ratio >= w.ShrinkAbove:
		if w.W/2 >= w.MinW {
			w.W /= 2
		}
	}
	a.order = ids
	a.groups.Reset()
	w.curN = 0
}

// Finish flushes the last (possibly short) window.
func (w *WindowPreAgg) Finish() {
	w.flush()
	w.deliver()
}
