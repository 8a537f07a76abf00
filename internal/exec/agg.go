package exec

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// aggState is the distributive state of one aggregate in one group. Every
// paper aggregate (min, max, sum, count, avg) is covered: avg decomposes
// into sum+count (§2.2 footnote 1), which is why pre-aggregation and
// cross-phase shared group-bys are sound.
type aggState struct {
	has    bool
	minmax types.Value
	sum    float64
	cnt    int64
}

func (s *aggState) accumulate(kind algebra.AggKind, v types.Value) {
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
func (s *aggState) merge(kind algebra.AggKind, other aggState) {
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

func (s *aggState) final(kind algebra.AggKind) types.Value {
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
func (s *aggState) partialCols(kind algebra.AggKind) []types.Value {
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

// loadPartial parses one partial tuple's state columns starting at col;
// it returns the parsed state and the next column index.
func loadPartial(kind algebra.AggKind, t types.Tuple, col int) (aggState, int) {
	switch kind {
	case algebra.AggMin, algebra.AggMax:
		v := t[col]
		return aggState{has: !v.IsNull(), minmax: v}, col + 1
	case algebra.AggSum:
		return aggState{has: true, sum: t[col].AsFloat()}, col + 1
	case algebra.AggCount:
		return aggState{cnt: t[col].AsInt()}, col + 1
	default: // avg
		return aggState{has: true, sum: t[col].AsFloat(), cnt: t[col+1].AsInt()}, col + 2
	}
}

type aggGroup struct {
	groupVals []types.Value
	states    []aggState
	m         *groupMaint // maintenance-mode state; nil otherwise
}

// AggTable is the hash-based aggregation state structure shared across ADP
// phases: the "shared Group-by operator" of Figure 1. Raw tuples (in the
// table's input layout) and partial tuples (in the corresponding partial
// layout) may be absorbed in any interleaving; EmitFinal produces the
// final aggregate relation.
type AggTable struct {
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
	groups  map[uint64][]*aggGroup
	nGroups int
	// valScratch is allocation-free grouping scratch: group values are
	// extracted into it and only copied to owned storage when a new group
	// is created. colIn materializes the columnar entries (colbatch.go).
	valScratch []types.Value
	colIn      colDelivery

	// Maintenance (signed) mode: dirty lists the groups touched since
	// the last EmitRevisions, bagScratch is the reused min/max bag key
	// buffer, revRows the reused revision delivery batch. See aggdelta.go.
	maint      bool
	hasMinMax  bool
	dirty      []*aggGroup
	bagScratch []byte
	revRows    []types.Tuple

	counters stats.OpCounters
}

// NewAggTable builds an aggregation table over raw input layout in.
func NewAggTable(ctx *Context, in *types.Schema, groupBy []string, aggs []algebra.AggSpec) (*AggTable, error) {
	a := &AggTable{
		ctx:           ctx,
		in:            in,
		groupBy:       groupBy,
		aggs:          aggs,
		outSchema:     algebra.GroupSchema(in, groupBy, aggs, false),
		partialSchema: algebra.GroupSchema(in, groupBy, aggs, true),
		groups:        make(map[uint64][]*aggGroup),
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

// Schema returns the final output layout.
func (a *AggTable) Schema() *types.Schema { return a.outSchema }

// PartialSchema returns the layout of partial tuples this table accepts.
func (a *AggTable) PartialSchema() *types.Schema { return a.partialSchema }

// Counters exposes statistics.
func (a *AggTable) Counters() *stats.OpCounters { return &a.counters }

// Groups returns the current number of groups.
func (a *AggTable) Groups() int { return a.nGroups }

// groupFor finds or creates the group for the given key values. vals may
// be scratch storage: it is copied to owned storage only when the group is
// new. Lookup is allocation-free at steady state.
func (a *AggTable) groupFor(vals []types.Value) *aggGroup {
	hash := types.Tuple(vals).HashKey(types.Identity(len(vals)))
	for _, g := range a.groups[hash] {
		if strictEqualVals(g.groupVals, vals) {
			return g
		}
	}
	owned := make([]types.Value, len(vals))
	copy(owned, vals)
	g := &aggGroup{groupVals: owned, states: make([]aggState, len(a.aggs))}
	if a.maint {
		g.m = &groupMaint{hash: hash}
		if a.hasMinMax {
			g.m.bags = make([]valueBag, len(a.aggs))
		}
	}
	a.groups[hash] = append(a.groups[hash], g)
	a.nGroups++
	return g
}

// strictEqualVals reports element-wise strict equality (group identity).
func strictEqualVals(a, b []types.Value) bool {
	for i := range a {
		if !types.StrictEqual(a[i], b[i]) {
			return false
		}
	}
	return true
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
	g := a.groupFor(vals)
	for i, spec := range a.aggs {
		var v types.Value
		if a.argEvals[i] != nil {
			v = a.argEvals[i](t)
		}
		g.states[i].accumulate(spec.Kind, v)
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
	vals := a.groupScratch(ng)
	copy(vals, t[:ng])
	g := a.groupFor(vals)
	col := ng
	for i, spec := range a.aggs {
		var st aggState
		st, col = loadPartial(spec.Kind, t, col)
		g.states[i].merge(spec.Kind, st)
	}
}

var (
	errMergeMaintained = errors.New("exec: MergeFrom on a maintenance-mode AggTable")
	errMergeShape      = errors.New("exec: MergeFrom between AggTables of different grouping or aggregates")
)

// MergeFrom folds src — a table of the same grouping and aggregates, such as
// a partition clone's private one — into a, state by state: a group a has
// not seen is adopted as it stands, a group both hold merges its aggregate
// states into a's. a is charged as if it had absorbed src's EmitPartial
// rows (one AggUpdate and one In per group of src) without any partial
// tuple being built or sorted. src's groups become a's: src must not be
// used afterwards.
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
				if strictEqualVals(have.groupVals, g.groupVals) {
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

// sortedGroups returns the table's groups in emit order. The order is a
// function of the group values alone, never of map iteration or of the
// order groups were created in.
func (a *AggTable) sortedGroups() []*aggGroup {
	gs := make([]*aggGroup, 0, a.nGroups)
	for _, chain := range a.groups {
		gs = append(gs, chain...)
	}
	slices.SortFunc(gs, func(x, y *aggGroup) int { return compareGroupVals(x.groupVals, y.groupVals) })
	return gs
}

// EmitFinal produces the final aggregate relation, sorted by group values
// for determinism, and charges output costs.
func (a *AggTable) EmitFinal() []types.Tuple {
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
func (a *AggTable) emitted(n int) {
	a.counters.Out += int64(n)
	a.ctx.Clock.Charge(int64(n) * a.ctx.Cost.Move)
}

// EmitPartial produces the table's groups as partial-layout tuples
// (PartialSchema), sorted by group values. A blocking AggTable emitting
// partials is exactly the paper's "traditional pre-aggregation" operator
// (§6): correct, but unpipelined.
func (a *AggTable) EmitPartial() []types.Tuple {
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

// WindowPreAgg is the paper's adjustable sliding-window pre-aggregation
// operator (§2.3, §6): it partially pre-aggregates every w tuples,
// emitting each window's partial groups downstream, and adapts w to the
// observed coalescing ratio — doubling the window when pre-aggregation is
// effective, halving it (down to pseudogroup pass-through at w=1) when it
// is not. Unlike a traditional pre-aggregate it is fully pipelined.
type WindowPreAgg struct {
	ctx      *Context
	in       *types.Schema
	groupIdx []int
	aggs     []algebra.AggSpec
	argEvals []expr.Evaluator
	schema   *types.Schema
	out      Sink

	// W is the current window size; MinW/MaxW bound adaptation.
	W, MinW, MaxW int
	// GrowBelow/ShrinkAbove are coalescing-ratio thresholds
	// (groups emitted / tuples absorbed in the window).
	GrowBelow, ShrinkAbove float64

	cur  map[string]*aggGroup
	curN int

	keyBuf     []byte
	valScratch []types.Value
	// pending collects the partials produced while one input batch (or the
	// final flush) is absorbed; they go downstream in one call.
	pending []types.Tuple

	counters stats.OpCounters
	// WindowsFlushed and Coalesced instrument the adaptation policy.
	WindowsFlushed int
	Coalesced      int64 // tuples absorbed minus partials emitted
	// WindowTrace records the window size at each flush (ablation).
	WindowTrace []int
}

// NewWindowPreAgg builds the operator with the default policy (initial
// window 64, bounds [1, 64k], grow below 0.75, shrink above 0.95).
func NewWindowPreAgg(ctx *Context, in *types.Schema, groupBy []string, aggs []algebra.AggSpec, out Sink) (*WindowPreAgg, error) {
	w := &WindowPreAgg{
		ctx:         ctx,
		in:          in,
		aggs:        aggs,
		schema:      algebra.GroupSchema(in, groupBy, aggs, true),
		out:         out,
		W:           64,
		MinW:        1,
		MaxW:        64 * 1024,
		GrowBelow:   0.75,
		ShrinkAbove: 0.95,
		cur:         make(map[string]*aggGroup),
	}
	for _, g := range groupBy {
		i := in.IndexOf(g)
		if i < 0 {
			return nil, fmt.Errorf("exec: window pre-agg column %q not in input", g)
		}
		w.groupIdx = append(w.groupIdx, i)
	}
	for _, spec := range aggs {
		if spec.Arg == nil {
			w.argEvals = append(w.argEvals, nil)
			continue
		}
		ev, err := spec.Arg.Bind(in)
		if err != nil {
			return nil, err
		}
		w.argEvals = append(w.argEvals, ev)
	}
	return w, nil
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
	w.ctx.Clock.Charge(w.ctx.Cost.AggUpdate)
	if cap(w.valScratch) < len(w.groupIdx) {
		w.valScratch = make([]types.Value, len(w.groupIdx))
	}
	vals := w.valScratch[:len(w.groupIdx)]
	for i, gi := range w.groupIdx {
		vals[i] = t[gi]
	}
	w.keyBuf = types.AppendKeyAll(w.keyBuf[:0], types.Tuple(vals))
	g, ok := w.cur[string(w.keyBuf)]
	if !ok {
		owned := make([]types.Value, len(vals))
		copy(owned, vals)
		g = &aggGroup{groupVals: owned, states: make([]aggState, len(w.aggs))}
		w.cur[string(w.keyBuf)] = g
	}
	for i, spec := range w.aggs {
		var v types.Value
		if w.argEvals[i] != nil {
			v = w.argEvals[i](t)
		}
		g.states[i].accumulate(spec.Kind, v)
	}
	w.curN++
	if w.curN >= w.W {
		w.flush()
	}
}

// pushSingleton converts one tuple into a partial-layout singleton and
// emits it (the w=1 pass-through mode).
func (w *WindowPreAgg) pushSingleton(t types.Tuple) {
	w.ctx.Clock.Charge(w.ctx.Cost.Move)
	out := make(types.Tuple, 0, len(w.groupIdx)+len(w.aggs)+1)
	for _, gi := range w.groupIdx {
		out = append(out, t[gi])
	}
	for i, spec := range w.aggs {
		var st aggState
		var v types.Value
		if w.argEvals[i] != nil {
			v = w.argEvals[i](t)
		}
		st.accumulate(spec.Kind, v)
		out = append(out, st.partialCols(spec.Kind)...)
	}
	w.counters.Out++
	w.pending = append(w.pending, out)
}

// flush emits the current window's partial groups (into pending) and
// adapts the window size to the coalescing ratio.
func (w *WindowPreAgg) flush() {
	if w.curN == 0 {
		return
	}
	keys := make([]string, 0, len(w.cur))
	for k := range w.cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.counters.Out += int64(len(keys))
	w.ctx.Clock.Charge(int64(len(keys)) * w.ctx.Cost.Move)
	for _, k := range keys {
		g := w.cur[k]
		t := make(types.Tuple, 0, len(g.groupVals)+len(w.aggs)+1)
		t = append(t, g.groupVals...)
		for i, spec := range w.aggs {
			t = append(t, g.states[i].partialCols(spec.Kind)...)
		}
		w.pending = append(w.pending, t)
	}
	ratio := float64(len(w.cur)) / float64(w.curN)
	w.Coalesced += int64(w.curN - len(w.cur))
	w.WindowsFlushed++
	w.WindowTrace = append(w.WindowTrace, w.W)
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
	w.cur = make(map[string]*aggGroup)
	w.curN = 0
}

// Finish flushes the last (possibly short) window.
func (w *WindowPreAgg) Finish() {
	w.flush()
	w.deliver()
}
