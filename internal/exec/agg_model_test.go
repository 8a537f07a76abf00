package exec

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// modelIn is the fuzz model's input layout: two group columns and the
// aggregates' argument.
var modelIn = types.NewSchema(
	types.Column{Name: "m.g", Kind: types.KindInt},
	types.Column{Name: "m.h", Kind: types.KindInt},
	types.Column{Name: "m.v", Kind: types.KindInt},
)

var modelGroupBy = []string{"m.g", "m.h"}

func modelAggs() []algebra.AggSpec {
	v := expr.Column("m.v")
	return []algebra.AggSpec{
		{Kind: algebra.AggMin, Arg: v, As: "mn"},
		{Kind: algebra.AggMax, Arg: v, As: "mx"},
		{Kind: algebra.AggSum, Arg: v, As: "sm"},
		{Kind: algebra.AggCount, As: "ct"},
		{Kind: algebra.AggAvg, Arg: v, As: "av"},
	}
}

// modelKey decodes a group value: ints, floats that hash as those ints
// (types.HashValue folds integral floats), ±0, NaNs of two payloads (one
// group), NULL and strings.
func modelKey(b byte) types.Value {
	switch b % 16 {
	case 0, 1, 2, 3:
		return types.Int(int64(b % 16))
	case 4, 5, 6, 7:
		return types.Float(float64(b%16 - 4))
	case 8:
		return types.Float(math.Copysign(0, -1))
	case 9:
		return types.Float(math.NaN())
	case 10:
		return types.Float(math.Float64frombits(0x7ff8000000000001))
	case 11:
		return types.Null()
	case 15:
		return types.Float(1.5)
	default:
		return types.Str(fmt.Sprint(b%16 - 12))
	}
}

// modelArg decodes an aggregate argument: small ints, the floats that
// Compare ties with them, floats that do not add exactly, and NULL.
func modelArg(b byte) types.Value {
	switch k := int64(b/4%7) - 3; b % 4 {
	case 0:
		return types.Int(k)
	case 1:
		return types.Float(float64(k))
	case 2:
		return types.Float(float64(b/4) * 0.1)
	default:
		return types.Null()
	}
}

// modelPair is one table under test and the parent's, fed the same calls.
type modelPair struct {
	t     testing.TB
	ctx   *Context
	a     *AggTable
	p     *parentAggTable
	spare *state.Spare
	maint bool
	live  []types.Tuple // rows inserted and not retracted (maintenance)
}

func newModelPair(t testing.TB, spare *state.Spare, maint bool) *modelPair {
	ctx := &Context{Clock: &Clock{}, Cost: DefaultCosts(), Spare: spare}
	a, err := NewAggTable(ctx, modelIn, modelGroupBy, modelAggs())
	if err != nil {
		t.Fatal(err)
	}
	p, err := newParentAggTable(NewContext(), modelIn, modelGroupBy, modelAggs())
	if err != nil {
		t.Fatal(err)
	}
	if maint {
		a.EnableMaintenance()
		p.EnableMaintenance()
	}
	return &modelPair{t: t, ctx: ctx, a: a, p: p, spare: spare, maint: maint}
}

func (m *modelPair) raw(t types.Tuple) {
	m.a.AbsorbRaw(t)
	m.p.AbsorbRaw(t)
	if m.maint {
		m.live = append(m.live, t)
	}
}

// check holds everything a consumer reads of the two tables equal.
func (m *modelPair) check(what string) {
	m.t.Helper()
	if m.a.Groups() != m.p.Groups() || m.a.counters != m.p.counters ||
		*m.a.ctx.Clock != *m.p.ctx.Clock {
		m.t.Fatalf("%s: groups %d, counters %+v, clock %+v; parent %d, %+v, %+v", what,
			m.a.Groups(), m.a.counters, *m.a.ctx.Clock, m.p.Groups(), m.p.counters, *m.p.ctx.Clock)
	}
}

func (m *modelPair) checkRows(what string, got, want []types.Tuple) {
	m.t.Helper()
	if !slices.EqualFunc(got, want, func(x, y types.Tuple) bool {
		return slices.EqualFunc(x, y, func(a, b types.Value) bool {
			return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
		})
	}) {
		m.t.Fatalf("%s rows:\n%s\nparent:\n%s", what, exactRows(got), exactRows(want))
	}
	m.check(what)
}

// revisions emits both tables' revisions. The parent sorted dirty groups by
// CompareKey, under which distinct groups tie (and NaN ties every number),
// so its sequence is put in emit order first: each group's revision, a
// retraction and an assertion or one of them, moves as a unit.
func (m *modelPair) revisions() {
	m.t.Helper()
	var got, want []types.Tuple
	m.a.EmitRevisions(func(t types.Tuple, sign int) { got = append(got, append(t.Clone(), types.Int(int64(sign)))) })
	m.p.EmitRevisions(func(t types.Tuple, sign int) { want = append(want, append(t.Clone(), types.Int(int64(sign)))) })
	ng := len(modelGroupBy)
	var units [][]types.Tuple
	for _, r := range want {
		if n := len(units); n > 0 && parentStrictEqualVals(units[n-1][0][:ng], r[:ng]) {
			units[n-1] = append(units[n-1], r)
			continue
		}
		units = append(units, []types.Tuple{r})
	}
	slices.SortStableFunc(units, func(x, y []types.Tuple) int { return compareGroupVals(x[0][:ng], y[0][:ng]) })
	m.checkRows("revisions", got, slices.Concat(units...))
}

// run drives the pair through the operations data encodes.
func (m *modelPair) run(data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	row := func() types.Tuple { return types.Tuple{modelKey(next()), modelKey(next() % 4), modelArg(next())} }
	for step := 0; len(data) > 0; step++ {
		switch op := next() % 8; {
		case op < 3:
			m.raw(row())
		case op == 3 && m.maint:
			if len(m.live) > 0 {
				i := int(next()) % len(m.live)
				t := m.live[i]
				m.live = slices.Delete(m.live, i, i+1)
				m.a.AbsorbSigned(t, -1)
				m.p.AbsorbSigned(t, -1)
			}
		case op == 3:
			t := types.Tuple{modelKey(next()), modelKey(next() % 4),
				modelArg(next()), modelArg(next()), types.Float(float64(next()) * 0.3), types.Int(int64(next() % 5)),
				types.Float(float64(next()) * 0.7), types.Int(int64(next() % 5))}
			m.a.AbsorbPartial(t)
			m.p.AbsorbPartial(t)
		case op == 4:
			m.checkRows(fmt.Sprintf("step %d EmitFinal", step), finalRows(m.a), m.p.EmitFinal())
		case op == 5 && m.maint, op == 6 && m.maint:
			m.revisions()
		case op == 5:
			m.checkRows(fmt.Sprintf("step %d EmitPartial", step), m.a.EmitPartial(), m.p.EmitPartial())
		case op == 6:
			// A partition's table, on a context of its own, folded in.
			src := newModelPair(m.t, &state.Spare{}, false)
			if n := next(); n >= 240 {
				// Enough groups that src's first chunk is a full one.
				base, h := int64(next())*1000, modelKey(next()%4)
				for j := int64(0); j < 300; j++ {
					src.raw(types.Tuple{types.Int(base + j), h, types.Int(j % 5)})
				}
			} else {
				for n %= 12; n > 0; n-- {
					src.raw(row())
				}
			}
			if err := m.a.MergeFrom(src.a); err != nil {
				m.t.Fatal(err)
			}
			if err := m.p.MergeFrom(src.p); err != nil {
				m.t.Fatal(err)
			}
		case m.a.Groups() < 2000:
			// Enough groups at once to fill the first chunk and the next.
			base, h := int64(next())*1000, modelKey(next()%4)
			for j := int64(0); j < 1100; j++ {
				m.raw(types.Tuple{types.Int(base + j), h, types.Int(j % 7)})
			}
		}
		m.check(fmt.Sprintf("step %d", step))
	}
	if m.maint {
		m.revisions()
	}
	m.checkRows("final EmitFinal", finalRows(m.a), m.p.EmitFinal())
}

// returnedModelSpare is what another run returned: the group store of a
// table of the model's shape that held 3000 groups, and its bucket array,
// entries and records left as that run had them.
func returnedModelSpare(t testing.TB) *state.Spare {
	spare := &state.Spare{}
	donor, err := NewAggTable(&Context{Clock: &Clock{}, Cost: DefaultCosts(), Spare: spare}, modelIn, modelGroupBy, modelAggs())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3000; i++ {
		donor.AbsorbRaw(types.Tuple{types.Int(i % 1500), types.Str(fmt.Sprint(i)), types.Float(float64(i))})
	}
	donor.free(spare)
	return spare
}

// FuzzAggTableModel drives AggTable and the parent's map-based table
// (agg_parent_test.go) through one sequence of AbsorbRaw, AbsorbPartial,
// AbsorbSigned, MergeFrom, EmitPartial, EmitFinal and EmitRevisions calls,
// plain or in maintenance mode, over keys that tie under Compare or share a
// hash, and requires identical rows to the bit, group counts, counters and
// clocks. Each input runs twice: on an empty spare, and on storage a
// finished run returned, stale contents and all.
func FuzzAggTableModel(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 0, 12, 0, 0, 0, 13, 0, 4, 0, 17, 0, 4, 0, 16, 4, 5},
		{1, 0, 0, 0, 13, 0, 0, 0, 12, 0, 4, 0, 16, 0, 4, 0, 17, 5, 3, 1, 5, 4},
		{0, 0, 1, 2, 0, 4, 1, 0, 5, 2, 0, 6, 3, 4, 5, 6},
		{0, 0, 9, 0, 3, 0, 10, 1, 4, 1, 8, 0, 5, 2, 5, 3, 7, 2, 0, 4, 5},
		{1, 0, 1, 0, 2, 0, 5, 1, 4, 3, 3, 0, 5, 3, 0, 5, 0, 9, 2, 5, 0, 10, 2, 3, 0, 5},
		{0, 6, 5, 7, 0, 1, 0, 1, 2, 6, 3, 6, 4, 8, 9, 4, 5},
		{1, 7, 3, 1, 5, 3, 7, 3, 1, 3, 9, 5, 7, 3, 2, 1, 5, 0, 11, 12, 5, 4},
		{0, 3, 13, 2, 4, 5, 6, 7, 8, 9, 6, 9, 12, 3, 14, 0, 2, 5, 1, 7, 5, 4, 5},
		{0, 7, 1, 0, 6, 250, 1, 0, 4, 6, 245, 1, 0, 6, 3, 0, 0, 1, 4, 5, 6, 241, 2, 1, 4},
		{0, 6, 250, 1, 0, 6, 250, 1, 0, 7, 1, 0, 6, 245, 2, 1, 4, 5},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		maint := data[0]%2 == 1
		newModelPair(t, &state.Spare{}, maint).run(data[1:])
		newModelPair(t, returnedModelSpare(t), maint).run(data[1:])
	})
}

// TestReleaseFreesEveryStructure: Context.Release gives back every structure
// built on a run context — a plain table whose partial rows a consumer kept,
// a maintained one, a windowed pre-aggregate's window table, a join — and
// each panics on use after, rather than reading as empty.
func TestReleaseFreesEveryStructure(t *testing.T) {
	build := func(ctx *Context) (plain, maint *AggTable, win *WindowPreAgg, join *HashJoin) {
		var err error
		if plain, err = NewAggTable(ctx, modelIn, modelGroupBy, modelAggs()); err != nil {
			t.Fatal(err)
		}
		if maint, err = NewAggTable(ctx, modelIn, modelGroupBy, modelAggs()); err != nil {
			t.Fatal(err)
		}
		maint.EnableMaintenance()
		if win, err = NewWindowPreAgg(ctx, modelIn, modelGroupBy, modelAggs(), Discard); err != nil {
			t.Fatal(err)
		}
		join = NewHashJoinSized(ctx, rSchema, sSchema, []int{0}, []int{0}, 100, 100, Discard)
		for i := int64(0); i < 3000; i++ {
			row := types.Tuple{types.Int(i % 1100), types.Int(0), types.Int(i)}
			plain.AbsorbRaw(row)
			maint.AbsorbSigned(row, 1)
			win.Push([]types.Tuple{row}, 0)
			join.LeftSink().Push([]types.Tuple{rRow(i, i)}, 0)
		}
		maint.EmitRevisions(func(types.Tuple, int) {})
		if len(plain.EmitPartial()) != 1100 {
			t.Fatal("the plain table lost groups")
		}
		return plain, maint, win, join
	}
	panics := func(use func()) (gone bool) {
		defer func() { gone = recover() != nil }()
		use()
		return false
	}

	ctx := NewRunContext(DefaultCosts())
	plain, maint, win, join := build(ctx)
	if len(ctx.owned) != 4 {
		t.Fatalf("the context recorded %d structures, want 4: two tables, the window's, the join", len(ctx.owned))
	}
	ctx.Release()
	if ctx.Spare != nil || ctx.owned != nil {
		t.Fatal("Release kept the spare or its record")
	}
	for name, use := range map[string]func(){
		"plain Groups":       func() { plain.Groups() },
		"plain AbsorbRaw":    func() { plain.AbsorbRaw(types.Tuple{types.Int(1), types.Int(1), types.Int(1)}) },
		"plain EmitFinal":    func() { finalRows(plain) },
		"plain MergeFrom":    func() { _ = plain.MergeFrom(plain) },
		"maint AbsorbSigned": func() { maint.AbsorbSigned(types.Tuple{types.Int(1), types.Int(1), types.Int(1)}, -1) },
		"window's table":     func() { win.win.Groups() },
		"join Tables":        func() { l, _ := join.Tables(); l.Len() },
	} {
		if !panics(use) {
			t.Errorf("%s after Release: no panic", name)
		}
	}
}
