package exec

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

var (
	rSchema = types.NewSchema(
		types.Column{Name: "r.k", Kind: types.KindInt},
		types.Column{Name: "r.a", Kind: types.KindInt},
	)
	sSchema = types.NewSchema(
		types.Column{Name: "s.k", Kind: types.KindInt},
		types.Column{Name: "s.b", Kind: types.KindInt},
	)
)

func rRow(k, a int64) types.Tuple { return types.Tuple{types.Int(k), types.Int(a)} }
func sRow(k, b int64) types.Tuple { return types.Tuple{types.Int(k), types.Int(b)} }

// collectSink gathers output tuples.
type collectSink struct{ rows []types.Tuple }

func (c *collectSink) Push(ts []types.Tuple, _ int) { c.rows = append(c.rows, ts...) }

// one is a tuple as the batch of one it travels as.
func one(t types.Tuple) []types.Tuple { return []types.Tuple{t} }

// joinReference computes the expected equijoin result size via nested
// loops over raw slices.
func joinReference(ls, rs []types.Tuple) int {
	n := 0
	for _, l := range ls {
		for _, r := range rs {
			if l[0].I == r[0].I {
				n++
			}
		}
	}
	return n
}

func randTuples(n int, dom int64, seed int64, mk func(k, v int64) types.Tuple) []types.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]types.Tuple, n)
	for i := range out {
		out[i] = mk(rng.Int63n(dom), int64(i))
	}
	return out
}

func runJoinBothSides(j *HashJoin, ls, rs []types.Tuple, interleave bool) {
	if interleave {
		i, k := 0, 0
		for i < len(ls) || k < len(rs) {
			if i < len(ls) {
				j.LeftSink().Push(one(ls[i]), 0)
				i++
			}
			if k < len(rs) {
				j.RightSink().Push(one(rs[k]), 0)
				k++
			}
		}
	} else {
		for _, r := range rs {
			j.RightSink().Push(one(r), 0)
		}
		for _, l := range ls {
			j.LeftSink().Push(one(l), 0)
		}
	}
}

// TestJoinStylesAgree: the join's output does not depend on whether its
// inputs interleave or one arrives whole before the other.
func TestJoinStylesAgree(t *testing.T) {
	ls := randTuples(300, 50, 1, rRow)
	rs := randTuples(200, 50, 2, sRow)
	want := joinReference(ls, rs)
	for _, interleave := range []bool{true, false} {
		ctx := NewContext()
		sink := &collectSink{}
		j := NewHashJoin(ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, sink)
		runJoinBothSides(j, ls, rs, interleave)
		if got := len(sink.rows); got != want {
			t.Errorf("interleave=%v: %d rows, want %d", interleave, got, want)
		}
		if j.Counters().Out != int64(want) {
			t.Errorf("interleave=%v: Out counter %d, want %d", interleave, j.Counters().Out, want)
		}
		if ctx.Clock.CPU <= 0 {
			t.Error("no CPU charged")
		}
	}
}

func TestJoinOutputLayout(t *testing.T) {
	ctx := NewContext()
	sink := &collectSink{}
	j := NewHashJoin(ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, sink)
	if j.Schema().Len() != 4 || j.Schema().Cols[2].Name != "s.k" {
		t.Fatalf("join schema = %v", j.Schema())
	}
	j.LeftSink().Push(one(rRow(1, 10)), 0)
	j.RightSink().Push(one(sRow(1, 20)), 0)
	if len(sink.rows) != 1 {
		t.Fatal("no output")
	}
	got := sink.rows[0]
	if got[0].I != 1 || got[1].I != 10 || got[2].I != 1 || got[3].I != 20 {
		t.Errorf("output layout wrong: %v", got)
	}
	l, r := j.Tables()
	if l.Len() != 1 || r.Len() != 1 {
		t.Error("state structures not buffered")
	}
	if j.Counters().InLeft != 1 || j.Counters().InRight != 1 {
		t.Error("side counters wrong")
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	// Sorted key-FK inputs with duplicates on the FK side.
	var ls, rs []types.Tuple
	for k := int64(0); k < 100; k++ {
		ls = append(ls, rRow(k, k))
	}
	rng := rand.New(rand.NewSource(3))
	var keys []int64
	for i := 0; i < 400; i++ {
		keys = append(keys, rng.Int63n(120)) // some keys unmatched
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		rs = append(rs, sRow(k, int64(i)))
	}
	want := joinReference(ls, rs)

	ctx := NewContext()
	sink := &collectSink{}
	m := NewMergeJoin(ctx, rSchema, sSchema, []int{0}, []int{0}, sink)
	// Interleave pushes (availability-style).
	i, k := 0, 0
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			if err := m.push(true, one(ls[i])); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if k < len(rs) {
			if err := m.push(false, one(rs[k])); err != nil {
				t.Fatal(err)
			}
			k++
		}
	}
	m.FinishLeft()
	m.FinishRight()
	if got := len(sink.rows); got != want {
		t.Errorf("merge join: %d rows, want %d", got, want)
	}
	lt, rt := m.Tables()
	if lt.Len() != len(ls) || rt.Len() != len(rs) {
		t.Error("merge join must buffer consumed tuples")
	}
	if m.Counters().Out != int64(want) {
		t.Error("counters wrong")
	}
}

func TestMergeJoinDuplicatesBothSides(t *testing.T) {
	ctx := NewContext()
	sink := &collectSink{}
	m := NewMergeJoin(ctx, rSchema, sSchema, []int{0}, []int{0}, sink)
	for _, k := range []int64{5, 5, 7} {
		if err := m.push(true, one(rRow(k, 0))); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int64{5, 5, 5, 7} {
		if err := m.push(false, one(sRow(k, 0))); err != nil {
			t.Fatal(err)
		}
	}
	m.FinishLeft()
	m.FinishRight()
	if len(sink.rows) != 2*3+1 {
		t.Errorf("dup join = %d rows, want 7", len(sink.rows))
	}
}

func TestMergeJoinRejectsOutOfOrder(t *testing.T) {
	ctx := NewContext()
	m := NewMergeJoin(ctx, rSchema, sSchema, []int{0}, []int{0}, &collectSink{})
	if err := m.push(true, one(rRow(5, 0))); err != nil {
		t.Fatal(err)
	}
	if err := m.push(true, one(rRow(3, 0))); err == nil {
		t.Error("out-of-order push must error")
	}
}

func TestDriverAvailabilityOrder(t *testing.T) {
	// Two sources: fast one delivers all at t=0; slow one at 1 tuple/sec.
	fast := source.NewRelation("fast", rSchema, []types.Tuple{rRow(1, 0), rRow(2, 0)})
	slow := source.NewRelation("slow", sSchema, []types.Tuple{sRow(1, 0), sRow(2, 0)})
	pf := source.NewProvider(fast, nil)
	ps := source.NewProvider(slow, source.Bandwidth{TuplesPerSec: 1})

	var order []string
	note := func(leaf string) func([]types.Tuple) {
		return func(ts []types.Tuple) {
			for range ts {
				order = append(order, leaf)
			}
		}
	}
	ctx := NewContext()
	d := NewDriver(ctx,
		&Leaf{Provider: pf, PushBatch: note("fast")},
		&Leaf{Provider: ps, PushBatch: note("slow")},
	)
	if !d.Run(0, nil) {
		t.Fatal("Run should exhaust")
	}
	wantOrder := []string{"fast", "fast", "slow", "slow"}
	for i, w := range wantOrder {
		if order[i] != w {
			t.Fatalf("delivery order = %v", order)
		}
	}
	if ctx.Clock.Now < Nanos(2) {
		t.Errorf("clock should advance to last arrival, got %d", ctx.Clock.Now)
	}
	if d.Delivered != 4 {
		t.Error("Delivered wrong")
	}
	if len(d.Leaves()) != 2 {
		t.Error("Leaves accessor wrong")
	}
}

func TestDriverFilterAndInstrumentation(t *testing.T) {
	rel := source.NewRelation("r", rSchema, []types.Tuple{rRow(1, 0), rRow(2, 0), rRow(3, 0)})
	p := source.NewProvider(rel, nil)
	var pushed, observed int
	ctx := NewContext()
	leaf := &Leaf{
		Provider:  p,
		PushBatch: func(ts []types.Tuple) { pushed += len(ts) },
		Pred:      func(t types.Tuple) bool { return t[0].I%2 == 1 },
		OnTuple:   func(types.Tuple) { observed++ },
	}
	d := NewDriver(ctx, leaf)
	d.Run(0, nil)
	if pushed != 2 || observed != 3 {
		t.Errorf("pushed=%d observed=%d", pushed, observed)
	}
	if leaf.Read != 3 || leaf.Passed != 2 {
		t.Error("leaf counters wrong")
	}
	// Instrumentation charged overhead.
	if ctx.Clock.CPU < 3*ctx.Cost.HistUpdate {
		t.Error("instrumentation cost not charged")
	}
}

func TestDriverPollSuspends(t *testing.T) {
	rel := source.NewRelation("r", rSchema, make([]types.Tuple, 0, 100))
	for i := 0; i < 100; i++ {
		rel.Rows = append(rel.Rows, rRow(int64(i), 0))
	}
	p := source.NewProvider(rel, nil)
	ctx := NewContext()
	d := NewDriver(ctx, &Leaf{Provider: p, PushBatch: func([]types.Tuple) {}})
	polls := 0
	exhausted := d.Run(10, func() bool {
		polls++
		return polls == 3 // suspend at third poll
	})
	if exhausted {
		t.Fatal("run should have suspended")
	}
	if d.Delivered != 30 {
		t.Errorf("Delivered = %d, want 30", d.Delivered)
	}
	// Resume consumes the rest.
	exhausted = d.Run(10, nil)
	if !exhausted || d.Delivered != 100 {
		t.Errorf("resume failed: exhausted=%v delivered=%d", exhausted, d.Delivered)
	}
}

func TestClockSemantics(t *testing.T) {
	c := &Clock{}
	c.AdvanceTo(5)
	c.AdvanceTo(3) // no going back
	if c.Now != 5 {
		t.Error("AdvanceTo wrong")
	}
	c.Charge(2)
	if c.Now != 7 || c.CPU != 2 {
		t.Error("Charge wrong")
	}
}

// TestDefaultCostsInSeconds pins every default cost, read in seconds as the
// optimizer reads it, to the seconds literal the model held before it
// counted nanoseconds: plans and their costs stay bit for bit.
func TestDefaultCostsInSeconds(t *testing.T) {
	cm := DefaultCosts()
	for _, c := range []struct {
		name string
		ns   int64
		sec  float64
	}{
		{"HashInsert", cm.HashInsert, 1.0e-6},
		{"HashProbe", cm.HashProbe, 1.1e-6},
		{"Compare", cm.Compare, 0.25e-6},
		{"Move", cm.Move, 0.3e-6},
		{"AggUpdate", cm.AggUpdate, 0.8e-6},
		{"HistUpdate", cm.HistUpdate, 1.4e-6},
	} {
		if got := Seconds(c.ns); got != c.sec {
			t.Errorf("%s: %d ns reads %v s, want %v", c.name, c.ns, got, c.sec)
		}
	}
}
