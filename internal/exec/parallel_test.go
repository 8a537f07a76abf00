package exec

import (
	"context"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// parJoinFixture assembles a P-partition pipelined hash join driven by a
// ParallelDriver: every partition owns a join clone (its own context and
// tables), leaves scatter on the key column, finish runs both sides'
// finishers, and each partition's output lands in a merge buffer.
type parJoinFixture struct {
	pd    *ParallelDriver
	joins []*HashJoin
	merge *PartitionMerge
}

func newParJoinFixture(parts int) *parJoinFixture {
	ctxs := make([]*Context, parts)
	joins := make([]*HashJoin, parts)
	merge := NewPartitionMerge(parts)
	handlers := make([][]Sink, parts)
	for p := 0; p < parts; p++ {
		ctxs[p] = NewContext()
		joins[p] = NewHashJoin(ctxs[p], Pipelined, rSchema, sSchema, []int{0}, []int{0}, merge.Sink(p))
		handlers[p] = []Sink{joins[p].LeftSink(), joins[p].RightSink()}
	}
	pd := NewParallelDriver(NewContext(), ctxs)
	pd.Bind(handlers, nil, 0)
	return &parJoinFixture{pd: pd, joins: joins, merge: merge}
}

func (f *parJoinFixture) leaves(ls, rs []types.Tuple) []*Leaf {
	lrel := source.NewRelation("r", rSchema, ls)
	rrel := source.NewRelation("s", sSchema, rs)
	scl := f.pd.LeafScatter(0, []int{0})
	scr := f.pd.LeafScatter(1, []int{0})
	return []*Leaf{
		{Provider: source.NewProvider(lrel, nil), PushBatch: Feed(scl)},
		{Provider: source.NewProvider(rrel, nil), PushBatch: Feed(scr)},
	}
}

// TestParallelDriverJoinMatchesSerial pins the exec-level contract: a
// 4-partition pipelined join produces the serial join's output multiset,
// its per-partition counters sum to the serial counters, and the
// partition clocks carry the work.
func TestParallelDriverJoinMatchesSerial(t *testing.T) {
	ls := randTuples(4000, 300, 21, rRow)
	rs := randTuples(3000, 300, 22, sRow)

	// Serial reference.
	sctx := NewContext()
	ssink := &collectSink{}
	sj := NewHashJoin(sctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, ssink)
	sd := NewDriver(sctx,
		&Leaf{Provider: source.NewProvider(source.NewRelation("r", rSchema, ls), nil), PushBatch: Feed(sj.LeftSink())},
		&Leaf{Provider: source.NewProvider(source.NewRelation("s", sSchema, rs), nil), PushBatch: Feed(sj.RightSink())},
	)
	sd.Run(0, nil)

	f := newParJoinFixture(4)
	if exhausted, err := f.pd.RunContext(context.Background(), f.leaves(ls, rs), 0, nil); err != nil || !exhausted {
		t.Fatal("parallel run did not exhaust")
	}
	f.pd.Finish()
	f.pd.Close()

	got := &collectSink{}
	f.merge.Drain(got)
	a := make([]string, len(ssink.rows))
	for i, r := range ssink.rows {
		a[i] = r.String()
	}
	b := make([]string, len(got.rows))
	for i, r := range got.rows {
		b[i] = r.String()
	}
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		t.Fatalf("parallel join rows = %d, serial %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("multiset mismatch at %d: %s vs %s", i, b[i], a[i])
		}
	}
	var in, out int64
	var cpu int64
	for p, j := range f.joins {
		c := j.Counters()
		in += c.In
		out += c.Out
		if ctx := f.pd.PartitionContexts()[p]; ctx.Clock.CPU <= 0 {
			t.Errorf("partition %d charged no CPU", p)
		}
		cpu += f.pd.PartitionContexts()[p].Clock.CPU
	}
	if in != sj.Counters().In || out != sj.Counters().Out {
		t.Errorf("counter sums in=%d out=%d, serial in=%d out=%d", in, out, sj.Counters().In, sj.Counters().Out)
	}
	if cpu <= 0 {
		t.Error("no partition CPU accumulated")
	}
	if f.pd.Delivered() != sd.Delivered {
		t.Errorf("delivered = %d, serial %d", f.pd.Delivered(), sd.Delivered)
	}
}

// TestParallelDriverPollSeesQuiescedState pins the monitor contract: when
// poll runs, every delivered tuple has been fully absorbed by the
// partition pipelines (input counters sum to the delivered count), and
// returning true suspends with exhausted=false.
func TestParallelDriverPollSeesQuiescedState(t *testing.T) {
	ls := randTuples(2000, 100, 31, rRow)
	rs := randTuples(2000, 100, 32, sRow)
	f := newParJoinFixture(3)
	polls := 0
	exhausted, _ := f.pd.RunContext(context.Background(), f.leaves(ls, rs), 500, func() bool {
		polls++
		var in int64
		for _, j := range f.joins {
			in += j.Counters().In
		}
		if in != f.pd.Delivered() {
			t.Fatalf("poll %d: pipelines absorbed %d of %d delivered — not quiesced", polls, in, f.pd.Delivered())
		}
		return polls == 3
	})
	if exhausted {
		t.Fatal("run should have suspended at the third poll")
	}
	if f.pd.Delivered() != 1500 {
		t.Errorf("delivered at suspension = %d, want 1500", f.pd.Delivered())
	}
	f.pd.Finish()
	f.pd.Close()
}

// TestParallelDriverStageSend exercises the worker-side cross-partition
// path: a second stage keyed on a different column, fed through StageSend
// from each partition's first stage, must see every first-stage output
// exactly once.
func TestParallelDriverStageSend(t *testing.T) {
	const parts = 4
	ls := randTuples(3000, 64, 41, rRow)

	ctxs := make([]*Context, parts)
	var stage2Got atomic.Int64
	handlers := make([][]Sink, parts)
	exchanges := make([]*Exchange, parts)
	var pd *ParallelDriver
	for p := 0; p < parts; p++ {
		p := p
		ctxs[p] = NewContext()
		// Stage 2 entry (entry id 1+1=2... entries: leaf=0, stage2=1).
		stage2 := SinkFunc(func(ts []types.Tuple, _ int) { stage2Got.Add(int64(len(ts))) })
		// Stage 1: re-key every row on column 1 (distinct from the leaf
		// scatter key), exchanging across partitions.
		exchanges[p] = NewExchange(parts, []int{1}, func(dst int, rows []types.Tuple) {
			if dst == p {
				stage2.Push(rows, 0)
				return
			}
			pd.StageSend(p, dst, 1, rows)
		})
		handlers[p] = []Sink{
			exchanges[p], // entry 0: leaf
			stage2,       // entry 1: repartitioned stage
		}
	}
	pd = NewParallelDriver(NewContext(), ctxs)
	pd.Bind(handlers, func(int, int) {}, 1)
	sc := pd.LeafScatter(0, []int{0})
	rel := source.NewRelation("r", rSchema, ls)
	leaves := []*Leaf{{Provider: source.NewProvider(rel, nil), PushBatch: Feed(sc)}}
	if exhausted, err := pd.RunContext(context.Background(), leaves, 0, nil); err != nil || !exhausted {
		t.Fatal("run did not exhaust")
	}
	pd.Finish()
	pd.Close()
	if got := stage2Got.Load(); got != int64(len(ls)) {
		t.Fatalf("stage 2 saw %d rows, want %d", got, len(ls))
	}
}

// BenchmarkPartitionMergeRelease tracks the order-releasing root path:
// one op pushes a 256-row batch into partition 0 and releases it
// downstream (the mid-phase streaming flush the monitor performs at every
// poll). The buffer is reused once released, so the budget pinned in
// scripts/check_allocs.sh holds the whole push-and-release cycle near zero
// allocations.
func BenchmarkPartitionMergeRelease(b *testing.B) {
	rows := randTuples(256, 64, 13, rRow)
	merge := NewPartitionMerge(4)
	sink := merge.Sink(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Push(rows, 0)
		merge.ReleasePrefix(Discard)
	}
	b.StopTimer()
	if merge.Released() != 256*b.N {
		b.Fatalf("released %d rows, want %d", merge.Released(), 256*b.N)
	}
}

// TestPartitionMergeEarlyReleaseKeepsTotalOrder pins the prefix property
// of the order-releasing merge: whatever ReleasePrefix hands out mid-phase
// — partition 0's rows so far, which are final whatever the other
// partitions still produce — followed by the phase-end Drain, is the
// sequence a single Drain over the same pushes would have produced:
// partition order, append order within a partition. Streaming root output
// early therefore never changes the result order, which is why a streamed
// run needs no retained copy of its rows to compare against.
func TestPartitionMergeEarlyReleaseKeepsTotalOrder(t *testing.T) {
	const parts = 3
	row := func(p, i int) types.Tuple { return types.Tuple{types.Int(int64(p)), types.Int(int64(i))} }
	// steps interleave pushes (partition, row count) with release points.
	type step struct {
		push, n int
		release bool
	}
	steps := []step{
		{push: 1, n: 3}, {push: 0, n: 2}, {release: true},
		{push: 2, n: 4}, {push: 0, n: 3}, {release: true},
		{release: true}, {push: 1, n: 2}, {release: true},
		{push: 2, n: 1}, {push: 0, n: 1}, {release: true},
		{push: 2, n: 2},
	}
	var streamed []string // rows the early run released before its drain
	run := func(early bool) []string {
		merge := NewPartitionMerge(parts)
		var got []string
		out := SinkFunc(func(ts []types.Tuple, _ int) {
			for _, tp := range ts {
				got = append(got, tp.String())
			}
		})
		next := make([]int, parts)
		for _, s := range steps {
			switch {
			case s.n > 0:
				batch := make([]types.Tuple, s.n)
				for i := range batch {
					batch[i] = row(s.push, next[s.push])
					next[s.push]++
				}
				merge.Sink(s.push).Push(batch, 0)
			case s.release && early:
				merge.ReleasePrefix(out)
			}
		}
		streamed = append([]string(nil), got...)
		merge.Drain(out)
		if merge.Len() != len(got) || merge.Released() != len(got) {
			t.Fatalf("buffered %d and released %d rows, delivered %d", merge.Len(), merge.Released(), len(got))
		}
		return got
	}
	want, got := run(false), run(true)
	if len(want) != 18 {
		t.Fatalf("single drain delivered %d rows, want 18", len(want))
	}
	if len(streamed) != 6 {
		t.Fatalf("early run released %d rows before its drain, want partition 0's 6", len(streamed))
	}
	if len(got) != len(want) {
		t.Fatalf("early release delivered %d rows, single drain %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: early release %s, single drain %s", i, got[i], want[i])
		}
	}
}
