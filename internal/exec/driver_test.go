package exec

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// TestDriverBestLeafTieBreak pins the tie rule: when several leaves'
// next tuples are available at the same instant, the lowest-index leaf is
// serviced — and keeps being serviced until a strictly earlier arrival
// appears elsewhere, so same-time sources drain in leaf order.
func TestDriverBestLeafTieBreak(t *testing.T) {
	a := source.NewRelation("a", rSchema, []types.Tuple{rRow(1, 0), rRow(2, 0)})
	b := source.NewRelation("b", sSchema, []types.Tuple{sRow(1, 0), sRow(2, 0)})
	var order []string
	note := func(leaf string) func([]types.Tuple) {
		return func(ts []types.Tuple) {
			for range ts {
				order = append(order, leaf)
			}
		}
	}
	d := NewDriver(NewContext(),
		&Leaf{Provider: source.NewProvider(a, nil), PushBatch: note("a")},
		&Leaf{Provider: source.NewProvider(b, nil), PushBatch: note("b")},
	)
	if best := d.bestLeaf(); best != 0 {
		t.Fatalf("tie must break to lowest index, got %d", best)
	}
	d.Run(0, nil)
	want := []string{"a", "a", "b", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order = %v, want %v", order, want)
		}
	}

	// Less than half a nanosecond apart, two stamps land on one tick, yet
	// the leaves are still ordered by their exact stamps: the higher-index
	// leaf, earlier by 0.3 ns, is delivered first, and each delivery finds
	// the clock at the same tick.
	const at = 1e-3
	ctx := NewContext()
	var seen []string
	stamp := func(leaf string) func([]types.Tuple) {
		return func([]types.Tuple) { seen = append(seen, fmt.Sprintf("%s@%d", leaf, ctx.Clock.Now)) }
	}
	d = NewDriver(ctx,
		&Leaf{Provider: source.NewProvider(source.NewRelation("a", rSchema, []types.Tuple{rRow(1, 0)}), source.Bandwidth{Latency: at + 0.3e-9}), PushBatch: stamp("a")},
		&Leaf{Provider: source.NewProvider(source.NewRelation("b", sSchema, []types.Tuple{sRow(1, 0)}), source.Bandwidth{Latency: at}), PushBatch: stamp("b")},
	)
	d.Run(0, nil)
	if want := []string{"b@1000000", "a@1000000"}; !slices.Equal(seen, want) {
		t.Fatalf("sub-tick deliveries = %v, want %v", seen, want)
	}
}

// TestDriverBatchCapInvariant backs Driver.run's claim that its batch cap
// changes neither the delivery order nor the counters nor the clock: a
// batch only extends over tuples that are already available, so the
// arrivals a capped run advances to are the uncapped run's, and integer
// charges sum to the same reading however they are grouped. Three bursty
// leaves — one filtered, one instrumented — feed a sink that charges per
// batch; every cap the drivers use must read the same.
func TestDriverBatchCapInvariant(t *testing.T) {
	type outcome struct {
		order              []string
		delivered, in, out int64
		read, passed       [3]int64
		now, cpu           int64
	}
	run := func(batchCap int) outcome {
		ctx := NewContext()
		var o outcome
		leaves := make([]*Leaf, 3)
		for i := range leaves {
			rows := randTuples(400, 50, int64(i+1), rRow)
			sched := source.NewBursty(len(rows), 1e7, 16+8*i, 0.002, int64(10+i))
			name := fmt.Sprint(i)
			leaves[i] = &Leaf{
				Provider: source.NewProvider(source.NewRelation(name, rSchema, rows), sched),
				PushBatch: func(ts []types.Tuple) {
					ctx.Clock.Charge(int64(len(ts)) * ctx.Cost.HashInsert)
					for _, t := range ts {
						o.order = append(o.order, name+":"+t.String())
					}
				},
			}
		}
		leaves[1].Pred = func(t types.Tuple) bool { return t[1].I%3 != 0 }
		leaves[2].OnTuple = func(types.Tuple) {}
		d := NewDriver(ctx, leaves...)
		if exhausted, err := d.run(context.Background(), batchCap, 0, nil); !exhausted || err != nil {
			t.Fatalf("cap %d: exhausted=%v err=%v", batchCap, exhausted, err)
		}
		o.delivered, o.in, o.out = d.Delivered, d.counters.In, d.counters.Out
		for i, l := range leaves {
			o.read[i], o.passed[i] = l.Read, l.Passed
		}
		o.now, o.cpu = ctx.Clock.Now, ctx.Clock.CPU
		return o
	}
	base := run(1)
	if len(base.order) == 0 || base.passed[1] == base.read[1] {
		t.Fatalf("fixture delivers %d rows, filters %d of %d", len(base.order), base.read[1]-base.passed[1], base.read[1])
	}
	for _, batchCap := range []int{7, DefaultBatch, ParReadBatch} {
		got := run(batchCap)
		if !slices.Equal(got.order, base.order) {
			t.Fatalf("cap %d: delivery sequence differs from cap 1", batchCap)
		}
		got.order = base.order
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("cap %d: %+v, cap 1 %+v", batchCap, got, base)
		}
	}
}

// TestDriverFutureArrivalsDoNotBlock pins the difference between "next
// tuple is in the future" and "exhausted": a pending-future leaf is still
// the best leaf (the clock jumps forward to it); bestLeaf reports -1 only
// when every source is exhausted, and a run suspended after every tuple
// mirrors that.
func TestDriverFutureArrivalsDoNotBlock(t *testing.T) {
	late := source.NewRelation("late", rSchema, []types.Tuple{rRow(1, 0)})
	later := source.NewRelation("later", sSchema, []types.Tuple{sRow(1, 0)})
	ctx := NewContext()
	d := NewDriver(ctx,
		&Leaf{Provider: source.NewProvider(late, source.Bandwidth{Latency: 5, TuplesPerSec: 1}), PushBatch: func([]types.Tuple) {}},
		&Leaf{Provider: source.NewProvider(later, source.Bandwidth{Latency: 50, TuplesPerSec: 1}), PushBatch: func([]types.Tuple) {}},
	)
	if best := d.bestLeaf(); best != 0 {
		t.Fatalf("earliest future arrival must win, got leaf %d", best)
	}
	// step delivers one tuple; false once the sources are exhausted.
	step := func() bool { return !d.Run(1, func() bool { return true }) }
	if !step() {
		t.Fatal("a run must service a future arrival, not report exhaustion")
	}
	if ctx.Clock.Now < Nanos(5) {
		t.Errorf("clock should jump to the arrival, now=%d", ctx.Clock.Now)
	}
	if best := d.bestLeaf(); best != 1 {
		t.Fatalf("remaining leaf must be chosen, got %d", best)
	}
	if !step() {
		t.Fatal("second step must deliver")
	}
	if best := d.bestLeaf(); best != -1 {
		t.Fatalf("all exhausted must yield -1, got %d", best)
	}
	if step() {
		t.Fatal("a step after exhaustion must report exhaustion")
	}
	if !d.Run(0, nil) {
		t.Fatal("Run over exhausted sources must report exhaustion")
	}
}

// TestDriverPollCadenceExact pins Run's poll arithmetic: poll fires after
// exactly pollEvery delivered tuples even when the interval is smaller
// than, and not a divisor of, the internal batch cap — batches are
// clamped so the monitor never observes a late poll.
func TestDriverPollCadenceExact(t *testing.T) {
	const n = 100
	rows := make([]types.Tuple, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, rRow(int64(i), 0))
	}
	rel := source.NewRelation("r", rSchema, rows)
	for _, every := range []int{1, 7, 64, 100, 1000} {
		d := NewDriver(NewContext(), &Leaf{Provider: source.NewProvider(rel, nil), PushBatch: func([]types.Tuple) {}})
		var at []int64
		exhausted := d.Run(every, func() bool {
			at = append(at, d.Delivered)
			return false
		})
		rel0 := source.NewProvider(rel, nil)
		rel0.Reset()
		if !exhausted {
			t.Fatalf("every=%d: run must exhaust", every)
		}
		want := n / every
		if len(at) != want {
			t.Fatalf("every=%d: %d polls (%v), want %d", every, len(at), at, want)
		}
		for i, got := range at {
			if got != int64((i+1)*every) {
				t.Fatalf("every=%d: poll %d at %d delivered, want %d", every, i, got, (i+1)*every)
			}
		}
		// Fresh provider per interval.
		rel = source.NewRelation("r", rSchema, rows)
	}
}

// TestDriverPollNotCalledWhenNil covers the poll==nil fast path together
// with a tiny batch budget (pollEvery ignored entirely).
func TestDriverPollNotCalledWhenNil(t *testing.T) {
	rel := source.NewRelation("r", rSchema, []types.Tuple{rRow(1, 0), rRow(2, 0)})
	d := NewDriver(NewContext(), &Leaf{Provider: source.NewProvider(rel, nil), PushBatch: func([]types.Tuple) {}})
	if !d.Run(1, nil) || d.Delivered != 2 {
		t.Fatalf("nil-poll run broken: delivered=%d", d.Delivered)
	}
}
