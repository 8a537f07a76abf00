package exec

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/tukwila/adp/internal/types"
)

// TestExchangePartitioning pins the partitioning contract: every row goes
// to exactly one partition, the assignment agrees between one-row and
// whole batches, equal keys share a partition, and within one batch
// partitions deliver in ascending order with input order preserved.
func TestExchangePartitioning(t *testing.T) {
	const parts = 4
	rows := randTuples(512, 64, 3, rRow)

	routed := make([][]types.Tuple, parts)
	var order []int
	ex := NewExchange(parts, []int{0}, func(p int, ts []types.Tuple) {
		order = append(order, p)
		for _, tp := range ts {
			routed[p] = append(routed[p], tp)
		}
	})

	ex.Push(rows, 0)
	total := 0
	for p := range routed {
		total += len(routed[p])
		for _, tp := range routed[p] {
			if got := ex.PartitionOf(tp); got != p {
				t.Fatalf("row %v in partition %d, PartitionOf says %d", tp, p, got)
			}
		}
	}
	if total != len(rows) {
		t.Fatalf("routed %d rows, want %d", total, len(rows))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("partition delivery order not ascending: %v", order)
		}
	}
	if ex.Counters().In != int64(len(rows)) || ex.Counters().Out != int64(len(rows)) {
		t.Errorf("counters = %+v", ex.Counters())
	}

	// Equal keys share a partition (the join-correctness invariant).
	seen := map[int64]int{}
	for p := range routed {
		for _, tp := range routed[p] {
			if prev, ok := seen[tp[0].I]; ok && prev != p {
				t.Fatalf("key %d split across partitions %d and %d", tp[0].I, prev, p)
			}
			seen[tp[0].I] = p
		}
	}

	// One-row batches agree with the batch path.
	scalar := make([]int, 0, len(rows))
	exS := NewExchange(parts, []int{0}, func(p int, ts []types.Tuple) {
		for range ts {
			scalar = append(scalar, p)
		}
	})
	for _, tp := range rows {
		exS.Push(one(tp), 0)
	}
	for i, tp := range rows {
		if scalar[i] != ex.PartitionOf(tp) {
			t.Fatalf("scalar route %d != batch route %d for %v", scalar[i], ex.PartitionOf(tp), tp)
		}
	}
}

// TestExchangeSteadyStateAllocs pins the routing hot path: after warm-up,
// scattering a batch performs no allocations (the per-partition gather
// buffers are reused; the CI budget allows 2 allocs/op headroom).
func TestExchangeSteadyStateAllocs(t *testing.T) {
	rows := randTuples(256, 32, 9, rRow)
	ex := NewExchange(4, []int{0}, func(int, []types.Tuple) {})
	ex.Push(rows, 0) // warm the scratch buffers
	avg := testing.AllocsPerRun(50, func() { ex.Push(rows, 0) })
	if avg > 0 {
		t.Errorf("Exchange.Push allocates %.1f/op at steady state, want 0", avg)
	}
}

// TestExchangeScratchIsLent: an exchange on a context scatters into scratch
// the context's spare lends, each buffer with room for a whole batch, and
// the run's end gives it back: the next run's exchange scatters in the same
// buffers.
func TestExchangeScratchIsLent(t *testing.T) {
	rows := randTuples(700, 50, 5, rRow)
	scratch := func() []*types.Tuple {
		ctx := NewRunContext(DefaultCosts())
		defer ctx.Release()
		ex := ctx.Exchange(4, []int{0}, func(int, []types.Tuple) {})
		ex.Push(rows, 0)
		var bufs []*types.Tuple
		for p, s := range ex.scratch {
			if cap(s) < len(rows) {
				t.Fatalf("partition %d scattered into room for %d rows, the batch has %d", p, cap(s), len(rows))
			}
			bufs = append(bufs, unsafe.SliceData(s))
		}
		return bufs
	}
	first := scratch()
	for _, buf := range scratch() {
		if !slices.Contains(first, buf) {
			t.Fatal("the next run's exchange did not scatter in the buffers the last run gave back")
		}
	}
}

// BenchmarkExchangePartition tracks the exchange partition path — the
// per-batch scatter cost the parallel driver pays per source run. One op
// routes one 256-row batch across 4 partitions (CI budget: ≤ 2 allocs/op
// per variant). The rows variant scatters a row batch; the columnar
// variant pushes the same rows as a columnar batch through the shim
// benchmark/probes.go times, which transposes it once and scatters rows.
func BenchmarkExchangePartition(b *testing.B) {
	rows := randTuples(256, 64, 11, rRow)
	b.Run("rows", func(b *testing.B) {
		var n int
		ex := NewExchange(4, []int{0}, func(_ int, ts []types.Tuple) { n += len(ts) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.Push(rows, 0)
		}
		_ = n
	})
	b.Run("columnar", func(b *testing.B) {
		cb := types.FromRows(rows, 2)
		var n int
		ex := NewExchange(4, []int{0}, func(_ int, ts []types.Tuple) { n += len(ts) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.PushColBatch(cb)
		}
		_ = n
	})
}
