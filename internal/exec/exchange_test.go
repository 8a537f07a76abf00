package exec

import (
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// TestExchangePartitioning pins the partitioning contract: every row goes
// to exactly one partition, the assignment agrees across row, batch, and
// columnar entries, equal keys share a partition, and within one batch
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

	ex.PushBatch(rows)
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

	// One-row batches and the columnar entry agree with the batch path.
	scalar := make([]int, 0, len(rows))
	exS := NewExchange(parts, []int{0}, func(p int, ts []types.Tuple) {
		for range ts {
			scalar = append(scalar, p)
		}
	})
	for _, tp := range rows {
		exS.PushBatch(one(tp))
	}
	colParts := make([][]types.Tuple, parts)
	exC := NewExchange(parts, []int{0}, func(p int, ts []types.Tuple) {
		colParts[p] = append(colParts[p], ts...)
	})
	cb := types.FromRows(rows, 2)
	exC.PushColBatch(cb)
	for i, tp := range rows {
		if scalar[i] != ex.PartitionOf(tp) {
			t.Fatalf("scalar route %d != batch route %d for %v", scalar[i], ex.PartitionOf(tp), tp)
		}
	}
	for p := range routed {
		if len(colParts[p]) != len(routed[p]) {
			t.Fatalf("columnar partition %d has %d rows, batch %d", p, len(colParts[p]), len(routed[p]))
		}
		for i := range routed[p] {
			if colParts[p][i].String() != routed[p][i].String() {
				t.Fatalf("columnar row %v != batch row %v", colParts[p][i], routed[p][i])
			}
		}
	}
}

// TestExchangeSteadyStateAllocs pins the routing hot path: after warm-up,
// scattering a batch performs no allocations (the per-partition gather
// buffers are reused; the CI budget allows 2 allocs/op headroom).
func TestExchangeSteadyStateAllocs(t *testing.T) {
	rows := randTuples(256, 32, 9, rRow)
	ex := NewExchange(4, []int{0}, func(int, []types.Tuple) {})
	ex.PushBatch(rows) // warm the scratch buffers
	avg := testing.AllocsPerRun(50, func() { ex.PushBatch(rows) })
	if avg > 0 {
		t.Errorf("Exchange.PushBatch allocates %.1f/op at steady state, want 0", avg)
	}
}

// BenchmarkExchangePartition tracks the exchange partition path — the
// per-batch scatter cost the parallel driver pays per source run. One op
// routes one 256-row batch across 4 partitions (CI budget: ≤ 2 allocs/op
// per variant). The rows variant scatters a row batch; the columnar
// variant scatters a columnar frame through the selection-vector Gather
// path (no transpose at the boundary).
func BenchmarkExchangePartition(b *testing.B) {
	rows := randTuples(256, 64, 11, rRow)
	b.Run("rows", func(b *testing.B) {
		var n int
		ex := NewExchange(4, []int{0}, func(_ int, ts []types.Tuple) { n += len(ts) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.PushBatch(rows)
		}
		_ = n
	})
	b.Run("columnar", func(b *testing.B) {
		cb := types.FromRows(rows, 2)
		var n int
		ex := NewExchange(4, []int{0}, func(_ int, ts []types.Tuple) { n += len(ts) })
		ex.RouteCol(func(_ int, fb *types.ColBatch) { n += fb.Len() })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.PushColBatch(cb)
		}
		_ = n
	})
}
