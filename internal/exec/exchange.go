package exec

import (
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// Exchange hash-partitions a tuple stream on a set of key columns and
// hands each partition's rows to a route callback — the partition-parallel
// executor's boundary operator. Partitioning is by key hash modulo the
// partition count, with the same types.HashValue folding the join and
// group-by machinery uses, so two exchanges keyed on transitively equal
// columns send equal keys to the same partition and an exchange keyed on
// an upstream operator's partitioning key routes every row back to its
// own partition (the local fast path: no cross-partition traffic at all).
//
// Within one PushBatch call, partitions are delivered in ascending
// partition order and rows keep their input order inside each partition, so
// single-producer topologies stay fully deterministic. The rows slice handed
// to route is reused across batches and must not be retained (the tuples
// themselves may be).
//
// PushBatch is the entry the engine runs: leaves and boundaries scatter row
// batches. The columnar entry (RouteCol + PushColBatch, same delivery
// discipline) is a kernel no plan is wired to any more; it stays, with its
// tests and alloc budget, for benchmark/probes.go, which times it as
// exec.exchange_scatter_ns_per_row until that probe is re-pointed at
// PushBatch.
//
// Exchange charges nothing to the virtual clock: it models an in-memory
// transfer between pipeline partitions, not one of the paper's costed
// operators. Its wall-clock cost is real and shows up in RealSeconds.
type Exchange struct {
	parts   int
	keyCols []int
	route   func(part int, rows []types.Tuple)

	// routeCol, when installed (RouteCol), receives columnar sub-batches
	// for columnar input.
	routeCol func(part int, b *types.ColBatch)

	// scratch[p] gathers the current batch's rows for partition p.
	scratch [][]types.Tuple

	// Columnar-entry scratch: the batch hash vector (one HashKeys sweep
	// partitions the whole batch), the arena-backed materializer that
	// turns columnar rows into retention-safe tuples (row-route
	// fallback), and the per-partition selection vectors plus gather
	// buffers backing the columnar scatter.
	hashVec    []uint64
	colIn      colDelivery
	sel        [][]int32
	colScratch []*types.ColBatch

	counters stats.OpCounters
}

// NewExchange builds an exchange over parts partitions, keyed on keyCols
// of the input layout. route receives each partition's sub-batch; it is
// invoked synchronously on the pushing goroutine.
func NewExchange(parts int, keyCols []int, route func(part int, rows []types.Tuple)) *Exchange {
	return &Exchange{
		parts:   parts,
		keyCols: keyCols,
		route:   route,
		scratch: make([][]types.Tuple, parts),
	}
}

// RouteCol installs the columnar route: columnar input batches scatter as
// per-partition column gather buffers through it (ascending partition
// order, row order preserved within each partition — the same delivery
// discipline as route). The batch handed to routeCol is reused and must
// not be retained. Row input keeps using route; callers that install
// RouteCol must accept both.
func (e *Exchange) RouteCol(route func(part int, b *types.ColBatch)) {
	e.routeCol = route
}

// Counters exposes routing statistics (In = rows seen, Out = rows routed).
func (e *Exchange) Counters() *stats.OpCounters { return &e.counters }

// PartitionOf returns the partition a tuple's key routes to.
func (e *Exchange) PartitionOf(t types.Tuple) int {
	return partitionOf(t.HashKey(e.keyCols), e.parts)
}

// partitionOf maps a key hash to a partition. The hash is finalized
// (murmur3-style avalanche) before the modulo: downstream hash tables
// index buckets with the raw hash's low bits, so routing on those same
// bits would fold each partition's tuples into 1/P of its table's buckets
// and multiply every probe chain by P. Equal keys still hash equal, so
// the partition assignment stays consistent across exchanges.
func partitionOf(h uint64, parts int) int {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(parts))
}

// PushBatch implements Sink: the batch is scattered into reused
// per-partition buffers and delivered partition by partition (ascending),
// preserving row order within each partition. Steady state performs no
// allocations beyond buffer growth.
//
//adp:hotpath gated by BenchmarkExchangePartition (scripts/check_allocs.sh)
func (e *Exchange) PushBatch(ts []types.Tuple) {
	e.counters.In += int64(len(ts))
	for _, t := range ts {
		p := e.PartitionOf(t)
		e.scratch[p] = append(e.scratch[p], t)
	}
	e.deliver()
}

// PushColBatch implements ColBatchSink: one types.HashKeys sweep hashes
// the whole batch's key columns column-at-a-time (reusing the hash
// vector), and the scatter consumes the precomputed hash lanes — no
// per-row hashing. With a columnar route installed the batch never
// transposes: per-partition selection vectors drive a column-at-a-time
// Gather into reused sub-batch buffers, delivered in ascending partition
// order. Without one, rows are materialized as retention-safe tuples and
// routed as row sub-batches.
//
//adp:hotpath gated by BenchmarkExchangePartition (scripts/check_allocs.sh)
func (e *Exchange) PushColBatch(b *types.ColBatch) {
	n := b.Len()
	if n == 0 {
		return
	}
	e.counters.In += int64(n)
	e.hashVec = types.HashKeys(e.hashVec, b, e.keyCols)
	if e.routeCol == nil {
		rows := e.colIn.materialize(b)
		for i, t := range rows {
			p := partitionOf(e.hashVec[i], e.parts)
			e.scratch[p] = append(e.scratch[p], t)
		}
		e.deliver()
		return
	}
	if e.sel == nil {
		e.sel = make([][]int32, e.parts)
		e.colScratch = make([]*types.ColBatch, e.parts)
	}
	for i := 0; i < n; i++ {
		p := partitionOf(e.hashVec[i], e.parts)
		e.sel[p] = append(e.sel[p], int32(i))
	}
	w := b.Width()
	for p := 0; p < e.parts; p++ {
		sel := e.sel[p]
		if len(sel) == 0 {
			continue
		}
		cb := e.colScratch[p]
		if cb == nil || cb.Width() != w {
			cb = types.NewColBatch(w)
			e.colScratch[p] = cb
		}
		cb.Gather(b, sel)
		e.counters.Out += int64(len(sel))
		e.routeCol(p, cb)
		cb.Reset()
		e.sel[p] = sel[:0]
	}
}

// deliver routes the gathered sub-batches in partition order and resets
// the scratch buffers for reuse (cleared so routed tuples are not pinned).
func (e *Exchange) deliver() {
	for p := 0; p < e.parts; p++ {
		rows := e.scratch[p]
		if len(rows) == 0 {
			continue
		}
		e.counters.Out += int64(len(rows))
		e.route(p, rows)
		clear(rows)
		e.scratch[p] = rows[:0]
	}
}
