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
// Exchange charges nothing to the virtual clock: it models an in-memory
// transfer between pipeline partitions, not one of the paper's costed
// operators. Its wall-clock cost is real and shows up in RealSeconds.
type Exchange struct {
	parts   int
	keyCols []int
	route   func(part int, rows []types.Tuple)

	// scratch[p] gathers the current batch's rows for partition p.
	scratch [][]types.Tuple
	colIn   colDelivery // PushColBatch's materializer (colbatch.go)

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
