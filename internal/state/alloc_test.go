package state

import (
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// allocTestTable builds a hash table with a realistic fill (forcing a few
// grow() cycles) for the allocation-regression tests.
func allocTestTable(n int) *HashTable {
	schema := types.NewSchema(
		types.Column{Name: "t.k", Kind: types.KindInt},
		types.Column{Name: "t.v", Kind: types.KindInt},
	)
	h := NewHashTable(schema, []int{0})
	for i := 0; i < n; i++ {
		h.Insert(types.Tuple{types.Int(int64(i % 512)), types.Int(int64(i))})
	}
	return h
}

// TestProbeZeroAllocs pins Probe's steady-state allocations at zero: the
// identity index slice is shared, not rebuilt per call.
func TestProbeZeroAllocs(t *testing.T) {
	h := allocTestTable(8192)
	key := []types.Value{types.Int(37)}
	found := 0
	fn := func(types.Tuple) bool { found++; return true }
	allocs := testing.AllocsPerRun(1000, func() {
		h.Probe(key, fn)
	})
	if allocs != 0 {
		t.Fatalf("Probe allocates %v per run, want 0", allocs)
	}
	if found == 0 {
		t.Fatal("probe matched nothing")
	}
}

// TestProbeHashedZeroAllocs pins the precomputed-hash fast path at zero
// steady-state allocations.
func TestProbeHashedZeroAllocs(t *testing.T) {
	h := allocTestTable(8192)
	key := types.Tuple{types.Int(41)}
	hash := key.HashKey(types.Identity(1))
	found := 0
	fn := func(types.Tuple) bool { found++; return true }
	allocs := testing.AllocsPerRun(1000, func() {
		h.ProbeHashed(hash, key, fn)
	})
	if allocs != 0 {
		t.Fatalf("ProbeHashed allocates %v per run, want 0", allocs)
	}
	if found == 0 {
		t.Fatal("hashed probe matched nothing")
	}
}

// TestChainLenZeroAllocs pins ChainLen (the monitor's collision signal,
// charged on every probe) at zero steady-state allocations.
func TestChainLenZeroAllocs(t *testing.T) {
	h := allocTestTable(8192)
	key := []types.Value{types.Int(3)}
	allocs := testing.AllocsPerRun(1000, func() {
		if h.ChainLen(key) == 0 {
			t.Fatal("empty chain for present key")
		}
	})
	if allocs != 0 {
		t.Fatalf("ChainLen allocates %v per run, want 0", allocs)
	}
}

// TestListInsertBatchAmortizedAllocs pins the bulk-append path the
// batched tee/leaf sinks use: appending a 64-tuple batch costs at most
// one (amortized) allocation — the backing-array growth — never
// per-tuple.
func TestListInsertBatchAmortizedAllocs(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "t.k", Kind: types.KindInt})
	l := NewList(schema, &Spare{})
	batch := make([]types.Tuple, 64)
	for i := range batch {
		batch[i] = types.Tuple{types.Int(int64(i))}
	}
	allocs := testing.AllocsPerRun(200, func() {
		l.InsertBatch(batch)
	})
	if allocs > 1 {
		t.Fatalf("InsertBatch allocates %v per 64-tuple batch, want <= 1 amortized", allocs)
	}
}

// TestInsertHashedAmortizedAllocs pins the build-side insert the batched
// MergeJoin/HashJoin paths use (hash computed once by the caller): at
// steady state the entry append plus occasional grow() must stay at or
// under one allocation per insert on average.
func TestInsertHashedAmortizedAllocs(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "t.k", Kind: types.KindInt},
		types.Column{Name: "t.v", Kind: types.KindInt},
	)
	h := NewHashTable(schema, []int{0})
	rows := make([]types.Tuple, 1<<14)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 512)), types.Int(int64(i))}
	}
	n := 0
	allocs := testing.AllocsPerRun(len(rows)-1, func() {
		tp := rows[n%len(rows)]
		h.InsertHashed(tp.HashKey([]int{0}), tp)
		n++
	})
	if allocs > 1 {
		t.Fatalf("InsertHashed allocates %v per insert, want <= 1 amortized", allocs)
	}
}

// TestInsertHashedMatchesInsert verifies the hashed insert and the grow()
// re-bucketing agree with the plain path: every inserted tuple remains
// probe-able and counts match.
func TestInsertHashedMatchesInsert(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "t.k", Kind: types.KindInt},
		types.Column{Name: "t.v", Kind: types.KindInt},
	)
	a := NewHashTable(schema, []int{0})
	b := NewHashTable(schema, []int{0})
	const n = 10000 // forces several grow() doublings past the 1024 default
	for i := 0; i < n; i++ {
		tp := types.Tuple{types.Int(int64(i % 777)), types.Int(int64(i))}
		a.Insert(tp)
		b.InsertHashed(tp.HashKey([]int{0}), tp)
	}
	if a.Len() != n || b.Len() != n {
		t.Fatalf("lengths: %d, %d, want %d", a.Len(), b.Len(), n)
	}
	if a.Buckets() != b.Buckets() {
		t.Fatalf("bucket counts diverge: %d vs %d", a.Buckets(), b.Buckets())
	}
	for k := int64(0); k < 777; k++ {
		ca, cb := 0, 0
		a.Probe([]types.Value{types.Int(k)}, func(types.Tuple) bool { ca++; return true })
		b.Probe([]types.Value{types.Int(k)}, func(types.Tuple) bool { cb++; return true })
		if ca != cb || ca == 0 {
			t.Fatalf("key %d: %d vs %d matches", k, ca, cb)
		}
	}
}
