package state

import (
	"testing"

	"github.com/tukwila/adp/internal/types"
)

func kvTuple(k, v int64) types.Tuple { return types.Tuple{types.Int(k), types.Int(v)} }

func kvSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "t.k", Kind: types.KindInt},
		types.Column{Name: "t.v", Kind: types.KindInt},
	)
}

// TestInsertHashedBatchMatchesScalar pins the batched insert to the
// scalar path: same tuples in the same order must produce identical
// bucket counts, growth decisions, and probe results.
func TestInsertHashedBatchMatchesScalar(t *testing.T) {
	const n = 20000
	rows := make([]types.Tuple, n)
	hashes := make([]uint64, n)
	for i := range rows {
		rows[i] = kvTuple(int64(i%977), int64(i))
		hashes[i] = rows[i].HashKey([]int{0})
	}
	scalar := NewHashTable(kvSchema(), []int{0})
	for i, r := range rows {
		scalar.InsertHashed(hashes[i], r)
	}
	batched := NewHashTable(kvSchema(), []int{0})
	for i := 0; i < n; i += 130 {
		end := min(i+130, n)
		batched.InsertHashedBatch(hashes[i:end], rows[i:end])
	}
	if scalar.Len() != batched.Len() || scalar.Buckets() != batched.Buckets() {
		t.Fatalf("len/buckets diverge: (%d,%d) vs (%d,%d)",
			scalar.Len(), scalar.Buckets(), batched.Len(), batched.Buckets())
	}
	key := types.Tuple{types.Int(37)}
	h := key.HashKey(types.Identity(1))
	var got, want []string
	scalar.ProbeHashed(h, key, func(m types.Tuple) bool { want = append(want, m.String()); return true })
	batched.ProbeHashed(h, key, func(m types.Tuple) bool { got = append(got, m.String()); return true })
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("probe results diverge: %d vs %d matches", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("probe match %d differs: %s vs %s", i, got[i], want[i])
		}
	}
}

// TestProbeHashedBatchMatchesScalar drives a batch of probes through the
// batched driver and checks row attribution and match order against
// per-row ProbeHashed calls.
func TestProbeHashedBatchMatchesScalar(t *testing.T) {
	h := allocTestTable(8192)
	keys := make([]types.Tuple, 64)
	hashes := make([]uint64, 64)
	for i := range keys {
		keys[i] = kvTuple(int64(i*13%512), 0)
		hashes[i] = keys[i].HashKey([]int{0})
	}
	type hit struct {
		row int
		m   string
	}
	var got, want []hit
	for i, k := range keys {
		h.ProbeHashed(hashes[i], types.Tuple{k[0]}, func(m types.Tuple) bool {
			want = append(want, hit{i, m.String()})
			return true
		})
	}
	h.ProbeHashedBatch(hashes, keys, []int{0}, func(row int, m types.Tuple) bool {
		got = append(got, hit{row, m.String()})
		return true
	})
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("batched probe found %d matches, scalar %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestProbeHashedBatchZeroAllocs pins the batched probe driver at zero
// steady-state allocations.
func TestProbeHashedBatchZeroAllocs(t *testing.T) {
	h := allocTestTable(8192)
	keys := []types.Tuple{kvTuple(37, 0), kvTuple(41, 0), kvTuple(99, 0)}
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = k.HashKey([]int{0})
	}
	found := 0
	fn := func(int, types.Tuple) bool { found++; return true }
	allocs := testing.AllocsPerRun(500, func() {
		h.ProbeHashedBatch(hashes, keys, []int{0}, fn)
	})
	if allocs != 0 {
		t.Fatalf("ProbeHashedBatch allocates %v per run, want 0", allocs)
	}
	if found == 0 {
		t.Fatal("batched probe matched nothing")
	}
}
