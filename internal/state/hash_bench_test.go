package state

import (
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// BenchmarkHashTableProbe tracks the probe hot path's time and
// allocations: the plain Probe call, which hashes the key, vs the
// precomputed-hash fast path a pipelined join uses.
func BenchmarkHashTableProbe(b *testing.B) {
	h := allocTestTable(1 << 16)
	key := []types.Value{types.Int(123)}
	fn := func(types.Tuple) bool { return true }

	b.Run("probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Probe(key, fn)
		}
	})
	b.Run("probe-hashed", func(b *testing.B) {
		b.ReportAllocs()
		tup := types.Tuple(key)
		hash := tup.HashKey(types.Identity(1))
		for i := 0; i < b.N; i++ {
			h.ProbeHashed(hash, tup, fn)
		}
	})
}

// BenchmarkHashTableInsert tracks what a build costs per row, the rows
// themselves made beforehand: a growing table (chunk allocation plus every
// grow's re-link, amortized) and a fixed one sized a quarter of its input,
// the regime of a join table built from an under-estimate. Both round to
// zero allocations per row.
func BenchmarkHashTableInsert(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "t.k", Kind: types.KindInt},
		types.Column{Name: "t.v", Kind: types.KindInt},
	)
	run := func(b *testing.B, mk func(n int) *HashTable) {
		rows := make([]types.Tuple, b.N)
		for i := range rows {
			rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i))}
		}
		b.ReportAllocs()
		b.ResetTimer()
		h := mk(b.N)
		for _, r := range rows {
			h.Insert(r)
		}
	}
	b.Run("growing", func(b *testing.B) {
		run(b, func(int) *HashTable { return NewHashTable(schema, []int{0}) })
	})
	b.Run("fixed", func(b *testing.B) {
		run(b, func(n int) *HashTable {
			h := NewHashTableSized(schema, []int{0}, n/4, &Spare{})
			return h
		})
	})
}
