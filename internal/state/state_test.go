package state

import (
	"math/rand"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

var sch = types.NewSchema(
	types.Column{Name: "r.k", Kind: types.KindInt},
	types.Column{Name: "r.v", Kind: types.KindString},
)

func row(k int64, v string) types.Tuple {
	return types.Tuple{types.Int(k), types.Str(v)}
}

func collect(scan func(func(types.Tuple) bool)) []types.Tuple {
	var out []types.Tuple
	scan(func(t types.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func probeAll(k *HashTable, key int64) []types.Tuple {
	var out []types.Tuple
	k.Probe([]types.Value{types.Int(key)}, func(t types.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func TestListBasics(t *testing.T) {
	l := NewList(sch, &Spare{})
	l.Insert(row(2, "b"))
	l.Insert(row(1, "a"))
	if l.Len() != 2 || len(l.Rows()) != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	got := collect(l.Scan)
	if got[0][0].I != 2 || got[1][0].I != 1 {
		t.Error("list should preserve insertion order")
	}
	if l.Schema() != sch {
		t.Error("schema accessor wrong")
	}
	// Early stop.
	n := 0
	l.Scan(func(types.Tuple) bool { n++; return false })
	if n != 1 {
		t.Error("Scan ignored early stop")
	}
}

// testKeyedStructure inserts random duplicate keys into k and checks that
// every probe returns exactly the inserted duplicates and the scan every
// row.
func testKeyedStructure(t *testing.T, name string, k *HashTable) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	want := map[int64]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		key := rng.Int63n(500)
		k.Insert(row(key, "x"))
		want[key]++
	}
	if k.Len() != n {
		t.Fatalf("%s: Len = %d, want %d", name, k.Len(), n)
	}
	// Every key probe returns exactly the inserted duplicates.
	for key, cnt := range want {
		if got := len(probeAll(k, key)); got != cnt {
			t.Fatalf("%s: probe(%d) = %d rows, want %d", name, key, got, cnt)
		}
	}
	// Missing keys return nothing.
	if got := len(probeAll(k, 10_000)); got != 0 {
		t.Fatalf("%s: probe(missing) = %d rows", name, got)
	}
	// Scan visits all tuples.
	if got := len(collect(k.Scan)); got != n {
		t.Fatalf("%s: scan visited %d, want %d", name, got, n)
	}
}

func TestHashTableKeyed(t *testing.T) {
	testKeyedStructure(t, "hash", NewHashTable(sch, []int{0}))
}

func TestHashTableFixedBucketsStillCorrect(t *testing.T) {
	h := NewHashTableSized(sch, []int{0}, 4, &Spare{})
	for i := 0; i < 1000; i++ {
		h.Insert(row(int64(i%37), "x"))
	}
	// 1000 = 37*27 + 1, so key 0 appears 28 times and key 5 appears 27.
	if got := len(probeAll(h, 5)); got != 27 {
		t.Errorf("fixed-bucket probe(5) = %d, want 27", got)
	}
	if got := len(probeAll(h, 0)); got != 28 {
		t.Errorf("fixed-bucket probe(0) = %d, want 28", got)
	}
}

func TestHashTableRehash(t *testing.T) {
	wide := types.NewSchema(
		types.Column{Name: "r.a", Kind: types.KindInt},
		types.Column{Name: "r.b", Kind: types.KindInt},
	)
	h := NewHashTable(wide, []int{0})
	for i := 0; i < 100; i++ {
		h.Insert(types.Tuple{types.Int(int64(i)), types.Int(int64(i % 10))})
	}
	r := IndexList(h.List(), []int{1}, &Spare{})
	if r.Len() != 100 {
		t.Fatalf("rehash lost tuples: %d", r.Len())
	}
	var cnt int
	r.Probe([]types.Value{types.Int(3)}, func(types.Tuple) bool { cnt++; return true })
	if cnt != 10 {
		t.Errorf("rehash probe = %d, want 10", cnt)
	}
}
