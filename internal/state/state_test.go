package state

import (
	"math/rand"
	"sort"
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

func collect(s Structure) []types.Tuple {
	var out []types.Tuple
	s.Scan(func(t types.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func probeAll(k Keyed, key int64) []types.Tuple {
	var out []types.Tuple
	k.Probe([]types.Value{types.Int(key)}, func(t types.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func TestListBasics(t *testing.T) {
	l := NewList(sch)
	l.Insert(row(2, "b"))
	l.Insert(row(1, "a"))
	if l.Len() != 2 || len(l.Rows()) != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	got := collect(l)
	if got[0][0].I != 2 || got[1][0].I != 1 {
		t.Error("list should preserve insertion order")
	}
	if l.Properties().KeyAccess {
		t.Error("list must not advertise key access")
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

func testKeyedStructure(t *testing.T, name string, mk func() Keyed, ordered bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	k := mk()
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
	if got := len(collect(k)); got != n {
		t.Fatalf("%s: scan visited %d, want %d", name, got, n)
	}
	if ordered {
		var prev int64 = -1
		k.Scan(func(tp types.Tuple) bool {
			if tp[0].I < prev {
				t.Fatalf("%s: scan out of order: %d after %d", name, tp[0].I, prev)
			}
			prev = tp[0].I
			return true
		})
	}
}

func TestSortedListKeyed(t *testing.T) {
	testKeyedStructure(t, "sortedlist", func() Keyed { return NewSortedList(sch, []int{0}) }, true)
}

func TestHashTableKeyed(t *testing.T) {
	testKeyedStructure(t, "hash", func() Keyed { return NewHashTable(sch, []int{0}) }, false)
}

func TestHashOverSortedKeyed(t *testing.T) {
	testKeyedStructure(t, "hashsorted", func() Keyed { return NewHashOverSorted(sch, []int{0}) }, false)
}

func TestBPlusTreeKeyed(t *testing.T) {
	testKeyedStructure(t, "btree", func() Keyed { return NewBPlusTree(sch, []int{0}) }, true)
}

func TestSortedListRangeScan(t *testing.T) {
	s := NewSortedList(sch, []int{0})
	for i := 0; i < 100; i++ {
		s.Insert(row(int64(i), "x"))
	}
	var got []int64
	s.ScanRange([]types.Value{types.Int(10)}, []types.Value{types.Int(19)}, func(t types.Tuple) bool {
		got = append(got, t[0].I)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Errorf("ScanRange = %v", got)
	}
}

func TestSortedListAppendFastPath(t *testing.T) {
	s := NewSortedList(sch, []int{0})
	// In-order inserts use append; verify order kept with duplicates.
	for _, k := range []int64{1, 2, 2, 3} {
		s.Insert(row(k, "x"))
	}
	// Out-of-order insert.
	s.Insert(row(0, "y"))
	rows := s.Rows()
	var keys []int64
	for _, r := range rows {
		keys = append(keys, r[0].I)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Errorf("not sorted: %v", keys)
	}
}

func TestBPlusTreeDepthAndRange(t *testing.T) {
	bt := NewBPlusTree(sch, []int{0})
	const n = 5000
	perm := rand.New(rand.NewSource(12)).Perm(n)
	for _, i := range perm {
		bt.Insert(row(int64(i), "x"))
	}
	if d := bt.Depth(); d < 2 || d > 6 {
		t.Errorf("Depth = %d, want balanced small depth", d)
	}
	var got []int64
	bt.ScanRange([]types.Value{types.Int(100)}, []types.Value{types.Int(110)}, func(t types.Tuple) bool {
		got = append(got, t[0].I)
		return true
	})
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Errorf("ScanRange = %v", got)
	}
}

func TestBPlusTreeDuplicatesAcrossLeaves(t *testing.T) {
	bt := NewBPlusTree(sch, []int{0})
	// Insert enough duplicates of one key to span several leaves.
	for i := 0; i < 200; i++ {
		bt.Insert(row(42, "dup"))
	}
	for i := 0; i < 100; i++ {
		bt.Insert(row(int64(i), "x"))
	}
	if got := len(probeAll(bt, 42)); got != 200+1 { // key 42 also inserted by loop
		t.Errorf("probe(42) = %d rows, want 201", got)
	}
}

func TestHashTableFixedBucketsStillCorrect(t *testing.T) {
	h := NewHashTableSized(sch, []int{0}, 4)
	h.Fixed = true
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
	r := IndexList(h.List(), []int{1})
	if r.Len() != 100 {
		t.Fatalf("rehash lost tuples: %d", r.Len())
	}
	var cnt int
	r.Probe([]types.Value{types.Int(3)}, func(types.Tuple) bool { cnt++; return true })
	if cnt != 10 {
		t.Errorf("rehash probe = %d, want 10", cnt)
	}
}

func TestHashTableSpillAccounting(t *testing.T) {
	h := NewHashTable(sch, []int{0})
	for i := 0; i < 100; i++ {
		h.Insert(row(int64(i), "x"))
	}
	n := h.SpillPartitions(0.5)
	if n == 0 || h.SpilledFraction() == 0 {
		t.Fatal("spill did nothing")
	}
	before := h.DiskReads
	for i := 0; i < 100; i++ {
		probeAll(h, int64(i))
	}
	if h.DiskReads == before {
		t.Error("probing spilled partitions should record disk reads")
	}
	h.UnspillAll()
	if h.SpilledFraction() != 0 {
		t.Error("UnspillAll failed")
	}
}

func TestHashOverSortedOutOfOrderInsert(t *testing.T) {
	h := NewHashOverSorted(sch, []int{0})
	for _, k := range []int64{5, 3, 9, 3, 1} {
		h.Insert(row(k, "x"))
	}
	if got := len(probeAll(h, 3)); got != 2 {
		t.Errorf("probe(3) = %d, want 2", got)
	}
}

func TestPropertiesAdvertised(t *testing.T) {
	if !NewSortedList(sch, []int{0}).Properties().Sorted {
		t.Error("sorted list must advertise Sorted")
	}
	if !NewHashTable(sch, []int{0}).Properties().KeyAccess {
		t.Error("hash must advertise KeyAccess")
	}
	if !NewHashOverSorted(sch, []int{0}).Properties().RequiresSort {
		t.Error("hash-over-sorted must advertise RequiresSort")
	}
	p := NewBPlusTree(sch, []int{0}).Properties()
	if !p.SupportsRange || !p.Sorted {
		t.Error("btree must advertise range + sorted")
	}
}

func TestRegistryBasics(t *testing.T) {
	reg := NewRegistry()
	l0 := NewList(sch)
	l0.Insert(row(1, "a"))
	reg.Register(0, "⋈{F,T}", 2, l0)
	l1 := NewList(sch)
	reg.Register(1, "⋈{F,T}", 2, l1)
	reg.Register(1, "F", 1, NewList(sch))

	if got := len(reg.Lookup("⋈{F,T}")); got != 2 {
		t.Errorf("Lookup = %d entries, want 2", got)
	}
	if e, ok := reg.LookupPlan(0, "⋈{F,T}"); !ok || e.Cardinality() != 1 {
		t.Error("LookupPlan wrong")
	}
	if _, ok := reg.LookupPlan(9, "⋈{F,T}"); ok {
		t.Error("LookupPlan should miss for unknown plan")
	}
	if plans := reg.Plans(); len(plans) != 2 || plans[0] != 0 || plans[1] != 1 {
		t.Errorf("Plans = %v", plans)
	}
	if reg.TotalTuples() != 1 {
		t.Errorf("TotalTuples = %d", reg.TotalTuples())
	}
	if len(reg.All()) != 3 {
		t.Error("All() wrong")
	}
	_ = reg.String()
}

func TestMemoryManagerEvictsMostComplexFirst(t *testing.T) {
	reg := NewRegistry()
	mk := func(n int) *List {
		l := NewList(sch)
		for i := 0; i < n; i++ {
			l.Insert(row(int64(i), "x"))
		}
		return l
	}
	reg.Register(0, "F", 1, mk(100))
	reg.Register(0, "⋈{F,T}", 2, mk(100))
	reg.Register(0, "⋈{C,F,T}", 3, mk(100))

	m := NewMemoryManager(150, reg)
	evicted := m.Enforce()
	if len(evicted) != 2 {
		t.Fatalf("evicted %v, want 2 entries", evicted)
	}
	if evicted[0] != "⋈{C,F,T}" || evicted[1] != "⋈{F,T}" {
		t.Errorf("eviction order wrong: %v", evicted)
	}
	if !m.IsEvicted("⋈{C,F,T}") || m.IsEvicted("F") {
		t.Error("eviction state wrong")
	}
	m.PageIn("⋈{F,T}")
	if m.IsEvicted("⋈{F,T}") {
		t.Error("PageIn failed")
	}
	// Second enforce should be a no-op if under budget... after PageIn we
	// are over budget again, so it re-evicts.
	_ = m.Enforce()
	if !m.IsEvicted("⋈{F,T}") {
		t.Error("re-enforce should evict again")
	}
}

func TestMemoryManagerUnlimited(t *testing.T) {
	reg := NewRegistry()
	reg.Register(0, "F", 1, NewList(sch))
	m := NewMemoryManager(0, reg)
	if got := m.Enforce(); got != nil {
		t.Errorf("unlimited budget should not evict, got %v", got)
	}
}
