package exec

import (
	"testing"

	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// TestJoinWithSpilledPartitions exercises the overflow path of §5: when a
// complementary pair or pipelined join runs out of memory it "lazily
// partitions all four hash tables along the same boundaries and swaps some
// of these regions to disk"; spilled regions remain probe-able at
// simulated I/O cost and results stay complete.
func TestJoinWithSpilledPartitions(t *testing.T) {
	ctx := NewContext()
	sink := &collectSink{}
	j := NewHashJoin(ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, sink)

	// Build one side, spill half its partitions, then probe.
	for i := int64(0); i < 1000; i++ {
		j.PushRightBatch(one(sRow(i%100, i)))
	}
	lt, rt := j.Tables()
	_ = lt
	ht := rt.(*state.HashTable)
	if n := ht.SpillPartitions(0.5); n == 0 {
		t.Fatal("nothing spilled")
	}
	cpuBefore := ctx.Clock.CPU
	for i := int64(0); i < 100; i++ {
		j.PushLeftBatch(one(rRow(i, 0)))
	}
	if len(sink.rows) != 1000 {
		t.Fatalf("spilled join produced %d rows, want 1000", len(sink.rows))
	}
	if ht.DiskReads == 0 {
		t.Error("probing spilled partitions should record disk reads")
	}
	if ctx.Clock.CPU <= cpuBefore {
		t.Error("probe work not charged")
	}
}

// TestMemoryManagerWithJoinIntermediates drives the §3.4.2 paging policy
// through realistic join state: a registry holding base partitions and a
// larger intermediate; under pressure the intermediate (most complex
// expression) pages out first, and stitch-up-style reuse pays a page-in.
func TestMemoryManagerWithJoinIntermediates(t *testing.T) {
	ctx := NewContext()
	reg := state.NewRegistry()

	base := state.NewList(rSchema)
	for i := int64(0); i < 200; i++ {
		base.Insert(rRow(i, i))
	}
	reg.Register(0, "R", 1, base)

	out := state.NewList(rSchema.Concat(sSchema))
	j := NewHashJoin(ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0},
		SinkFunc(out.InsertBatch))
	for i := int64(0); i < 200; i++ {
		j.PushLeftBatch(one(rRow(i%50, i)))
		j.PushRightBatch(one(sRow(i%50, i)))
	}
	reg.Register(0, "⋈{R,S}", 2, out)

	mm := state.NewMemoryManager(base.Len()+out.Len()/2, reg)
	evicted := mm.Enforce()
	if len(evicted) != 1 || evicted[0] != "⋈{R,S}" {
		t.Fatalf("most-complex-first eviction violated: %v", evicted)
	}
	if !mm.IsEvicted("⋈{R,S}") || mm.IsEvicted("R") {
		t.Error("eviction state wrong")
	}
	// Stitch-up wants the intermediate back: page in, charge I/O.
	mm.PageIn("⋈{R,S}")
	ctx.Clock.Charge(int64(out.Len()) * ctx.Cost.DiskIO)
	if mm.IsEvicted("⋈{R,S}") {
		t.Error("page-in failed")
	}
	n := 0
	out.Scan(func(types.Tuple) bool { n++; return true })
	if n != out.Len() {
		t.Error("paged-in intermediate unreadable")
	}
}

// TestComplementaryOverflowAlignment verifies that tables sharing
// partition boundaries spill consistently, so overflowed regions can be
// joined region-by-region during stitch-up (§5).
func TestComplementaryOverflowAlignment(t *testing.T) {
	a := state.NewHashTable(rSchema, []int{0})
	b := state.NewHashTable(sSchema, []int{0})
	for i := int64(0); i < 500; i++ {
		a.Insert(rRow(i, 0))
		b.Insert(sRow(i, 0))
	}
	na := a.SpillPartitions(0.25)
	nb := b.SpillPartitions(0.25)
	if na != nb {
		t.Fatalf("aligned spills differ: %d vs %d", na, nb)
	}
	if a.SpilledFraction() != b.SpilledFraction() {
		t.Error("spill fractions diverge")
	}
	a.UnspillAll()
	if a.SpilledFraction() != 0 {
		t.Error("unspill failed")
	}
}
