package source

import (
	"math"
	"sort"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

var sch = types.NewSchema(
	types.Column{Name: "r.k", Kind: types.KindInt},
)

func intRel(name string, keys ...int64) *Relation {
	rows := make([]types.Tuple, len(keys))
	for i, k := range keys {
		rows[i] = types.Tuple{types.Int(k)}
	}
	return NewRelation(name, sch, rows)
}

func seqRel(name string, n int) *Relation {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	return intRel(name, keys...)
}

func TestBandwidthSchedule(t *testing.T) {
	b := Bandwidth{TuplesPerSec: 10, Latency: 1}
	if got := b.ArrivalAt(0); got != 1.1 {
		t.Errorf("ArrivalAt(0) = %g, want 1.1", got)
	}
	if got := b.ArrivalAt(9); got != 2.0 {
		t.Errorf("ArrivalAt(9) = %g, want 2.0", got)
	}
	z := Bandwidth{TuplesPerSec: 0, Latency: 5}
	if z.ArrivalAt(100) != 5 {
		t.Error("zero bandwidth should return latency")
	}
}

func TestBurstyScheduleMonotoneAndBursty(t *testing.T) {
	const n = 5000
	b := NewBursty(n, 1000, 100, 0.5, 42)
	prev := 0.0
	for i := 0; i < n; i++ {
		at := b.ArrivalAt(i)
		if at < prev {
			t.Fatalf("arrival times must be monotone: %g after %g", at, prev)
		}
		prev = at
	}
	// Burstiness: total time should exceed pure-bandwidth time (gaps
	// inserted).
	pure := float64(n) / 1000
	if prev < pure*1.5 {
		t.Errorf("bursty schedule total %g too close to pure bandwidth %g", prev, pure)
	}
	// Determinism.
	b2 := NewBursty(n, 1000, 100, 0.5, 42)
	for i := 0; i < n; i += 97 {
		if b.ArrivalAt(i) != b2.ArrivalAt(i) {
			t.Fatal("bursty schedule not deterministic")
		}
	}
	// Out-of-range index clamps.
	if b.ArrivalAt(n+10) != b.ArrivalAt(n-1) {
		t.Error("out-of-range arrival should clamp to last")
	}
	empty := NewBursty(0, 1000, 10, 0.5, 1)
	if empty.ArrivalAt(3) != 0 {
		t.Error("empty schedule should return 0")
	}
}

func TestProviderResumesAcrossPhases(t *testing.T) {
	p := NewProvider(seqRel("r", 10), nil)
	if p.Total() != 10 || p.Name() != "r" || p.Schema() != sch {
		t.Error("provider metadata wrong")
	}
	// Phase 0 reads 4 tuples.
	for i := 0; i < 4; i++ {
		row, ok := p.Next()
		if !ok || row.T[0].I != int64(i) {
			t.Fatalf("phase 0 read wrong: %v %v", row, ok)
		}
	}
	if p.Consumed() != 4 || p.Exhausted() {
		t.Error("consumed bookkeeping wrong")
	}
	// Phase 1 resumes at tuple 4.
	row, ok := p.Next()
	if !ok || row.T[0].I != 4 {
		t.Fatalf("resume read wrong: %v", row)
	}
	for p.Consumed() < 10 {
		if _, ok := p.Next(); !ok {
			t.Fatal("premature exhaustion")
		}
	}
	if !p.Exhausted() {
		t.Error("should be exhausted")
	}
	if _, ok := p.Next(); ok {
		t.Error("exhausted provider returned a row")
	}
	if _, ok := p.PeekArrival(); ok {
		t.Error("PeekArrival on exhausted provider should fail")
	}
	p.Reset()
	if p.Consumed() != 0 {
		t.Error("Reset failed")
	}
	if at, ok := p.PeekArrival(); !ok || at != 0 {
		t.Error("PeekArrival after reset wrong")
	}
}

func TestSortByAndSortedness(t *testing.T) {
	rel := intRel("r", 5, 2, 9, 1)
	sorted := SortBy(rel, "r.k")
	if SortednessAsc(sorted, "r.k") != 1 {
		t.Error("SortBy did not sort")
	}
	// Original untouched.
	if rel.Rows[0][0].I != 5 {
		t.Error("SortBy mutated input")
	}
}

func TestReorderFraction(t *testing.T) {
	rel := SortBy(seqRel("r", 10000), "r.k")
	r1 := ReorderFraction(rel, 0.01, 7)
	r50 := ReorderFraction(rel, 0.50, 7)
	s1 := SortednessAsc(r1, "r.k")
	s50 := SortednessAsc(r50, "r.k")
	if s1 < 0.97 || s1 >= 1.0 {
		t.Errorf("1%% reorder sortedness = %g, want just below 1", s1)
	}
	if s50 > 0.8 {
		t.Errorf("50%% reorder sortedness = %g, want much lower", s50)
	}
	// Multiset preserved.
	var keys []int64
	for _, r := range r50.Rows {
		keys = append(keys, r[0].I)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, k := range keys {
		if k != int64(i) {
			t.Fatal("ReorderFraction lost tuples")
		}
	}
	// No-op cases.
	if got := ReorderFraction(rel, 0, 7); SortednessAsc(got, "r.k") != 1 {
		t.Error("frac=0 should not reorder")
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	rel := seqRel("r", 1000)
	sh := Shuffle(rel, 3)
	if SortednessAsc(sh, "r.k") > 0.7 {
		t.Error("shuffle left data mostly sorted")
	}
	if sh.Len() != 1000 {
		t.Error("shuffle changed cardinality")
	}
}

func TestRelationCloneAndString(t *testing.T) {
	rel := intRel("r", 1)
	cl := rel.Clone()
	cl.Rows[0][0] = types.Int(99)
	if rel.Rows[0][0].I != 1 {
		t.Error("Clone shares row storage")
	}
	if rel.String() == "" {
		t.Error("String empty")
	}
}

func TestSortednessSmall(t *testing.T) {
	if SortednessAsc(intRel("r", 7), "r.k") != 1 {
		t.Error("single-row sortedness should be 1")
	}
}

// TestBurstyDegenerateParams is the regression test for the degenerate-
// parameter guards: burstTuples <= 0 used to panic in rand.Intn, and
// tuplesPerSec <= 0 used to yield +Inf arrival times.
func TestBurstyDegenerateParams(t *testing.T) {
	const n = 100
	// burstTuples <= 0 must not panic and must still deliver n arrivals.
	for _, bt := range []int{0, -5} {
		b := NewBursty(n, 1000, bt, 0.1, 7)
		prev := 0.0
		for i := 0; i < n; i++ {
			at := b.ArrivalAt(i)
			if math.IsInf(at, 0) || math.IsNaN(at) || at < prev {
				t.Fatalf("burstTuples=%d: bad arrival %g at %d (prev %g)", bt, at, i, prev)
			}
			prev = at
		}
	}
	// tuplesPerSec <= 0 behaves as instantaneous in-burst delivery
	// (mirroring Bandwidth.ArrivalAt's zero-bandwidth guard): finite,
	// monotone arrivals with only the gaps advancing time.
	for _, tps := range []float64{0, -3} {
		b := NewBursty(n, tps, 10, 0.5, 7)
		prev := 0.0
		for i := 0; i < n; i++ {
			at := b.ArrivalAt(i)
			if math.IsInf(at, 0) || math.IsNaN(at) || at < prev {
				t.Fatalf("tuplesPerSec=%g: bad arrival %g at %d (prev %g)", tps, at, i, prev)
			}
			prev = at
		}
		if prev == 0 {
			t.Fatalf("tuplesPerSec=%g: gaps should still advance the schedule", tps)
		}
	}
	// Negative gaps clamp to zero stall; negative n yields an empty
	// schedule rather than a make() panic.
	b := NewBursty(n, 1000, 10, -1, 7)
	for i := 0; i < n; i++ {
		if at := b.ArrivalAt(i); at < 0 || math.IsNaN(at) {
			t.Fatalf("negative gap: bad arrival %g at %d", at, i)
		}
	}
	if neg := NewBursty(-4, 1000, 10, 0.5, 7); neg.ArrivalAt(0) != 0 {
		t.Error("negative n should behave as an empty schedule")
	}
}
