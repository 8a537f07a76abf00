package stats

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

func TestHistogramCountConservation(t *testing.T) {
	h := NewHistogram(DefaultBuckets)
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	for i := 0; i < n; i++ {
		h.Add(types.Int(rng.Int63n(1000)))
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	// Total mass across the full range must equal n (conservation).
	got := h.EstimateRange(types.Int(math.MinInt64/4), types.Int(math.MaxInt64/4))
	if math.Abs(got-n) > 1 {
		t.Errorf("full-range estimate = %g, want %d", got, n)
	}
}

func TestHistogramBucketBudget(t *testing.T) {
	h := NewHistogram(20)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		h.Add(types.Int(rng.Int63n(100000)))
	}
	if h.Buckets() > 2*20 {
		t.Errorf("bucket budget exceeded: %d buckets", h.Buckets())
	}
}

func TestHistogramUniformRangeEstimate(t *testing.T) {
	h := NewHistogram(DefaultBuckets)
	for i := 0; i < 10000; i++ {
		h.Add(types.Int(int64(i % 1000)))
	}
	// [0,499] holds half the mass.
	got := h.EstimateRange(types.Int(0), types.Int(499))
	if got < 3500 || got > 6500 {
		t.Errorf("half-range estimate = %g, want ~5000", got)
	}
}

func TestHistogramSkewCompression(t *testing.T) {
	h := NewHistogram(DefaultBuckets)
	// Heavy hitter: value 7 appears 5000 times; background uniform.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		h.Add(types.Int(7))
	}
	for i := 0; i < 5000; i++ {
		h.Add(types.Int(100 + rng.Int63n(1000)))
	}
	est := h.EstimateEq(types.Int(7))
	if est < 2500 || est > 7500 {
		t.Errorf("hot-value estimate = %g, want ~5000", est)
	}
	// A cold value should estimate far smaller.
	cold := h.EstimateEq(types.Int(550))
	if cold > 500 {
		t.Errorf("cold-value estimate = %g, want small", cold)
	}
}

func TestHistogramEstimateEqUnseen(t *testing.T) {
	h := NewHistogram(8)
	h.Add(types.Int(5))
	if got := h.EstimateEq(types.Int(99999)); got != 0 {
		t.Errorf("unseen estimate = %g, want 0", got)
	}
	if got := h.EstimateRange(types.Int(10), types.Int(5)); got != 0 {
		t.Errorf("inverted range = %g, want 0", got)
	}
}

func TestHistogramStringValuesHash(t *testing.T) {
	h := NewHistogram(16)
	for i := 0; i < 100; i++ {
		h.Add(types.Str("BUILDING"))
	}
	if got := h.EstimateEq(types.Str("BUILDING")); got < 10 {
		t.Errorf("string eq estimate = %g, want large", got)
	}
}

func TestJoinSizeEstimateKeyForeignKey(t *testing.T) {
	// R: keys 0..999 unique. S: 10000 FKs uniform over 0..999.
	// True join size = 10000.
	r := NewHistogram(DefaultBuckets)
	s := NewHistogram(DefaultBuckets)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		r.Add(types.Int(int64(i)))
	}
	for i := 0; i < 10000; i++ {
		s.Add(types.Int(rng.Int63n(1000)))
	}
	est := JoinSizeEstimate(r, s)
	if est < 2000 || est > 50000 {
		t.Errorf("join estimate = %g, want within ~5x of 10000", est)
	}
}

func TestJoinSizeEstimateDisjointDomains(t *testing.T) {
	r := NewHistogram(16)
	s := NewHistogram(16)
	for i := 0; i < 100; i++ {
		r.Add(types.Int(int64(i)))
		s.Add(types.Int(int64(100000 + i)))
	}
	if est := JoinSizeEstimate(r, s); est != 0 {
		t.Errorf("disjoint join estimate = %g, want 0", est)
	}
	if est := JoinSizeEstimate(NewHistogram(4), s); est != 0 {
		t.Errorf("empty join estimate = %g, want 0", est)
	}
}

func TestJoinSizeEstimateImprovesWithPrefix(t *testing.T) {
	// The §4.5 claim: with a prefix of the data the estimator approaches
	// the true value. Uniform FK join, estimate at 25% vs 75%.
	rng := rand.New(rand.NewSource(5))
	build := func(frac float64) (rh, sh *Histogram) {
		rh, sh = NewHistogram(DefaultBuckets), NewHistogram(DefaultBuckets)
		nr, ns := int(1000*frac), int(10000*frac)
		for i := 0; i < nr; i++ {
			rh.Add(types.Int(int64(i)))
		}
		for i := 0; i < ns; i++ {
			sh.Add(types.Int(rng.Int63n(int64(maxI64(1, int64(nr))))))
		}
		return
	}
	r25, s25 := build(0.25)
	r75, s75 := build(0.75)
	est25 := JoinSizeEstimate(r25, s25) / (0.25 * 0.25)
	est75 := JoinSizeEstimate(r75, s75) / (0.75 * 0.75)
	err25 := math.Abs(est25-10000) / 10000
	err75 := math.Abs(est75-10000) / 10000
	if err75 > err25*2+0.5 {
		t.Errorf("estimate did not improve with more data: err25=%.2f err75=%.2f", err25, err75)
	}
}

func TestOrderDetectorSorted(t *testing.T) {
	d := NewOrderDetector()
	for i := 0; i < 100; i++ {
		if ok := d.Observe(types.Int(int64(i))); !ok {
			t.Fatalf("sorted stream reported out of order at %d", i)
		}
	}
	if d.Detect(0.95) != Ascending {
		t.Error("sorted stream not detected Ascending")
	}
	if !d.LikelyUnique() {
		t.Error("strictly increasing stream should be LikelyUnique")
	}
	if d.Count() != 100 {
		t.Errorf("Count = %d", d.Count())
	}
}

func TestOrderDetectorDescending(t *testing.T) {
	d := NewOrderDetector()
	for i := 100; i > 0; i-- {
		d.Observe(types.Int(int64(i)))
	}
	if d.Detect(0.95) != Descending {
		t.Error("descending stream not detected")
	}
}

func TestOrderDetectorRandom(t *testing.T) {
	d := NewOrderDetector()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		d.Observe(types.Int(rng.Int63n(1 << 40)))
	}
	if dir := d.Detect(0.95); dir != Unordered {
		t.Errorf("random stream detected as %d", dir)
	}
	s := d.SortednessAsc()
	if s < 0.3 || s > 0.7 {
		t.Errorf("random sortedness = %g, want ~0.5", s)
	}
	if d.LikelyUnique() {
		t.Error("unsorted stream must not report unique")
	}
}

func TestOrderDetectorMostlySorted(t *testing.T) {
	// 1% swaps: sortedness should stay high but below 1.
	d := NewOrderDetector()
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 10; k++ {
		i, j := rng.Intn(len(vals)), rng.Intn(len(vals))
		vals[i], vals[j] = vals[j], vals[i]
	}
	for _, v := range vals {
		d.Observe(types.Int(v))
	}
	s := d.SortednessAsc()
	if s < 0.9 || s >= 1.0 {
		t.Errorf("mostly-sorted sortedness = %g, want [0.9, 1)", s)
	}
}

func TestOrderDetectorDuplicatesNotUnique(t *testing.T) {
	d := NewOrderDetector()
	for _, v := range []int64{1, 2, 2, 3} {
		d.Observe(types.Int(v))
	}
	if d.Detect(0.99) != Ascending {
		t.Error("non-strict sorted stream should detect Ascending")
	}
	if d.LikelyUnique() {
		t.Error("duplicates present; must not be unique")
	}
}

func TestOpCountersSelectivity(t *testing.T) {
	c := &OpCounters{}
	if c.Selectivity() != 1 {
		t.Error("empty counters selectivity should be 1")
	}
	c.In, c.Out = 100, 25
	if got := c.Selectivity(); got != 0.25 {
		t.Errorf("Selectivity = %g", got)
	}
}

func TestRegistryObservations(t *testing.T) {
	r := NewRegistry()
	r.ObserveExpr("⋈{orders,customer}", 1000, 2e6, false)
	o, ok := r.Expr("⋈{orders,customer}")
	if !ok || o.Selectivity() != 1000/2e6 {
		t.Errorf("observation lost or wrong: %+v ok=%v", o, ok)
	}
	if _, ok := r.Expr("missing"); ok {
		t.Error("missing key should not be found")
	}
	if (Observation{}).Selectivity() != -1 {
		t.Error("undefined selectivity should be -1")
	}
}

func TestRegistrySourcesAndMultiplicative(t *testing.T) {
	r := NewRegistry()
	r.ObserveSource("orders", 5000, true)
	c, ok := r.Source("orders")
	if !ok || c.Read != 5000 || !c.Complete {
		t.Errorf("source card wrong: %+v", c)
	}
	r.FlagMultiplicative("a=b", 3)
	r.FlagMultiplicative("a=b", 2) // lower factor must not overwrite
	if f, ok := r.Multiplicative("a=b"); !ok || f != 3 {
		t.Errorf("multiplicative = %g ok=%v, want 3", f, ok)
	}
	r.FlagMultiplicative("a=b", 5)
	if f, _ := r.Multiplicative("a=b"); f != 5 {
		t.Errorf("multiplicative should raise to 5, got %g", f)
	}
}

// TestHistogramFloatKeys is the keyOf regression test: floats route
// through an explicit NaN/Inf clamp plus math.Round, so adds of
// NaN/±Inf/negative floats are deterministic on every platform (raw
// int64(f) of NaN or out-of-range values is implementation-defined in
// Go), nearby fractions stay distinct (1.1 vs 1.9), and ±0.5 do not all
// collapse onto 0.
func TestHistogramFloatKeys(t *testing.T) {
	h := NewHistogram(DefaultBuckets)
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		-1e300, 1e300, -0.5, 0.5, 0, 1.1, 1.9, -2.7,
	}
	for _, f := range specials {
		for i := 0; i < 3; i++ {
			h.Add(types.Float(f))
		}
	}
	if h.Count() != int64(3*len(specials)) {
		t.Fatalf("Count = %d, want %d", h.Count(), 3*len(specials))
	}
	// Deterministic keys: the mapping itself must be reproducible.
	for _, f := range specials {
		if keyOf(types.Float(f)) != keyOf(types.Float(f)) {
			t.Fatalf("keyOf(%g) not deterministic", f)
		}
	}
	if keyOf(types.Float(math.NaN())) != math.MinInt64 {
		t.Errorf("NaN key = %d, want MinInt64", keyOf(types.Float(math.NaN())))
	}
	if keyOf(types.Float(math.Inf(1))) != math.MaxInt64 {
		t.Errorf("+Inf key = %d, want MaxInt64", keyOf(types.Float(math.Inf(1))))
	}
	if keyOf(types.Float(math.Inf(-1))) != math.MinInt64 {
		t.Errorf("-Inf key = %d, want MinInt64", keyOf(types.Float(math.Inf(-1))))
	}
	// Rounding, not truncation: 1.1 and 1.9 must key apart, and ±0.5
	// must not merge with 0.
	if keyOf(types.Float(1.1)) == keyOf(types.Float(1.9)) {
		t.Error("1.1 and 1.9 collide")
	}
	if keyOf(types.Float(0.5)) == keyOf(types.Float(0)) || keyOf(types.Float(-0.5)) == keyOf(types.Float(0)) {
		t.Error("±0.5 merged with 0")
	}
	if keyOf(types.Float(0.5)) == keyOf(types.Float(-0.5)) {
		t.Error("0.5 and -0.5 collide")
	}
	if got := keyOf(types.Float(-2.7)); got != -3 {
		t.Errorf("keyOf(-2.7) = %d, want -3 (round half away from zero)", got)
	}
	// Estimates over the specials stay finite and see the mass added.
	if est := h.EstimateEq(types.Float(1.1)); est <= 0 || math.IsNaN(est) {
		t.Errorf("EstimateEq(1.1) = %g", est)
	}
	if est := h.EstimateRange(types.Float(-10), types.Float(10)); est <= 0 || math.IsInf(est, 0) || math.IsNaN(est) {
		t.Errorf("EstimateRange(-10,10) = %g", est)
	}
}
