// Package stats implements the runtime information-gathering substrate of
// the adaptive query processor (paper §3.3 and §4.5): per-operator output
// counters, observed-selectivity tracking keyed by canonical subexpression,
// incremental ("dynamic compressed") histograms, order detection, and
// uniqueness detection. The optimizer consumes these to re-estimate costs
// mid-query; the §4.5 experiment combines histograms and order detection to
// predict join result sizes from a prefix of the data.
package stats

import (
	"fmt"
	"math"
	"sort"

	"github.com/tukwila/adp/internal/types"
)

// DefaultBuckets matches the paper's experimental configuration of 50
// histogram buckets (§4.5).
const DefaultBuckets = 50

// Histogram is an incremental compressed histogram in the style of
// Donjerkovic et al.'s dynamic histograms: values stream in one at a time;
// high-frequency values are "compressed" into singleton buckets, and the
// remaining distribution is kept in approximately equi-depth range buckets
// that split as they grow. Only numeric attributes are summarized (string
// keys hash to their FNV value first), which is what the join-size
// estimator needs.
type Histogram struct {
	maxBuckets int
	// singletons holds compressed high-frequency values.
	singletons map[int64]int64
	// buckets are range buckets ordered by Lo.
	buckets []bucket
	count   int64
	distRes int64 // resolution guard for splitting
	min     int64
	max     int64
}

type bucket struct {
	Lo, Hi int64 // inclusive bounds
	N      int64 // tuples in range (excluding compressed singletons)
	NDV    int64 // crude distinct-value estimate
}

// NewHistogram creates an incremental histogram with the given bucket
// budget (total across singleton and range buckets).
func NewHistogram(maxBuckets int) *Histogram {
	if maxBuckets < 4 {
		maxBuckets = 4
	}
	return &Histogram{
		maxBuckets: maxBuckets,
		singletons: make(map[int64]int64),
		min:        math.MaxInt64,
		max:        math.MinInt64,
	}
}

// keyOf maps a value onto the histogram's integer domain. Floats are
// rounded half-away-from-zero (math.Round) rather than truncated, so 1.1
// and 1.9 land in different keys and ±0.5 do not all collapse onto 0, and
// NaN/±Inf are clamped explicitly: a raw int64(v.F) conversion of an
// out-of-range or NaN float is platform-dependent in Go (the spec leaves
// it implementation-defined).
func keyOf(v types.Value) int64 {
	switch v.K {
	case types.KindInt:
		return v.I
	case types.KindFloat:
		return floatKey(v.F)
	case types.KindString:
		return int64(types.Hash(v) & 0x7fffffffffff)
	default:
		return 0
	}
}

// floatKey is keyOf's order-preserving float→int64 mapping.
func floatKey(f float64) int64 {
	if math.IsNaN(f) {
		// All NaNs share one deterministic key at the domain's bottom
		// (NaN compares before everything the way NULL sorts first).
		return math.MinInt64
	}
	f = math.Round(f)
	// float64(MaxInt64) is exactly 2^63, which overflows int64; anything
	// at or beyond the representable range clamps to the endpoints
	// (covers ±Inf).
	if f >= math.MaxInt64 {
		return math.MaxInt64
	}
	if f <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(f)
}

// Add folds one value into the histogram. Cost is O(log buckets).
func (h *Histogram) Add(v types.Value) {
	k := keyOf(v)
	h.count++
	if k < h.min {
		h.min = k
	}
	if k > h.max {
		h.max = k
	}
	if n, ok := h.singletons[k]; ok {
		h.singletons[k] = n + 1
		return
	}
	i := h.findBucket(k)
	if i < 0 {
		// Start a new range bucket containing just this value.
		h.insertBucket(bucket{Lo: k, Hi: k, N: 1, NDV: 1})
	} else {
		b := &h.buckets[i]
		b.N++
		// Crude NDV growth: assume a new distinct value until the bucket
		// width is saturated.
		if b.NDV < b.Hi-b.Lo+1 {
			b.NDV++
		}
	}
	h.maybeRestructure()
}

// findBucket returns the index of the range bucket containing k, or -1.
func (h *Histogram) findBucket(k int64) int {
	i := sort.Search(len(h.buckets), func(i int) bool { return h.buckets[i].Hi >= k })
	if i < len(h.buckets) && h.buckets[i].Lo <= k {
		return i
	}
	return -1
}

func (h *Histogram) insertBucket(b bucket) {
	i := sort.Search(len(h.buckets), func(i int) bool { return h.buckets[i].Lo > b.Lo })
	h.buckets = append(h.buckets, bucket{})
	copy(h.buckets[i+1:], h.buckets[i:])
	h.buckets[i] = b
}

// maybeRestructure enforces the bucket budget: adjacent sparse buckets
// merge; an over-full bucket either promotes its hottest value to a
// singleton (compression) or splits in half.
func (h *Histogram) maybeRestructure() {
	budget := h.maxBuckets - len(h.singletons)
	if budget < 2 {
		budget = 2
	}
	// Merge while over budget.
	for len(h.buckets) > budget {
		// Merge the adjacent pair with the smallest combined count.
		best, bestN := 0, int64(math.MaxInt64)
		for i := 0; i+1 < len(h.buckets); i++ {
			if n := h.buckets[i].N + h.buckets[i+1].N; n < bestN {
				best, bestN = i, n
			}
		}
		h.buckets[best].Hi = h.buckets[best+1].Hi
		h.buckets[best].N += h.buckets[best+1].N
		h.buckets[best].NDV += h.buckets[best+1].NDV
		h.buckets = append(h.buckets[:best+1], h.buckets[best+2:]...)
	}
	// Split a dominating bucket (equi-depth pressure) if budget allows.
	if len(h.buckets) >= budget || len(h.buckets) == 0 {
		return
	}
	avg := h.count / int64(len(h.buckets)+1)
	for i := range h.buckets {
		b := h.buckets[i]
		if b.N > 2*avg+4 && b.Hi > b.Lo {
			mid := b.Lo + (b.Hi-b.Lo)/2
			left := bucket{Lo: b.Lo, Hi: mid, N: b.N / 2, NDV: maxI64(1, b.NDV/2)}
			right := bucket{Lo: mid + 1, Hi: b.Hi, N: b.N - b.N/2, NDV: maxI64(1, b.NDV-b.NDV/2)}
			h.buckets[i] = left
			h.insertBucket(right)
			break
		}
	}
	// Compress: promote a value to singleton when one bucket is a hot
	// single-value bucket.
	if len(h.singletons) < h.maxBuckets/2 {
		for i := range h.buckets {
			b := h.buckets[i]
			if b.Lo == b.Hi && h.count > 20 && b.N > h.count/10 {
				h.singletons[b.Lo] = b.N
				h.buckets = append(h.buckets[:i], h.buckets[i+1:]...)
				break
			}
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Count returns the number of values added.
func (h *Histogram) Count() int64 { return h.count }

// Buckets returns the current number of range buckets plus singletons
// (diagnostics).
func (h *Histogram) Buckets() int { return len(h.buckets) + len(h.singletons) }

// EstimateEq estimates the number of added values equal to v.
func (h *Histogram) EstimateEq(v types.Value) float64 {
	k := keyOf(v)
	if n, ok := h.singletons[k]; ok {
		return float64(n)
	}
	i := h.findBucket(k)
	if i < 0 {
		return 0
	}
	b := h.buckets[i]
	ndv := b.NDV
	if ndv < 1 {
		ndv = 1
	}
	return float64(b.N) / float64(ndv)
}

// EstimateRange estimates the number of values in [lo, hi].
func (h *Histogram) EstimateRange(lo, hi types.Value) float64 {
	l, r := keyOf(lo), keyOf(hi)
	if r < l {
		return 0
	}
	var est float64
	for k, n := range h.singletons {
		if k >= l && k <= r {
			est += float64(n)
		}
	}
	for _, b := range h.buckets {
		if b.Hi < l || b.Lo > r {
			continue
		}
		overlapLo, overlapHi := maxI64(b.Lo, l), minI64(b.Hi, r)
		width := float64(b.Hi-b.Lo) + 1
		frac := (float64(overlapHi-overlapLo) + 1) / width
		est += float64(b.N) * frac
	}
	return est
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// JoinSizeEstimate estimates |R ⋈ S| on the summarized attributes by
// aligning the two histograms: matching singletons multiply exactly;
// overlapping range buckets contribute n_r * n_s / max(ndv) over the
// overlap fraction. This is the standard histogram-join estimator the
// paper's §4.5 experiment relies on.
func JoinSizeEstimate(r, s *Histogram) float64 {
	if r.count == 0 || s.count == 0 {
		return 0
	}
	var est float64
	// Singleton × singleton and singleton × bucket.
	for k, nr := range r.singletons {
		if ns, ok := s.singletons[k]; ok {
			est += float64(nr) * float64(ns)
		} else if i := s.findBucket(k); i >= 0 {
			b := s.buckets[i]
			est += float64(nr) * float64(b.N) / float64(maxI64(b.NDV, 1))
		}
	}
	for k, ns := range s.singletons {
		if _, ok := r.singletons[k]; ok {
			continue // already counted
		}
		if i := r.findBucket(k); i >= 0 {
			b := r.buckets[i]
			est += float64(ns) * float64(b.N) / float64(maxI64(b.NDV, 1))
		}
	}
	// Bucket × bucket overlap.
	for _, rb := range r.buckets {
		for _, sb := range s.buckets {
			lo, hi := maxI64(rb.Lo, sb.Lo), minI64(rb.Hi, sb.Hi)
			if hi < lo {
				continue
			}
			rw := float64(rb.Hi-rb.Lo) + 1
			sw := float64(sb.Hi-sb.Lo) + 1
			ow := float64(hi-lo) + 1
			nr := float64(rb.N) * ow / rw
			ns := float64(sb.N) * ow / sw
			ndv := math.Max(float64(rb.NDV)*ow/rw, float64(sb.NDV)*ow/sw)
			if ndv < 1 {
				ndv = 1
			}
			est += nr * ns / ndv
		}
	}
	return est
}

// String summarizes the histogram for diagnostics.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d buckets=%d singletons=%d range=[%d,%d]}",
		h.count, len(h.buckets), len(h.singletons), h.min, h.max)
}
