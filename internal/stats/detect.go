package stats

import (
	"github.com/tukwila/adp/internal/types"
)

// Direction describes a detected sort order.
type Direction int8

// Sort directions reported by the order detector.
const (
	Unordered  Direction = 0
	Ascending  Direction = 1
	Descending Direction = -1
)

// OrderDetector incrementally measures how sorted a stream is on one
// attribute. The complementary-join router (paper §5) asks it whether an
// incoming tuple "conforms to the ordering of the merge join"; the §4.5
// predictability study uses the aggregate sortedness fraction, and
// uniqueness detection piggybacks on it ("uniqueness can be quickly
// detected in the special case where the values are sorted").
type OrderDetector struct {
	n          int64
	asc        int64 // adjacent pairs with prev <= cur
	desc       int64 // adjacent pairs with prev >= cur
	strictAsc  int64
	strictDesc int64
	dup        int64
	havePrev   bool
	prev       types.Value
}

// NewOrderDetector creates an empty detector.
func NewOrderDetector() *OrderDetector { return &OrderDetector{} }

// Observe folds the next value in stream order and reports whether it is
// in ascending sequence with its chronological predecessor (the router's
// per-tuple question).
func (d *OrderDetector) Observe(v types.Value) (inAscOrder bool) {
	if !d.havePrev {
		d.havePrev = true
		d.prev = v
		d.n = 1
		return true
	}
	c := types.Compare(d.prev, v)
	d.n++
	if c <= 0 {
		d.asc++
		if c < 0 {
			d.strictAsc++
		}
	}
	if c >= 0 {
		d.desc++
		if c > 0 {
			d.strictDesc++
		}
	}
	if c == 0 {
		d.dup++
	}
	d.prev = v
	return c <= 0
}

// Count returns the number of observed values.
func (d *OrderDetector) Count() int64 { return d.n }

// SortednessAsc returns the fraction of adjacent pairs in ascending order
// (1.0 for a sorted stream, ~0.5 for random data).
func (d *OrderDetector) SortednessAsc() float64 {
	if d.n < 2 {
		return 1
	}
	return float64(d.asc) / float64(d.n-1)
}

// SortednessDesc is the descending analogue of SortednessAsc.
func (d *OrderDetector) SortednessDesc() float64 {
	if d.n < 2 {
		return 1
	}
	return float64(d.desc) / float64(d.n-1)
}

// Detect reports the stream's direction once enough evidence accumulates.
// threshold is the minimum sortedness fraction (e.g. 0.95); below it in
// both directions the stream is Unordered.
func (d *OrderDetector) Detect(threshold float64) Direction {
	if d.n < 2 {
		return Unordered
	}
	switch {
	case d.SortednessAsc() >= threshold:
		return Ascending
	case d.SortednessDesc() >= threshold:
		return Descending
	default:
		return Unordered
	}
}

// LikelyUnique reports whether the stream looks duplicate-free. It is only
// a sound conclusion when the stream is sorted (every duplicate would be
// adjacent); for unsorted streams it returns false.
func (d *OrderDetector) LikelyUnique() bool {
	if d.Detect(1.0) == Unordered {
		return false
	}
	return d.dup == 0
}
