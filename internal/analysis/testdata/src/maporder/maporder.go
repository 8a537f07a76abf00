// Corpus for the maporder analyzer: map iteration inside functions that
// reach the sink protocol (directly or transitively), the sorted-keys
// idiom, the //adp:unordered-ok escape hatch, and true negatives
// (non-emitting functions may range freely).
package maporder

import "sort"

type sink struct{ rows []int }

func (s *sink) PushBatch(vs ...int) { s.rows = append(s.rows, vs...) }
func (s *sink) emit(vs []int) {
	for _, v := range vs {
		s.PushBatch(v)
	}
}

// emitAll emits in map order: the canonical violation.
func emitAll(s *sink, m map[string]int) {
	for _, v := range m { // want `map iteration in emitAll, which reaches an emit/fingerprint path`
		s.PushBatch(v)
	}
}

// helper does not call PushBatch itself but reaches it through emitVia, so
// its map range is still order-sensitive.
func helper(s *sink, m map[string]int) {
	for k := range m { // want `map iteration in helper`
		emitVia(s, len(k))
	}
}

func emitVia(s *sink, v int) { s.PushBatch(v) }

type deltaSink struct{ rows, signs []int }

func (d *deltaSink) PushSigned(vs []int, sign int) {
	d.rows = append(d.rows, vs...)
	d.signs = append(d.signs, sign)
}

// revise emits signed rows in map order: the signed entry is an emit path
// too.
func revise(d *deltaSink, m map[string]int) {
	for _, v := range m { // want `map iteration in revise, which reaches an emit/fingerprint path`
		d.PushSigned([]int{v}, -1)
	}
}

// emitSorted is the blessed fix: collect the keys, sort, then range the
// slice. The key-collection loop itself is recognized as safe.
func emitSorted(s *sink, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.PushBatch(m[k])
	}
}

// annotated exercises the escape hatch: summing is commutative.
func annotated(s *sink, m map[string]int) {
	total := 0
	//adp:unordered-ok corpus: sum is order-insensitive
	for _, v := range m {
		total += v
	}
	s.PushBatch(total)
}

// tally is a true negative: it never reaches an emit path, so map order
// cannot leak into row or event order.
func tally(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
