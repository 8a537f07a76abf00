// Corpus for the maporder analyzer: map iteration inside functions that
// reach the sink protocol (directly or transitively), the sorted-keys
// idiom, the //adp:unordered-ok escape hatch, and true negatives
// (non-emitting functions may range freely).
package maporder

import "sort"

type sink struct{ rows, signs []int }

func (s *sink) Push(vs []int, sign int) {
	for _, v := range vs {
		s.rows = append(s.rows, v)
		s.signs = append(s.signs, sign)
	}
}

func (s *sink) emit(vs []int) {
	for _, v := range vs {
		s.Push([]int{v}, 0)
	}
}

// emitAll emits in map order: the canonical violation.
func emitAll(s *sink, m map[string]int) {
	for _, v := range m { // want `map iteration in emitAll, which reaches an emit/fingerprint path`
		s.Push([]int{v}, 0)
	}
}

// helper does not call Push itself but reaches it through emitVia, so its
// map range is still order-sensitive.
func helper(s *sink, m map[string]int) {
	for k := range m { // want `map iteration in helper`
		emitVia(s, len(k))
	}
}

func emitVia(s *sink, v int) { s.Push([]int{v}, 0) }

// revise emits signed rows in map order: a signed push is the same emit
// path.
func revise(s *sink, m map[string]int) {
	for _, v := range m { // want `map iteration in revise, which reaches an emit/fingerprint path`
		s.Push([]int{v}, -1)
	}
}

// leaf stands for exec.Leaf, whose PushBatch is the source driver's
// delivery into a plan.
type leaf struct{ PushBatch func([]int) }

// feed delivers source rows in map order.
func feed(l leaf, m map[string]int) {
	for _, v := range m { // want `map iteration in feed, which reaches an emit/fingerprint path`
		l.PushBatch([]int{v})
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
		s.Push([]int{m[k]}, 0)
	}
}

// annotated exercises the escape hatch: summing is commutative.
func annotated(s *sink, m map[string]int) {
	total := 0
	//adp:unordered-ok corpus: sum is order-insensitive
	for _, v := range m {
		total += v
	}
	s.Push([]int{total}, 0)
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
