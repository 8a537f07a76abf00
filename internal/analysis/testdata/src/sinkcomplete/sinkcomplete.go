// Corpus for the sinkcomplete analyzer: empty-batch tolerance of the sink
// entry (Push).
package sinkcomplete

type Tuple []int

// headPeek indexes the batch before checking emptiness.
type headPeek struct{ last Tuple }

func (h *headPeek) Push(ts []Tuple, sign int) {
	h.last = ts[0] // want `Push indexes its batch parameter before any length guard`
}

// guarded checks first: true negative.
type guarded struct{ last Tuple }

func (g *guarded) Push(ts []Tuple, sign int) {
	if len(ts) == 0 {
		return
	}
	g.last = ts[0]
}

// lateGuard checks only after it has indexed.
type lateGuard struct{ last Tuple }

func (g *lateGuard) Push(ts []Tuple, sign int) {
	g.last = ts[0] // want `Push indexes its batch parameter before any length guard`
	if len(ts) == 1 {
		return
	}
}

// looper indexes only with the loop variable: inherently bounded.
type looper struct{ sum int }

func (l *looper) Push(ts []Tuple, sign int) {
	for i := range ts {
		l.sum += len(ts[i])
	}
}

// heap is a container/heap.Interface: its Push takes one element, not a
// batch, and is never indexed.
type heap struct{ items []Tuple }

func (h *heap) Push(x any) { h.items = append(h.items, x.(Tuple)) }
