// Corpus for the sinkcomplete analyzer: empty-batch tolerance of the sink
// entries (PushBatch, PushSigned, PushColBatch).
package sinkcomplete

type Tuple []int

type ColBatch struct{ n int }

func (b *ColBatch) Len() int { return b.n }

// headPeek indexes the batch before checking emptiness.
type headPeek struct{ last Tuple }

func (h *headPeek) PushBatch(ts []Tuple) {
	h.last = ts[0] // want `PushBatch indexes its batch parameter before any length guard`
}

// guarded checks first: true negative.
type guarded struct{ last Tuple }

func (g *guarded) PushBatch(ts []Tuple) {
	if len(ts) == 0 {
		return
	}
	g.last = ts[0]
}

// signedPeek indexes its signed batch before checking emptiness.
type signedPeek struct{ last Tuple }

func (s *signedPeek) PushBatch(ts []Tuple) {}
func (s *signedPeek) PushSigned(ts []Tuple, sign int) {
	s.last = ts[0] // want `PushSigned indexes its batch parameter before any length guard`
}

// lateGuard checks only after it has indexed.
type lateGuard struct{ last Tuple }

func (g *lateGuard) PushBatch(ts []Tuple) {
	g.last = ts[0] // want `PushBatch indexes its batch parameter before any length guard`
	if len(ts) == 1 {
		return
	}
}

// looper indexes only with the loop variable: inherently bounded.
type looper struct{ sum int }

func (l *looper) PushBatch(ts []Tuple) {
	for i := range ts {
		l.sum += len(ts[i])
	}
}

// colGuard reads the columnar batch behind a Len() guard: true negative.
type colGuard struct{ n int }

func (c *colGuard) PushBatch(ts []Tuple) {}
func (c *colGuard) PushColBatch(b *ColBatch) {
	if b.Len() == 0 {
		return
	}
	c.n += b.Len()
}
