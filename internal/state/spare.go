package state

import (
	"slices"

	"github.com/tukwila/adp/internal/types"
)

// Spare is a run's free list of state storage — bucket arrays, entry and
// row chunks, value slabs (group records, emitted rows) — which the run's
// next structures take back, cleared. Every structure takes its storage
// from a spare and gives it back to one: index storage when a phase
// finishes, the rest when the run ends. A run takes its spare from a
// process-wide pool (TakeSpare) and gives it back when it ends (Return), so
// the next run starts on what this one released. It is not safe for
// concurrent use.
type Spare struct {
	buckets stack[bucket]
	entries stack[entry]
	rows    stack[types.Tuple]
	values  stack[types.Value]
}

// stack is the free storage of one kind. Its first old items came from an
// earlier run: those this run does not take are dropped when it ends, so a
// spare never holds more than one run released.
type stack[T any] struct {
	items [][]T
	old   int
	lent  [][]T
}

// push gives v to the stack, which makes room for 16 items at its first, so
// a fresh spare's first releases do not regrow it item by item.
func (s *stack[T]) push(v []T) {
	if s.items == nil {
		s.items = make([][]T, 0, 16)
	}
	s.items = append(s.items, v)
}

// take returns n cleared elements: the smallest free item that holds n (the
// topmost of equals), re-sliced to n, else a new one. Every kind and size of
// storage is taken by this one rule; what lies past n is not cleared.
func (s *stack[T]) take(n int) []T {
	best := -1
	for i := len(s.items) - 1; i >= 0; i-- {
		if c := cap(s.items[i]); c >= n && (best < 0 || c < cap(s.items[best])) {
			best = i
			if c == n {
				break
			}
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	v := s.items[best][:n]
	s.items = slices.Delete(s.items, best, best+1)
	if best < s.old {
		s.old--
	}
	clear(v)
	return v
}

// chunk returns an empty chunk with room for n elements and at most full:
// take's, cleared up to its capacity, which Groups.Adopt re-slices into.
func (s *stack[T]) chunk(n, full int) []T {
	v := s.take(n)
	clear(v[n:min(cap(v), full)])
	return v[:0:min(cap(v), full)]
}

// lend returns an empty item with room for n elements, taken by take's rule,
// which comes back to s when the run ends.
func (s *stack[T]) lend(n int) []T {
	v := s.take(n)[:0]
	s.lent = append(s.lent, v)
	return v
}

// endRun takes back what this run lent and drops what an earlier run left
// and this one did not take: the rest, old to the next, is this run's.
func (s *stack[T]) endRun() {
	s.items, s.lent = slices.Delete(append(s.items, s.lent...), 0, s.old), s.lent[:0]
	s.old = len(s.items)
}

// spares is the process-wide pool of spares between runs. A pooled spare
// holds what one run released, and the GC drops one nobody took for two
// cycles.
var spares = Pool[Spare]{New: func() *Spare { return &Spare{} }}

// TakeSpare returns a spare for one run: the pooled one an earlier run gave
// back last, holding what that run released, or else an empty one.
func TakeSpare() *Spare { return spares.Get() }

// Return ends s's run: the storage s held from an earlier run that this one
// did not take is dropped, and s goes back to the pool with what this run
// released. Nothing may use s after.
func (s *Spare) Return() {
	s.endRun()
	spares.Put(s)
}

// endRun leaves s holding only what its run released.
func (s *Spare) endRun() {
	s.buckets.endRun()
	s.entries.endRun()
	s.rows.endRun()
	s.values.endRun()
}

// Release gives h's bucket array and entry chunks to s. h keeps its List,
// whose rows a stitch-up still reads; used as an index again, h panics.
// Releasing h again gives nothing.
func (s *Spare) Release(h *HashTable) { h.ix.release(s) }

// ReleaseList gives l's row chunks to s once nothing will read l again: used
// again, l panics. Releasing l again gives nothing.
func (s *Spare) ReleaseList(l *List) {
	if l.rows.n < 0 {
		return
	}
	s.ReleaseRowChunks(l.rows.chunks)
	l.rows = chunked[types.Tuple]{n: -1}
}

// RowChunk takes a full row chunk — cleared, chunkRows headers long — for
// a caller that lays its rows out in it itself (the stitch-up's prefixes).
func (s *Spare) RowChunk() []types.Tuple { return s.rows.take(chunkRows) }

// ReleaseRowChunks gives row chunks to s once nothing will read them again.
func (s *Spare) ReleaseRowChunks(chunks [][]types.Tuple) {
	for _, chunk := range chunks {
		s.rows.push(chunk)
	}
}

// Values lends an empty value slab with room for n values — the smallest
// one s holds that is large enough, cleared, else a new one — until the run
// ends, when it comes back to s: for rows nothing reads past the run.
func (s *Spare) Values(n int) []types.Value { return s.values.lend(n)[:0:n] }

// Rows lends an empty row buffer with room for n rows as Values lends a slab:
// for a buffer nothing reads past the run (an exchange's scratch).
func (s *Spare) Rows(n int) []types.Tuple { return s.rows.lend(n)[:0:n] }
