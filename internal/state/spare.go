package state

import (
	"slices"
	"sync"

	"github.com/tukwila/adp/internal/types"
)

// Spare is a run's free list of state storage: the bucket arrays and full
// entry chunks of tables nothing will probe again, the full row chunks of
// lists nothing will read again, and the value slabs of emitted rows, which
// the run's next structures take back, cleared. Index storage comes back
// from a finished phase; the rest, and every index, when the run ends. A run
// takes its spare from a process-wide pool (TakeSpare) and gives it back
// when it ends (Return), so the next run starts on what this one released.
// It is not safe for concurrent use.
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
}

func (s *stack[T]) push(v []T) { s.items = append(s.items, v) }

// take removes and returns item i.
func (s *stack[T]) take(i int) []T {
	v := s.items[i]
	s.items = slices.Delete(s.items, i, i+1)
	if i < s.old {
		s.old--
	}
	return v
}

func (s *stack[T]) pop() []T { return s.take(len(s.items) - 1) }

// endRun drops what an earlier run left and this one did not take: the rest
// is what this run released, old to the next.
func (s *stack[T]) endRun() {
	s.items = slices.Delete(s.items, 0, s.old)
	s.old = len(s.items)
}

// spares is the process-wide pool of spares between runs. A pooled spare
// holds what one run released, and the GC empties the pool when it has
// gone unused for two cycles.
var spares sync.Pool

// TakeSpare returns a spare for one run: a pooled one, holding what an
// earlier run released, or else an empty one.
func TakeSpare() *Spare {
	if s, ok := spares.Get().(*Spare); ok {
		return s
	}
	return &Spare{}
}

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

// Release gives h's bucket array and full entry chunks to s. h keeps its
// List, whose rows a stitch-up still reads; used as an index again, h panics.
// Releasing h again gives nothing.
func (s *Spare) Release(h *HashTable) {
	if h.buckets == nil {
		return
	}
	s.buckets.push(h.buckets)
	for _, chunk := range h.entries.chunks {
		if cap(chunk) == chunkRows {
			s.entries.push(chunk)
		}
	}
	h.buckets, h.entries = nil, chunked[entry]{}
}

// ReleaseList gives l's full row chunks to s once nothing will read l again:
// used again, l panics. Releasing l again gives nothing.
func (s *Spare) ReleaseList(l *List) {
	if l.rows.n < 0 {
		return
	}
	for _, chunk := range l.rows.chunks {
		if cap(chunk) == chunkRows {
			s.rows.push(chunk)
		}
	}
	l.rows = chunked[types.Tuple]{n: -1}
}

// Values returns an empty value slab with room for n values: the last one s
// holds, cleared, if that is large enough, else a new one (s nil: always).
func (s *Spare) Values(n int) []types.Value {
	if s == nil || len(s.values.items) == 0 || cap(s.values.items[len(s.values.items)-1]) < n {
		return make([]types.Value, 0, n)
	}
	v := s.values.pop()
	clear(v[:cap(v)])
	return v[:0]
}

// ReleaseValues gives value slabs to s once nothing will read a value in
// them again.
func (s *Spare) ReleaseValues(slabs [][]types.Value) {
	s.values.items = append(s.values.items, slabs...)
}

// index makes an empty index of n buckets over l on storage from s (nil: none):
// the smallest free bucket array that holds n, re-sliced to n (bucketOf masks
// by the length) and cleared, and s's free entry chunks while they last.
func (s *Spare) index(l *List, keyCols []int, n int) *HashTable {
	h := &HashTable{list: l, keyCols: keyCols}
	best := -1
	if s != nil {
		h.entries.free = &s.entries
		for i, b := range s.buckets.items {
			if cap(b) >= n && (best < 0 || cap(b) < cap(s.buckets.items[best])) {
				best = i
			}
		}
	}
	if best < 0 {
		h.buckets = make([]bucket, n)
		return h
	}
	h.buckets = s.buckets.take(best)[:n]
	clear(h.buckets)
	return h
}
