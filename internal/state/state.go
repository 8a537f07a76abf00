// Package state implements the state structures Tukwila factors out of its
// join and aggregation operators (paper §3.1–3.2), so that intermediate
// results can be shared and reused across the plans of an adaptively
// partitioned query. Every plan the engine lowers needs two of the paper's
// five structures: a List, and a HashTable — a chained hash index over a
// List. An aggregate's groups — the shared group-by of Figure 1 — live in a
// third, Groups: a record of values per group, found by the same kind of
// index over group ids. The sorted list, the hash over sorted data and the
// B+ tree, like the paging of state to disk (§3.4.2) and the spilling of
// overflowed hash partitions (§5), are not reproduced: no plan builds them
// and no strategy runs under a memory budget.
//
// Rows are buffered once. A List stores tuples in arrival order in
// fixed-size chunks, so it allocates what it holds and growth never moves a
// row. There is one chained index (index): an entry per id and a chain per
// bucket, in ids, so a resize re-links instead of rehashing. A HashTable is
// a List plus an index over its rows, and IndexList puts a second index, on
// another key, over rows a list already holds; Groups is record slabs beside
// an index over group ids. Every structure takes its storage from a Spare —
// the one allocation path — and gives it back to one: a finished phase's
// index storage to the run's next tables while its lists stay, and, when a
// run ends, every index, list chunk, group store and emitted-row slab of
// the run to the next run, through a process-wide pool of spares
// (TakeSpare, Return). An empty spare hands out nothing, so a structure on
// one allocates what it holds. A released structure panics on use rather
// than read as empty. A structure's consumers read more than its contents:
// chain length is what a probe is charged, Len/Buckets what the monitor
// prices a plan by, chain order the order results leave in. Those are
// contract (TestHashTableMatchesChainModel), whatever the layout.
package state

import "github.com/tukwila/adp/internal/types"

// chunkMin and chunkRows are the chunk geometry of every sequence in state —
// list rows, index entries and, beside those, group records: a sequence's
// first chunk starts at chunkMin elements, or in the smallest free chunk that
// holds them, and quadruples by copy until it holds chunkRows; every later
// chunk holds chunkRows. Past the first chunk growth never moves an element,
// so a sequence allocates what it holds — an appended slice, which Go grows
// by 1.25x once it is large, allocates about five times that.
const (
	chunkMin   = 16
	chunkShift = 10
	chunkRows  = 1 << chunkShift
)

// chunked is an append-only sequence in that geometry: element i lives at
// chunks[i>>chunkShift][i&(chunkRows-1)]. Its chunks come from, and all go
// back to, free (a Spare's stack of the kind).
type chunked[T any] struct {
	chunks [][]T
	n      int
	free   *stack[T]
}

func (c *chunked[T]) at(i int) *T { return &c.chunks[i>>chunkShift][i&(chunkRows-1)] }

func (c *chunked[T]) push(v T) {
	last := c.tail(1)
	c.chunks[last] = append(c.chunks[last], v)
	c.n++
}

func (c *chunked[T]) pushAll(vs []T) {
	for len(vs) > 0 {
		last := c.tail(len(vs))
		n := min(len(vs), cap(c.chunks[last])-len(c.chunks[last]))
		c.chunks[last] = append(c.chunks[last], vs[:n]...)
		c.n += n
		vs = vs[n:]
	}
}

// tail returns the index of the last chunk, which has room: grown first, for
// a caller about to append need elements, if it was full.
func (c *chunked[T]) tail(need int) int {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		c.grow(need)
		last = len(c.chunks) - 1
	}
	return last
}

// grow makes room at the tail for need more elements, or for as many as a
// chunk takes: a short tail chunk (the first one, or the exact tail reserve
// left) at least quadruples into a new one, a full one gets a successor.
func (c *chunked[T]) grow(need int) {
	last := len(c.chunks) - 1
	switch {
	case last < 0:
		c.chunks = append(c.chunks, c.free.chunk(min(max(need, chunkMin), chunkRows), chunkRows))
	case cap(c.chunks[last]) < chunkRows:
		tail := c.chunks[last]
		c.chunks[last] = append(c.free.chunk(min(max(4*cap(tail), len(tail)+need), chunkRows), chunkRows), tail...)
		c.free.push(tail)
	default:
		c.chunks = append(c.chunks, c.free.chunk(chunkRows, chunkRows))
	}
}

// reserve sizes an empty sequence for exactly n elements, all zero.
func (c *chunked[T]) reserve(n int) {
	for rest := n; rest > 0; rest -= chunkRows {
		size := min(rest, chunkRows)
		c.chunks = append(c.chunks, c.free.chunk(size, chunkRows)[:size])
	}
	c.n = n
}

// List is the simplest structure: an insertion-ordered tuple buffer with
// no key access (base partitions, materialized intermediates), and the row
// store every HashTable indexes. Rows are
// addressed by arrival position and never move once past the first chunk.
type List struct {
	schema *types.Schema
	rows   chunked[types.Tuple]
}

// NewList creates an empty list over the given layout, on storage from
// spare.
func NewList(schema *types.Schema, spare *Spare) *List {
	return &List{schema: schema, rows: chunked[types.Tuple]{free: &spare.rows}}
}

// live panics on a released list (Spare.ReleaseList), which must not read
// as empty.
func (l *List) live() {
	if l.rows.n < 0 {
		panic("state: list used after its rows were released")
	}
}

// Insert appends one tuple.
func (l *List) Insert(t types.Tuple) { l.live(); l.rows.push(t) }

// InsertBatch bulk-appends a batch of tuples — the vectorized counterpart
// of Insert used by batched sinks (leaf partition capture, join-result
// tees). Only the tuples are retained, never the batch slice itself.
func (l *List) InsertBatch(ts []types.Tuple) { l.live(); l.rows.pushAll(ts) }

// Len returns the number of stored tuples.
func (l *List) Len() int { l.live(); return l.rows.n }

// At returns the i-th row in arrival order.
func (l *List) At(i int) types.Tuple { l.live(); return *l.rows.at(i) }

// Chunks exposes the row storage in arrival order (read-only): every chunk
// but the last holds chunkRows rows.
func (l *List) Chunks() [][]types.Tuple { l.live(); return l.rows.chunks }

// Scan visits the tuples in arrival order; return false from fn to stop
// early.
func (l *List) Scan(fn func(types.Tuple) bool) {
	for _, chunk := range l.Chunks() {
		for _, t := range chunk {
			if !fn(t) {
				return
			}
		}
	}
}

// Schema returns the layout of the stored tuples.
func (l *List) Schema() *types.Schema { return l.schema }

// Rows copies the list into one flat slice, for callers off the hot path
// that need one (a materialized relation handed to a source).
func (l *List) Rows() []types.Tuple {
	out := make([]types.Tuple, 0, l.Len())
	for _, chunk := range l.rows.chunks {
		out = append(out, chunk...)
	}
	return out
}
