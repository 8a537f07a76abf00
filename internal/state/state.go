// Package state implements Tukwila's state structures (paper §3.1–3.2):
// the storage components factored out of join and aggregation operators so
// that intermediate results can be shared and reused across the multiple
// plans of an adaptively partitioned query. Tukwila's five structures are
// all provided — list, sorted list, hash table, hash over sorted data
// (binary search within buckets), and B+ tree — together with the state
// structure registry that records (plan ID, expression, cardinality) for
// stitch-up planning, and a memory manager that simulates paging structures
// to disk in most-complex-expression-first order.
//
// Rows are buffered once. A List stores tuples in arrival order in
// fixed-size chunks, so it allocates what it holds and growth never moves a
// row; a HashTable owns no rows but indexes a List — an entry per row and a
// chain per bucket, in row ids — so grow re-links instead of rehashing, and
// IndexList puts a second index, on another key, over rows a list already
// holds. A structure's consumers read more than its contents: chain length
// is what a probe is charged, Len/Buckets what the monitor prices a plan
// by, chain order the order results leave in. Those are contract
// (TestHashTableMatchesChainModel), whatever the layout.
package state

import (
	"sort"

	"github.com/tukwila/adp/internal/types"
)

// Properties advertises what a structure supports; the optimizer and the
// stitch-up join consult these instead of depending on concrete types
// ("they advertise certain properties (e.g., supports key-based access,
// requires sorted data)", §3.1).
type Properties struct {
	KeyAccess     bool // supports key-based probing
	Sorted        bool // iteration yields key order
	RequiresSort  bool // input must arrive in key order
	SupportsRange bool // supports range scans
}

// Structure is the common interface of all state structures. Tuples are
// stored in the physical layout of the producing plan; consumers with a
// different layout read through a types.Adapter.
type Structure interface {
	// Insert adds one tuple.
	Insert(t types.Tuple)
	// Len returns the number of stored tuples.
	Len() int
	// Scan iterates all tuples; return false from fn to stop early.
	Scan(fn func(t types.Tuple) bool)
	// Properties reports the structure's advertised capabilities.
	Properties() Properties
	// Schema returns the layout of stored tuples.
	Schema() *types.Schema
}

// Keyed is a structure supporting key-based access on its build key.
type Keyed interface {
	Structure
	// KeyCols returns the column positions forming the access key.
	KeyCols() []int
	// Probe visits all tuples whose key equals the given key values.
	Probe(key []types.Value, fn func(t types.Tuple) bool)
}

// HashedProber is the allocation-free probe fast path advertised by
// hash-based structures: the caller hashes the key once (typically shared
// with the build-side insert) and probes without any per-call allocation.
// Operators type-assert for it and fall back to Keyed.Probe otherwise.
type HashedProber interface {
	Keyed
	// ProbeHashed visits tuples matching key, whose hash the caller
	// precomputed with Tuple.HashKey over the key's positions.
	ProbeHashed(hash uint64, key types.Tuple, fn func(t types.Tuple) bool)
}

// chunkMin and chunkRows are the chunk geometry List and HashTable share:
// a sequence's first chunk starts at chunkMin rows and doubles (by copy, at
// most chunkRows rows in all) until it holds chunkRows; every later chunk
// is allocated at chunkRows. Past the first chunk growth never moves a row,
// so a sequence allocates what it holds — an appended slice, which Go grows
// by 1.25x once it is large, allocates about five times that.
const (
	chunkMin   = 16
	chunkShift = 10
	chunkRows  = 1 << chunkShift
)

// chunked is an append-only sequence in that geometry: element i lives at
// chunks[i>>chunkShift][i&(chunkRows-1)].
type chunked[T any] struct {
	chunks [][]T
	n      int
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
// left) at least doubles, a full one gets a successor.
func (c *chunked[T]) grow(need int) {
	last := len(c.chunks) - 1
	switch {
	case last < 0:
		c.chunks = append(c.chunks, make([]T, 0, min(max(need, chunkMin), chunkRows)))
	case cap(c.chunks[last]) < chunkRows:
		tail := c.chunks[last]
		c.chunks[last] = append(make([]T, 0, min(max(2*cap(tail), len(tail)+need), chunkRows)), tail...)
	default:
		c.chunks = append(c.chunks, make([]T, 0, chunkRows))
	}
}

// reserve sizes an empty sequence for exactly n elements, all zero.
func (c *chunked[T]) reserve(n int) {
	for rest := n; rest > 0; rest -= chunkRows {
		c.chunks = append(c.chunks, make([]T, min(rest, chunkRows)))
	}
	c.n = n
}

// List is the simplest structure: an insertion-ordered tuple buffer with
// no key access (nested-loops inners, base partitions, materialized
// intermediates), and the row store every HashTable indexes. Rows are
// addressed by arrival position and never move once past the first chunk.
type List struct {
	schema *types.Schema
	rows   chunked[types.Tuple]
}

// NewList creates an empty list over the given layout.
func NewList(schema *types.Schema) *List { return &List{schema: schema} }

// Insert implements Structure.
func (l *List) Insert(t types.Tuple) { l.rows.push(t) }

// InsertBatch bulk-appends a batch of tuples — the vectorized counterpart
// of Insert used by batched sinks (leaf partition capture, join-result
// tees). Only the tuples are retained, never the batch slice itself.
func (l *List) InsertBatch(ts []types.Tuple) { l.rows.pushAll(ts) }

// Len implements Structure.
func (l *List) Len() int { return l.rows.n }

// At returns the i-th row in arrival order.
func (l *List) At(i int) types.Tuple { return *l.rows.at(i) }

// Chunks exposes the row storage in arrival order (read-only): every chunk
// but the last holds chunkRows rows.
func (l *List) Chunks() [][]types.Tuple { return l.rows.chunks }

// Scan implements Structure.
func (l *List) Scan(fn func(types.Tuple) bool) {
	for _, chunk := range l.rows.chunks {
		for _, t := range chunk {
			if !fn(t) {
				return
			}
		}
	}
}

// Properties implements Structure.
func (l *List) Properties() Properties { return Properties{} }

// Schema implements Structure.
func (l *List) Schema() *types.Schema { return l.schema }

// Rows copies the list into one flat slice, for callers off the hot path
// that need one (a materialized relation handed to a source).
func (l *List) Rows() []types.Tuple {
	out := make([]types.Tuple, 0, l.rows.n)
	for _, chunk := range l.rows.chunks {
		out = append(out, chunk...)
	}
	return out
}

// SortedList keeps tuples ordered by a key, supporting binary-search
// probes and ordered scans. Inserts of already-ordered input are O(1)
// appends (the common data-integration case of a sorted source); an
// out-of-order insert falls back to binary insertion.
type SortedList struct {
	schema  *types.Schema
	keyCols []int
	rows    []types.Tuple
}

// NewSortedList creates an empty sorted list keyed on keyCols.
func NewSortedList(schema *types.Schema, keyCols []int) *SortedList {
	return &SortedList{schema: schema, keyCols: keyCols}
}

// Insert implements Structure, maintaining order.
func (s *SortedList) Insert(t types.Tuple) {
	n := len(s.rows)
	if n == 0 || types.CompareKey(s.rows[n-1], s.keyCols, t, s.keyCols) <= 0 {
		s.rows = append(s.rows, t)
		return
	}
	i := sort.Search(n, func(i int) bool {
		return types.CompareKey(s.rows[i], s.keyCols, t, s.keyCols) > 0
	})
	s.rows = append(s.rows, nil)
	copy(s.rows[i+1:], s.rows[i:])
	s.rows[i] = t
}

// Len implements Structure.
func (s *SortedList) Len() int { return len(s.rows) }

// Scan implements Structure (key order).
func (s *SortedList) Scan(fn func(types.Tuple) bool) {
	for _, t := range s.rows {
		if !fn(t) {
			return
		}
	}
}

// Properties implements Structure.
func (s *SortedList) Properties() Properties {
	return Properties{KeyAccess: true, Sorted: true, SupportsRange: true}
}

// Schema implements Structure.
func (s *SortedList) Schema() *types.Schema { return s.schema }

// KeyCols implements Keyed.
func (s *SortedList) KeyCols() []int { return s.keyCols }

// Probe implements Keyed via binary search.
func (s *SortedList) Probe(key []types.Value, fn func(types.Tuple) bool) {
	probe := types.Tuple(key)
	idx := types.Identity(len(key))
	lo := sort.Search(len(s.rows), func(i int) bool {
		return types.CompareKey(s.rows[i], s.keyCols, probe, idx) >= 0
	})
	for i := lo; i < len(s.rows); i++ {
		if types.CompareKey(s.rows[i], s.keyCols, probe, idx) != 0 {
			return
		}
		if !fn(s.rows[i]) {
			return
		}
	}
}

// ScanRange visits tuples with key in [lo, hi] (inclusive), in order.
func (s *SortedList) ScanRange(lo, hi []types.Value, fn func(types.Tuple) bool) {
	idx := types.Identity(len(lo))
	start := sort.Search(len(s.rows), func(i int) bool {
		return types.CompareKey(s.rows[i], s.keyCols, types.Tuple(lo), idx) >= 0
	})
	for i := start; i < len(s.rows); i++ {
		if types.CompareKey(s.rows[i], s.keyCols, types.Tuple(hi), idx) > 0 {
			return
		}
		if !fn(s.rows[i]) {
			return
		}
	}
}

// Rows exposes the ordered backing slice.
func (s *SortedList) Rows() []types.Tuple { return s.rows }
