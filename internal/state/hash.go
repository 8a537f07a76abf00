package state

import "github.com/tukwila/adp/internal/types"

// defaultBuckets is the initial bucket count for hash structures. Buckets
// in Tukwila "cannot be dynamically adjusted, meaning that an overly large
// relation will still suffer from many bucket collisions" (§4.4) — we
// reproduce that behaviour when Fixed is set, and grow otherwise.
const defaultBuckets = 1024

// HashTable is the workhorse state structure: a bucketed chaining hash
// index, keyed on a column subset, over a List. Rows live once, in arrival
// order, in the list; the index keeps one {hash, next} entry per row beside
// it and one {head, tail, count} per bucket, all in 1-based row ids. A
// bucket's chain is therefore its rows in arrival order, and stays so
// across grow, which re-links every entry from its stored hash — no row is
// rehashed, copied or moved. Several indexes may share one list (IndexList).
// Row ids are int32: a table indexes at most 2^31-1 rows.
//
// Chain order, chain length and the bucket count are part of the contract,
// not layout detail: a pipelined join charges the virtual clock by the
// chain it walks, the corrective monitor reads Len/Buckets, and results
// leave in chain order.
type HashTable struct {
	list    *List
	keyCols []int
	entries chunked[entry]
	buckets []bucket
	// Fixed prevents bucket-array growth (reproduces mis-estimated
	// allocation collisions).
	Fixed bool
}

// entry is the index's record of one row: its key hash and the next row of
// its bucket's chain (0 ends it).
type entry struct {
	hash uint64
	next int32
}

// bucket is one chain: its first and last row (0 when empty) and its length.
type bucket struct{ head, tail, count int32 }

// NewHashTable creates a hash table keyed on keyCols over the layout
// schema.
func NewHashTable(schema *types.Schema, keyCols []int) *HashTable {
	return NewHashTableSized(schema, keyCols, defaultBuckets, nil)
}

// NewHashTableSized creates a hash table with an explicit bucket count (for
// the optimizer to size from cardinality estimates), on storage from spare:
// its index's and its list's.
func NewHashTableSized(schema *types.Schema, keyCols []int, nbuckets int, spare *Spare) *HashTable {
	l := NewList(schema)
	if spare != nil {
		l.rows.free = &spare.rows
	}
	return spare.index(l, keyCols, ceilPow2(max(nbuckets, 1)))
}

// IndexList builds a second index, keyed on keyCols, over the rows l
// already holds — the stitch-up join "will rehash one of the structures
// according to the join key" when key compatibility fails (§3.4.3, §3.2),
// without copying a row. Buckets and chains are exactly those of a growing
// table the rows were inserted into one by one, stored once at their final
// size (from spare). l must not grow while the index is in use.
func IndexList(l *List, keyCols []int, spare *Spare) *HashTable {
	h := spare.index(l, keyCols, BucketsFor(l.Len()))
	h.entries.reserve(l.Len())
	for c, chunk := range l.Chunks() {
		for i, t := range chunk {
			h.entries.chunks[c][i].hash = t.HashKey(keyCols)
		}
	}
	h.relink()
	return h
}

// BucketsFor returns the bucket count a growing table holds after n
// inserts: the default, doubled each time an insert finds four rows per
// bucket.
func BucketsFor(n int) int {
	b := defaultBuckets
	for n-1 >= 4*b {
		b <<= 1
	}
	return b
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (h *HashTable) bucketOf(hash uint64) int {
	return int(hash & uint64(len(h.buckets)-1))
}

// link appends row id, whose entry is e, to its bucket's chain.
func (h *HashTable) link(id int32, e *entry) {
	b := &h.buckets[h.bucketOf(e.hash)]
	if b.tail != 0 {
		h.entries.at(int(b.tail - 1)).next = id
	} else {
		b.head = id
	}
	b.tail = id
	b.count++
}

// row returns row id and its chain successor: two independent loads, issued
// together so that a chain walk waits for one cache miss per step, not two.
func (h *HashTable) row(id int32) (types.Tuple, int32) {
	c, i := int(id-1)>>chunkShift, int(id-1)&(chunkRows-1)
	return h.list.rows.chunks[c][i], h.entries.chunks[c][i].next
}

// List returns the rows the table indexes, in arrival order.
func (h *HashTable) List() *List { return h.list }

// Insert adds one tuple, hashing its key.
func (h *HashTable) Insert(t types.Tuple) {
	h.InsertHashed(t.HashKey(h.keyCols), t)
}

// InsertHashed inserts a tuple whose key hash the caller already computed
// (a pipelined join hashes each tuple once and reuses the hash for both
// the build insert and the opposite-side probe).
func (h *HashTable) InsertHashed(hash uint64, t types.Tuple) {
	h.live()
	if !h.Fixed && h.entries.n >= 4*len(h.buckets) {
		h.grow()
	}
	h.list.Insert(t)
	h.entries.push(entry{hash: hash})
	id := h.entries.n
	h.link(int32(id), h.entries.at(id-1))
}

// InsertHashedBatch inserts a batch of tuples with a precomputed hash
// vector (hashes[i] is ts[i]'s key hash, e.g. from the key sweep of a
// signed batch). State evolution — growth timing, bucket chain
// order — is exactly that of calling InsertHashed per tuple.
func (h *HashTable) InsertHashedBatch(hashes []uint64, ts []types.Tuple) {
	for i, t := range ts {
		h.InsertHashed(hashes[i], t)
	}
}

// ProbeHashedBatch drives one probe per batch row: row i probes with hash
// hashes[i] and the key columns keyCols of keys[i], and fn receives the
// row index with each matching tuple (return false to stop that
// row's probe; later rows still probe). It is the batch companion of
// ProbeHashed — one hash vector and zero per-row setup.
//
//adp:hotpath gated by BenchmarkHashTableProbe (scripts/check_allocs.sh)
func (h *HashTable) ProbeHashedBatch(hashes []uint64, keys []types.Tuple, keyCols []int, fn func(row int, match types.Tuple) bool) {
	for i, key := range keys {
		for id := h.buckets[h.bucketOf(hashes[i])].head; id != 0; {
			t, next := h.row(id)
			if t.KeyEquals(h.keyCols, key, keyCols) {
				if !fn(i, t) {
					break
				}
			}
			id = next
		}
	}
}

// grow doubles the bucket array and re-links every row, in arrival order,
// from its stored hash: each chain keeps its order, nothing is rehashed and
// no row moves.
func (h *HashTable) grow() {
	h.buckets = make([]bucket, 2*len(h.buckets))
	h.relink()
}

// relink chains every entry into the (empty) bucket array, in arrival order.
func (h *HashTable) relink() {
	id := int32(0)
	for _, chunk := range h.entries.chunks {
		for i := range chunk {
			id++
			chunk[i].next = 0
			h.link(id, &chunk[i])
		}
	}
}

// live panics on a released table, which must not read as empty (a probe
// panics without it, on the nil bucket array).
func (h *HashTable) live() {
	if h.buckets == nil {
		panic("state: hash table used after its index storage was released")
	}
}

// Len returns the number of indexed rows.
func (h *HashTable) Len() int { h.live(); return h.entries.n }

// Buckets returns the bucket count; Len/Buckets is the expected probe
// chain length the re-optimizer reads as a sizing-health signal (§3.3
// exposes structure size/cardinality to the decision modules).
func (h *HashTable) Buckets() int { h.live(); return len(h.buckets) }

// Scan visits the rows in bucket order, each chain in arrival order (not
// key-sorted); return false from fn to stop early.
func (h *HashTable) Scan(fn func(types.Tuple) bool) {
	h.live()
	for _, b := range h.buckets {
		for id := b.head; id != 0; {
			t, next := h.row(id)
			if !fn(t) {
				return
			}
			id = next
		}
	}
}

// KeyCols returns the column positions forming the key.
func (h *HashTable) KeyCols() []int { return h.keyCols }

// Probe visits the rows whose key equals key, in chain order.
func (h *HashTable) Probe(key []types.Value, fn func(types.Tuple) bool) {
	probe := types.Tuple(key)
	h.ProbeHashed(probe.HashKey(types.Identity(len(key))), probe, fn)
}

// ProbeHashed is the allocation-free probe fast path: the caller supplies
// the key's hash (computed once per tuple and shared between insert and
// probe) and the key as a tuple prefix. Steady-state it performs zero
// allocations.
//
//adp:hotpath gated by BenchmarkHashTableProbe (scripts/check_allocs.sh)
func (h *HashTable) ProbeHashed(hash uint64, key types.Tuple, fn func(types.Tuple) bool) {
	idx := types.Identity(len(key))
	for id := h.buckets[h.bucketOf(hash)].head; id != 0; {
		t, next := h.row(id)
		if t.KeyEquals(h.keyCols, key, idx) {
			if !fn(t) {
				return
			}
		}
		id = next
	}
}

// ChainLen returns the number of tuples in the bucket the key hashes to —
// the probe's scan work. Under-sized tables (built from under-estimated
// cardinalities) have long chains: "hash buckets in our system cannot be
// dynamically adjusted, meaning that an overly large relation will still
// suffer from many bucket collisions" (§4.4).
func (h *HashTable) ChainLen(key []types.Value) int {
	probe := types.Tuple(key)
	return h.ChainLenHashed(probe.HashKey(types.Identity(len(key))))
}

// ChainLenHashed is ChainLen for a precomputed key hash.
func (h *HashTable) ChainLenHashed(hash uint64) int {
	return int(h.buckets[h.bucketOf(hash)].count)
}
