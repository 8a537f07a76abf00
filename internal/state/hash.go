package state

import "github.com/tukwila/adp/internal/types"

// defaultBuckets is the initial bucket count of a growing table, which
// doubles its buckets at rowsPerBucket. Buckets in Tukwila "cannot be
// dynamically adjusted, meaning that an overly large relation will still
// suffer from many bucket collisions" (§4.4) — a table sized from an
// estimate reproduces that behaviour; only one built without one grows.
const defaultBuckets, rowsPerBucket = 1024, 4

// HashTable is the workhorse state structure: a chained hash index (index),
// keyed on a column subset, over a List. Rows live once, in arrival order,
// in the list; the index's entries sit beside them in the same geometry, so
// a bucket's chain is its rows in arrival order. Several indexes may share
// one list (IndexList). A table indexes at most 2^31-1 rows.
//
// Chain order, chain length and the bucket count are part of the contract,
// not layout detail: a pipelined join charges the virtual clock by the
// chain it walks, the corrective monitor reads Len/Buckets, and results
// leave in chain order.
type HashTable struct {
	list    *List
	keyCols []int
	ix      index
}

// NewHashTable creates a growing hash table keyed on keyCols over the
// layout schema, on storage of its own.
func NewHashTable(schema *types.Schema, keyCols []int) *HashTable {
	return NewHashTableSized(schema, keyCols, 0, &Spare{})
}

// NewHashTableSized creates a hash table on storage from spare. An explicit
// bucket count (the optimizer's, from cardinality estimates) is fixed for
// the table's life; with none (0) the table starts at the default and grows.
func NewHashTableSized(schema *types.Schema, keyCols []int, nbuckets int, spare *Spare) *HashTable {
	load := 0
	if nbuckets <= 0 {
		nbuckets, load = defaultBuckets, rowsPerBucket
	}
	return newHashTable(NewList(schema, spare), keyCols, ceilPow2(nbuckets), load, spare)
}

func newHashTable(l *List, keyCols []int, nbuckets, load int, spare *Spare) *HashTable {
	return &HashTable{list: l, keyCols: keyCols, ix: newIndex(spare, nbuckets, load)}
}

// IndexList builds a second index, keyed on keyCols, over the rows l
// already holds — the stitch-up join "will rehash one of the structures
// according to the join key" when key compatibility fails (§3.4.3, §3.2),
// without copying a row. Buckets and chains are exactly those of a growing
// table the rows were inserted into one by one, stored once at their final
// size (from spare). While the index is in use, l grows only through it.
func IndexList(l *List, keyCols []int, spare *Spare) *HashTable {
	h := newHashTable(l, keyCols, BucketsFor(l.Len()), rowsPerBucket, spare)
	h.ix.entries.reserve(l.Len())
	for c, chunk := range l.Chunks() {
		for i, t := range chunk {
			h.ix.entries.chunks[c][i].hash = t.HashKey(keyCols)
		}
	}
	h.ix.relink()
	return h
}

// BucketsFor returns the bucket count a growing table holds after n
// inserts: the default, doubled each time an insert finds four rows per
// bucket.
func BucketsFor(n int) int {
	b := defaultBuckets
	for n-1 >= rowsPerBucket*b {
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

// row returns row id and its index entry (its key hash and chain successor):
// two independent loads, issued together so that a chain walk waits for one
// cache miss per step, not two.
func (h *HashTable) row(id int32) (types.Tuple, entry) {
	c, i := int(id-1)>>chunkShift, int(id-1)&(chunkRows-1)
	return h.list.rows.chunks[c][i], h.ix.entries.chunks[c][i]
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
//
// It is the index's add written out: a 2M-row build runs a fifth slower
// when it calls add (BenchmarkHashTableInsert).
func (h *HashTable) InsertHashed(hash uint64, t types.Tuple) {
	x := &h.ix
	x.live()
	if x.load > 0 && x.entries.n >= x.load*len(x.buckets) {
		x.resize(2 * len(x.buckets))
	}
	h.list.Insert(t)
	x.entries.push(entry{hash: hash})
	id := int32(x.entries.n)
	x.link(id, x.entry(id))
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
// row's probe; later rows still probe). A row matches when its stored hash
// is the probe's and its key is types.Equal to the probe key — the hash's
// own equivalence, so a bucket count never changes the matches. It is the
// batch companion of ProbeHashed — one hash vector and zero per-row setup.
//
//adp:hotpath gated by BenchmarkHashTableProbe (scripts/check_allocs.sh)
func (h *HashTable) ProbeHashedBatch(hashes []uint64, keys []types.Tuple, keyCols []int, fn func(row int, match types.Tuple) bool) {
	for i, key := range keys {
		for id := h.ix.bucket(hashes[i]).head; id != 0; {
			t, e := h.row(id)
			if e.hash == hashes[i] && t.KeyEquals(h.keyCols, key, keyCols) {
				if !fn(i, t) {
					break
				}
			}
			id = e.next
		}
	}
}

// Len returns the number of indexed rows.
func (h *HashTable) Len() int { h.ix.live(); return h.ix.entries.n }

// Buckets returns the bucket count; Len/Buckets is the expected probe
// chain length the re-optimizer reads as a sizing-health signal (§3.3
// exposes structure size/cardinality to the decision modules).
func (h *HashTable) Buckets() int { h.ix.live(); return len(h.ix.buckets) }

// Scan visits the rows in bucket order, each chain in arrival order (not
// key-sorted); return false from fn to stop early.
func (h *HashTable) Scan(fn func(types.Tuple) bool) {
	h.ix.live()
	for _, b := range h.ix.buckets {
		for id := b.head; id != 0; {
			t, e := h.row(id)
			if !fn(t) {
				return
			}
			id = e.next
		}
	}
}

// ScanHashed visits the rows in arrival order, each with its stored key hash.
func (h *HashTable) ScanHashed(fn func(hash uint64, t types.Tuple)) {
	h.ix.live()
	for c, chunk := range h.list.Chunks() {
		for i, t := range chunk {
			fn(h.ix.entries.chunks[c][i].hash, t)
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
// probe) and the key as a tuple prefix. It matches as ProbeHashedBatch does.
// Steady-state it performs zero allocations.
//
//adp:hotpath gated by BenchmarkHashTableProbe (scripts/check_allocs.sh)
func (h *HashTable) ProbeHashed(hash uint64, key types.Tuple, fn func(types.Tuple) bool) {
	idx := types.Identity(len(key))
	for id := h.ix.bucket(hash).head; id != 0; {
		t, e := h.row(id)
		if e.hash == hash && t.KeyEquals(h.keyCols, key, idx) {
			if !fn(t) {
				return
			}
		}
		id = e.next
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
	return int(h.ix.bucket(hash).count)
}
