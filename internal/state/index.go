package state

// index is the chained hash index HashTable and Groups share: one {hash,
// next} entry per id (ids from 1, in chunked's geometry) and one {head,
// tail, count} per bucket. A new id goes to the tail of its bucket's chain,
// so a chain holds its ids in ascending order, also across a resize, which
// re-links every entry from its stored hash. Its storage comes from spare.
type index struct {
	buckets []bucket
	entries chunked[entry]
	load    int // ids per bucket at which a new id doubles the buckets; 0: fixed
	spare   *Spare
}

// entry is the index's record of one id: its key hash and the next id of
// its bucket's chain (0 ends it, -1: removed).
type entry struct {
	hash uint64
	next int32
}

// bucket is one chain: its first and last id (0 when empty) and its length.
type bucket struct{ head, tail, count int32 }

// newIndex makes an empty index of nbuckets (a power of two) buckets.
func newIndex(spare *Spare, nbuckets, load int) index {
	return index{buckets: spare.buckets.take(nbuckets), entries: chunked[entry]{free: &spare.entries}, load: load, spare: spare}
}

func (x *index) bucket(hash uint64) *bucket { return &x.buckets[hash&uint64(len(x.buckets)-1)] }

func (x *index) entry(id int32) *entry { return x.entries.at(int(id - 1)) }

// add gives the next id to a key of hash and links it, doubling the buckets
// first when the ids have reached load per bucket.
func (x *index) add(hash uint64) int32 {
	x.live()
	if x.load > 0 && x.entries.n >= x.load*len(x.buckets) {
		x.resize(2 * len(x.buckets))
	}
	x.entries.push(entry{hash: hash})
	id := int32(x.entries.n)
	x.link(id, x.entry(id))
	return id
}

// link appends id, whose entry e ends no chain yet (next 0), to its
// bucket's chain.
func (x *index) link(id int32, e *entry) {
	b := x.bucket(e.hash)
	if b.tail != 0 {
		x.entry(b.tail).next = id
	} else {
		b.head = id
	}
	b.tail = id
	b.count++
}

// unlink takes id out of its chain and marks its entry removed.
func (x *index) unlink(id int32) {
	e := x.entry(id)
	b := x.bucket(e.hash)
	p, prev := &b.head, int32(0)
	for *p != id {
		prev, p = *p, &x.entry(*p).next
	}
	*p = e.next
	if b.tail == id {
		b.tail = prev
	}
	b.count--
	e.next = -1
}

// resize moves the chains to n buckets, giving the old array to the spare.
func (x *index) resize(n int) {
	x.spare.buckets.push(x.buckets)
	x.buckets = x.spare.buckets.take(n)
	x.relink()
}

// relink chains every entry that is not removed into the (empty) bucket
// array, in id order.
func (x *index) relink() {
	id := int32(0)
	for _, chunk := range x.entries.chunks {
		for i := range chunk {
			id++
			if chunk[i].next >= 0 {
				chunk[i].next = 0
				x.link(id, &chunk[i])
			}
		}
	}
}

// release gives the bucket array and the entry chunks to s: used again, the
// index panics. Releasing it again gives nothing.
func (x *index) release(s *Spare) {
	if x.buckets == nil {
		return
	}
	s.buckets.push(x.buckets)
	for _, chunk := range x.entries.chunks {
		s.entries.push(chunk)
	}
	x.buckets, x.entries = nil, chunked[entry]{}
}

// live panics on a released index, which must not read as empty.
func (x *index) live() {
	if x.buckets == nil {
		panic("state: structure used after its index storage was released")
	}
}

// Index is the one index over bare ids, for a caller that keeps what an id
// names (the stitch-up's prefix rows): buckets fixed at BucketsFor of its
// ids, ids linked from the last to the first, each at the head of its chain,
// so chains ascend, and a walk (First, Next) that yields the ids whose stored
// hash is the probe's; the caller compares keys.
type Index struct{ ix index }

// Reset sizes x for ids 1..n, none linked, keeping its storage: a zero Index
// takes a bucket array and full entry chunks from spare, a used one gives
// back the chunks n does not need.
func (x *Index) Reset(spare *Spare, n int) {
	if x.ix.spare == nil {
		x.ix = newIndex(spare, BucketsFor(n), 0)
	}
	x.ix.live()
	e := &x.ix.entries
	need := (n + chunkRows - 1) >> chunkShift
	for ; len(e.chunks) > need; e.chunks = e.chunks[:len(e.chunks)-1] {
		e.free.push(e.chunks[len(e.chunks)-1])
	}
	for c := 0; c < need; c++ {
		if c == len(e.chunks) {
			e.chunks = append(e.chunks, e.free.take(chunkRows))
		}
		e.chunks[c] = e.chunks[c][:min(n-c<<chunkShift, chunkRows)]
	}
	e.n = n
	if nb := BucketsFor(n); cap(x.ix.buckets) < nb {
		x.ix.spare.buckets.push(x.ix.buckets)
		x.ix.buckets = x.ix.spare.buckets.take(nb)
	} else {
		x.ix.buckets = x.ix.buckets[:nb]
		clear(x.ix.buckets)
	}
}

// Link links id, under hash, at the head of its chain.
func (x *Index) Link(id int32, hash uint64) {
	b := x.ix.bucket(hash)
	*x.ix.entry(id) = entry{hash: hash, next: b.head}
	if b.tail == 0 {
		b.tail = id
	}
	b.head, b.count = id, b.count+1
}

// First returns the first id on hash's chain whose stored hash is hash, 0 if
// there is none.
func (x *Index) First(hash uint64) int32 {
	x.ix.live()
	return x.match(x.ix.bucket(hash).head, hash)
}

// Next returns the id after id on its chain whose stored hash is hash, 0 if
// there is none.
func (x *Index) Next(id int32, hash uint64) int32 { return x.match(x.ix.entry(id).next, hash) }

func (x *Index) match(id int32, hash uint64) int32 {
	for id != 0 {
		e := x.ix.entry(id)
		if e.hash == hash {
			return id
		}
		id = e.next
	}
	return 0
}

// ReleaseIndex gives x's storage to s once nothing will use x again: used
// again, x panics. Releasing x again gives nothing.
func (s *Spare) ReleaseIndex(x *Index) { x.ix.release(s) }
