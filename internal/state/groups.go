package state

import (
	"math/bits"
	"slices"

	"github.com/tukwila/adp/internal/types"
)

// Groups is the state of a group-by: a record of width values per group —
// its key values, then whatever its owner keeps beside them — and a chained
// hash index that finds a group by its key. Identity is strict
// (types.StrictEqual), as the byte key codec groups: Int(1), Float(1) and
// Str("1") are three groups. A group is an id from 1 whose record stays put
// past the first chunk; a removed group's id and record go to the next. Records and index entries
// live in chunks of chunkRows groups, the first of which starts at chunkMin
// and grows, so a small store stays small; full chunks and bucket arrays
// come from, and go back to, a Spare.
type Groups struct {
	keys, width int
	// Chunk c of vals and of entries holds ids c<<chunkShift+1 on: their
	// records, and their key hash and chain successor (-1: removed).
	vals    [][]types.Value
	entries [][]entry
	n       int     // ids handed out
	free    []int32 // removed ids, reused last first
	buckets []bucket
	spare   *Spare
}

// NewGroups makes an empty store of records of width values, the first keys
// of them the group's key, on storage from spare (nil: its own).
func NewGroups(keys, width int, spare *Spare) *Groups {
	return &Groups{keys: keys, width: width, buckets: spare.bucketArray(chunkMin), spare: spare}
}

func (g *Groups) entry(id int32) *entry {
	return &g.entries[(id-1)>>chunkShift][(id-1)&(chunkRows-1)]
}

// Record returns group id's record. It moves when the store outgrows its
// first chunk: a caller reads it again after Find adds a group.
func (g *Groups) Record(id int32) []types.Value {
	off := int((id-1)&(chunkRows-1)) * g.width
	return g.vals[(id-1)>>chunkShift][off : off+g.width : off+g.width]
}

// Len returns the number of groups. A released store panics: it must not
// read as empty.
func (g *Groups) Len() int {
	if g.buckets == nil {
		panic("state: group store used after its storage was released")
	}
	return g.n - len(g.free)
}

// Find returns the group of key, adding it — the key, then zero values — if
// there is none. key may be scratch storage.
func (g *Groups) Find(key []types.Value) int32 {
	hash := types.Tuple(key).HashKey(types.Identity(len(key)))
	if id := g.lookup(hash, key); id != 0 {
		return id
	}
	id := int32(g.n + 1)
	if n := len(g.free); n > 0 {
		id, g.free = g.free[n-1], g.free[:n-1]
	} else {
		g.grow()
	}
	g.entry(id).hash = hash
	rec := g.Record(id)
	clear(rec[copy(rec, key):])
	g.link(id)
	return id
}

// lookup returns the group of key, 0 if there is none.
func (g *Groups) lookup(hash uint64, key []types.Value) int32 {
	for id := g.buckets[hash&uint64(len(g.buckets)-1)].head; id != 0; {
		e := g.entry(id)
		if e.hash == hash && slices.EqualFunc(g.Record(id)[:g.keys], key, types.StrictEqual) {
			return id
		}
		id = e.next
	}
	return 0
}

// grow adds an id, doubling the buckets when the ids outnumber them, and
// makes room for its record: a first chunk of chunkMin ids that quadruples
// by copy — a table copies what it holds about one and a third times, not
// twice — then full successors.
func (g *Groups) grow() {
	if g.n == len(g.buckets) {
		g.rehash(2 * g.n)
	}
	c := len(g.entries) - 1
	switch g.n++; {
	case c >= 0 && g.n <= c<<chunkShift+len(g.entries[c]):
	case g.n <= chunkRows:
		e, v := g.chunk(max(4*(g.n-1), chunkMin))
		if c == 0 {
			copy(e, g.entries[0])
			copy(v, g.vals[0])
		}
		g.entries, g.vals = append(g.entries[:0], e), append(g.vals[:0], v)
	default:
		e, v := g.chunk(chunkRows)
		g.entries, g.vals = append(g.entries, e), append(g.vals, v)
	}
}

// chunk returns storage for n ids: a full chunk from the spare while it has
// entry chunks (Spare.Values allocates a slab it lacks), else a new one.
func (g *Groups) chunk(n int) ([]entry, []types.Value) {
	if s := g.spare; n == chunkRows && s != nil && len(s.entries.items) > 0 {
		return s.entries.pop()[:n], s.Values(n * g.width)[:n*g.width]
	}
	return make([]entry, n), make([]types.Value, n*g.width)
}

// link puts id at the head of its bucket's chain.
func (g *Groups) link(id int32) {
	e := g.entry(id)
	b := &g.buckets[e.hash&uint64(len(g.buckets)-1)]
	e.next, b.head = b.head, id
}

// rehash moves the index to n buckets, giving the old array to the spare.
func (g *Groups) rehash(n int) {
	if g.spare != nil {
		g.spare.buckets.push(g.buckets)
	}
	g.buckets = g.spare.bucketArray(n)
	for id := int32(1); id <= int32(g.n); id++ {
		if g.entry(id).next >= 0 {
			g.link(id)
		}
	}
}

// Remove takes group id out of the index; its id goes to the next group.
func (g *Groups) Remove(id int32) {
	e := g.entry(id)
	p := &g.buckets[e.hash&uint64(len(g.buckets)-1)].head
	for *p != id {
		p = &g.entry(*p).next
	}
	*p, e.next = e.next, -1
	g.free = append(g.free, id)
}

// IDs appends the ids of the groups to dst, ascending.
func (g *Groups) IDs(dst []int32) []int32 {
	dst = slices.Grow(dst, g.Len())
	for id := int32(1); id <= int32(g.n); id++ {
		if g.entry(id).next >= 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

// Adopt moves src's chunks after g's, leaving src empty, if g's spare holds
// none to copy src's groups into (that would allocate what src holds) and
// the chunks line up: g has none, or g's last and src's first are full. The
// ids g's last chunk leaves unused go free, and so does a moved group whose
// key g holds, after merge(into, from) folds it into g's. Adopt reports
// whether it moved the groups.
func (g *Groups) Adopt(src *Groups, merge func(into, from int32)) bool {
	if s, c := g.spare, len(g.entries)-1; s != nil && len(s.entries.items) > 0 ||
		c >= 0 && (len(g.entries[c]) < chunkRows || len(src.entries) > 0 && len(src.entries[0]) < chunkRows) {
		return false
	}
	base := int32(len(g.entries) << chunkShift)
	if n := len(g.buckets); int(base)+src.n > n {
		g.rehash(n << bits.Len(uint(int(base)+src.n-1)/uint(n)))
	}
	for id := int32(g.n) + 1; id <= base; id++ {
		g.entry(id).next, g.free = -1, append(g.free, id)
	}
	g.entries, g.vals, g.n = append(g.entries, src.entries...), append(g.vals, src.vals...), int(base)+src.n
	clear(src.buckets)
	src.entries, src.vals, src.n, src.free = src.entries[:0], src.vals[:0], 0, src.free[:0]
	for id := base + 1; id <= int32(g.n); id++ {
		if into := g.lookup(g.entry(id).hash, g.Record(id)[:g.keys]); into != 0 {
			merge(into, id)
			g.entry(id).next, g.free = -1, append(g.free, id)
		} else {
			g.link(id)
		}
	}
	return true
}

// Reset empties the store and keeps its storage for the groups to come.
func (g *Groups) Reset() {
	clear(g.buckets)
	g.n, g.free = 0, g.free[:0]
}

// ReleaseGroups gives g's bucket array and full chunks to s once nothing
// will use g again: used again, g panics. Releasing g again gives nothing.
func (s *Spare) ReleaseGroups(g *Groups) {
	if g.buckets == nil {
		return
	}
	s.buckets.push(g.buckets)
	for c, e := range g.entries {
		if len(e) == chunkRows {
			s.entries.push(e)
			s.values.push(g.vals[c])
		}
	}
	g.buckets, g.entries, g.vals = nil, nil, nil
}
