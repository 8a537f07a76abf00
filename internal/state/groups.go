package state

import (
	"math/bits"
	"slices"

	"github.com/tukwila/adp/internal/types"
)

// Groups is the state of a group-by: a record of width values per group —
// its key values, then whatever its owner keeps beside them — and a chained
// hash index (index) that finds a group by its key. Identity is strict
// (types.StrictEqual), as the byte key codec groups: Int(1), Float(1) and
// Str("1") are three groups. A group is an id from 1 whose record stays put
// past the first chunk; a removed group's id and record go to the next.
// Records live beside the index's entries, a slab of width values per entry
// of each entry chunk, so they grow as the entries do; slabs come from, and
// go back to, the index's Spare.
type Groups struct {
	keys, width int
	ix          index
	vals        [][]types.Value // vals[c]: the records of entry chunk c
	free        []int32         // removed ids, reused last first
}

// groupsPerBucket is the load at which a new group doubles the buckets.
const groupsPerBucket = 1

// NewGroups makes an empty store of records of width values, the first keys
// of them the group's key, on storage from spare.
func NewGroups(keys, width int, spare *Spare) *Groups {
	return &Groups{keys: keys, width: width, ix: newIndex(spare, chunkMin, groupsPerBucket)}
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
	g.ix.live()
	return g.ix.entries.n - len(g.free)
}

// Find returns the group of key, adding it — the key, then zero values — if
// there is none. key may be scratch storage.
func (g *Groups) Find(key []types.Value) int32 {
	hash := types.Tuple(key).HashKey(types.Identity(len(key)))
	if id := g.lookup(hash, key); id != 0 {
		return id
	}
	var id int32
	if n := len(g.free); n > 0 {
		id, g.free = g.free[n-1], g.free[:n-1]
		e := g.ix.entry(id)
		e.hash, e.next = hash, 0
		g.ix.link(id, e)
	} else {
		id = g.ix.add(hash)
		g.grow(int(id-1) >> chunkShift)
	}
	rec := g.Record(id)
	clear(rec[copy(rec, key):])
	return id
}

// lookup returns the group of key, 0 if there is none.
func (g *Groups) lookup(hash uint64, key []types.Value) int32 {
	for id := g.ix.bucket(hash).head; id != 0; {
		e := g.ix.entry(id)
		if e.hash == hash && slices.EqualFunc(g.Record(id)[:g.keys], key, types.StrictEqual) {
			return id
		}
		id = e.next
	}
	return 0
}

// grow sizes entry chunk c's records to the chunk, from the spare: a first
// slab grows by copy, and its old one goes back.
func (g *Groups) grow(c int) {
	if c == len(g.vals) {
		g.vals = append(g.vals, nil)
	}
	if n, old := cap(g.ix.entries.chunks[c])*g.width, g.vals[c]; len(old) < n {
		g.vals[c] = append(g.ix.spare.values.chunk(n, chunkRows*g.width), old...)[:n]
		if old != nil {
			g.ix.spare.values.push(old)
		}
	}
}

// Remove takes group id out of the index; its id goes to the next group.
func (g *Groups) Remove(id int32) {
	g.ix.unlink(id)
	g.free = append(g.free, id)
}

// IDs appends the ids of the groups to dst, ascending.
func (g *Groups) IDs(dst []int32) []int32 {
	dst = slices.Grow(dst, g.Len())
	for id := int32(1); id <= int32(g.ix.entries.n); id++ {
		if g.ix.entry(id).next >= 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

// Adopt moves src's chunks after g's, leaving src empty, if g's spare holds
// no full entry chunk to copy src's groups into (that would allocate what src
// holds) and the chunks line up: g has none, or g's last and src's first are
// full-sized. The ids g's last chunk leaves unused go free, and so does a
// moved group whose key g holds, after merge(into, from) folds it into g's.
// Adopt reports whether it moved the groups.
func (g *Groups) Adopt(src *Groups, merge func(into, from int32)) bool {
	ge, se := &g.ix.entries, &src.ix.entries
	c := len(ge.chunks) - 1
	if slices.ContainsFunc(g.ix.spare.entries.items, func(c []entry) bool { return cap(c) == chunkRows }) ||
		c >= 0 && (cap(ge.chunks[c]) < chunkRows || len(se.chunks) > 0 && cap(se.chunks[0]) < chunkRows) {
		return false
	}
	base := int32(len(ge.chunks) << chunkShift)
	if n := len(g.ix.buckets); int(base)+se.n > n {
		g.ix.resize(n << bits.Len(uint(int(base)+se.n-1)/uint(n)))
	}
	if c >= 0 {
		ge.chunks[c] = ge.chunks[c][:chunkRows]
	}
	for id := int32(ge.n) + 1; id <= base; id++ {
		g.ix.entry(id).next, g.free = -1, append(g.free, id)
	}
	ge.chunks, g.vals, ge.n = append(ge.chunks, se.chunks...), append(g.vals, src.vals...), int(base)+se.n
	clear(src.ix.buckets)
	se.chunks, se.n, src.vals, src.free = se.chunks[:0], 0, src.vals[:0], src.free[:0]
	for id := base + 1; id <= int32(ge.n); id++ {
		e := g.ix.entry(id)
		if into := g.lookup(e.hash, g.Record(id)[:g.keys]); into != 0 {
			merge(into, id)
			e.next, g.free = -1, append(g.free, id)
		} else {
			e.next = 0
			g.ix.link(id, e)
		}
	}
	return true
}

// Reset empties the store: its first chunk stays for the groups to come,
// the others go back to the spare.
func (g *Groups) Reset() {
	e := &g.ix.entries
	for c := 1; c < len(e.chunks); c++ {
		e.free.push(e.chunks[c])
		g.ix.spare.values.push(g.vals[c])
	}
	if len(e.chunks) > 0 {
		e.chunks, g.vals = append(e.chunks[:0], e.chunks[0][:0]), g.vals[:1]
	}
	clear(g.ix.buckets)
	e.n, g.free = 0, g.free[:0]
}

// ReleaseGroups gives g's index storage and record slabs to s once nothing
// will use g again: used again, g panics. Releasing g again gives nothing.
func (s *Spare) ReleaseGroups(g *Groups) {
	for _, v := range g.vals {
		s.values.push(v)
	}
	g.vals = nil
	g.ix.release(s)
}
