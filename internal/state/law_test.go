package state

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/tukwila/adp/internal/types"
)

// chainModel is the layout HashTable had before it became an index over a
// List: one slice of tuples per bucket, appended to on insert and split in
// two on grow. The virtual clock charges a probe by its chain's length and
// results leave in chain order, so the index must agree with this model on
// every bucket count, chain and hit sequence, not merely on which rows
// match.
type chainModel struct {
	keyCols []int
	buckets [][]types.Tuple
	n       int
	fixed   bool
}

func newChainModel(keyCols []int, nbuckets int, fixed bool) *chainModel {
	return &chainModel{keyCols: keyCols, buckets: make([][]types.Tuple, ceilPow2(max(nbuckets, 1))), fixed: fixed}
}

func (m *chainModel) bucketOf(hash uint64) int { return int(hash & uint64(len(m.buckets)-1)) }

func (m *chainModel) insert(t types.Tuple) {
	if !m.fixed && m.n >= 4*len(m.buckets) {
		old := m.buckets
		m.buckets = make([][]types.Tuple, 2*len(old))
		for _, chain := range old {
			for _, t := range chain {
				b := m.bucketOf(t.HashKey(m.keyCols))
				m.buckets[b] = append(m.buckets[b], t)
			}
		}
	}
	b := m.bucketOf(t.HashKey(m.keyCols))
	m.buckets[b] = append(m.buckets[b], t)
	m.n++
}

// probe returns the chain's rows equal to key, in chain order.
func (m *chainModel) probe(hash uint64, key types.Tuple) (hits []types.Tuple) {
	for _, t := range m.buckets[m.bucketOf(hash)] {
		if t.KeyEquals(m.keyCols, key, types.Identity(len(key))) {
			hits = append(hits, t)
		}
	}
	return hits
}

func (m *chainModel) scan() (rows []types.Tuple) {
	for _, chain := range m.buckets {
		rows = append(rows, chain...)
	}
	return rows
}

// lawValues are the key values that stress equality against hashing: equal
// across kinds (1, 1.0), unequal but alike ("1"), both zeros, NaN (which
// Compare calls equal to every number while hashing apart from them all),
// NULL, and a few plain integers so chains hold more than one key.
var lawValues = []types.Value{
	types.Int(1), types.Float(1), types.Str("1"), types.Float(0), types.Float(math.Copysign(0, -1)),
	types.Int(0), types.Float(math.NaN()), types.Null(), types.Int(2), types.Int(3), types.Int(1025),
	types.Float(2.5), types.Str(""), types.Int(-1),
}

var lawSchema = types.NewSchema(
	types.Column{Name: "t.a", Kind: types.KindInt},
	types.Column{Name: "t.b", Kind: types.KindInt},
	types.Column{Name: "t.id", Kind: types.KindInt},
)

// ids renders rows by their id column, which the tests keep unique.
func ids(rows []types.Tuple) []int64 {
	out := make([]int64, len(rows))
	for i, t := range rows {
		out[i] = t[len(t)-1].I
	}
	return out
}

// lawPair is a table and its model, fed the same operations.
type lawPair struct {
	h      *HashTable
	m      *chainModel
	nextID int64
}

// newLawPair builds the table on spare's storage: fixed at nbuckets, or
// growing from there.
func newLawPair(keyCols []int, nbuckets int, fixed bool, spare *Spare) *lawPair {
	load := rowsPerBucket
	if fixed {
		load = 0
	}
	h := newHashTable(NewList(lawSchema, spare), keyCols, ceilPow2(max(nbuckets, 1)), load, spare)
	return &lawPair{h: h, m: newChainModel(keyCols, nbuckets, fixed)}
}

// donorSpare holds the storage of a fixed table of nbuckets buckets that
// indexed rows distinct keys: every bucket's head, tail and count and every
// entry's hash and next left as the donor had them.
func donorSpare(nbuckets, rows int) *Spare {
	s := &Spare{}
	s.Release(donor(nbuckets, rows))
	return s
}

func donor(nbuckets, rows int) *HashTable {
	h := NewHashTableSized(lawSchema, []int{0}, nbuckets, &Spare{})
	for i := 0; i < rows; i++ {
		h.Insert(types.Tuple{types.Int(int64(i)), types.Int(int64(i)), types.Int(int64(i))})
	}
	return h
}

// returnedSpare is what another run returned to the pool: donorSpare's
// storage and the donor's list chunks, every row header of every chunk
// still set (rows a multiple of chunkRows), as the run's end left them.
func returnedSpare(nbuckets, rows int) *Spare {
	h := donor(nbuckets, rows)
	s := &Spare{}
	s.Release(h)
	s.ReleaseList(h.List())
	s.endRun()
	return s
}

// storages are the legs every law runs on: an empty spare, and storage
// another table used and released whose bucket array is smaller than, as
// large as or larger than the structure asks for (req buckets); each
// recycled leg holds three full entry chunks, and the returned leg three
// full row chunks for the table's list too.
func storages(req int) map[string]func() *Spare {
	legs := map[string]func() *Spare{
		"fresh":           func() *Spare { return &Spare{} },
		"recycled/equal":  func() *Spare { return donorSpare(req, 2*chunkRows+7) },
		"recycled/larger": func() *Spare { return donorSpare(4*req, 2*chunkRows+7) },
		"returned":        func() *Spare { return returnedSpare(req, 3*chunkRows) },
	}
	if req > 1 {
		legs["recycled/smaller"] = func() *Spare { return donorSpare(req/2, 2*chunkRows+7) }
	}
	return legs
}

func (p *lawPair) insert(a, b types.Value) {
	t := types.Tuple{a, b, types.Int(p.nextID)}
	p.nextID++
	p.h.Insert(t)
	p.m.insert(t)
}

// check compares the table with the model on everything the engine reads:
// size, bucket count, and per probe key the chain length and the scalar
// and the batched hit sequence; with scan, the scan order too.
func (p *lawPair) check(scan bool) error {
	if p.h.Len() != p.m.n || p.h.Buckets() != len(p.m.buckets) {
		return fmt.Errorf("len/buckets = %d/%d, model %d/%d", p.h.Len(), p.h.Buckets(), p.m.n, len(p.m.buckets))
	}
	nk := len(p.m.keyCols)
	var keys []types.Tuple
	var hashes []uint64
	var want [][]int64
	for i, v := range lawValues {
		key := types.Tuple{v, lawValues[(i*5+1)%len(lawValues)]}[:nk]
		hash := key.HashKey(types.Identity(nk))
		keys, hashes = append(keys, key), append(hashes, hash)
		if got, w := p.h.ChainLenHashed(hash), len(p.m.buckets[p.m.bucketOf(hash)]); got != w {
			return fmt.Errorf("ChainLenHashed(%v) = %d, model %d", key, got, w)
		}
		w := ids(p.m.probe(hash, key))
		want = append(want, w)
		var got []types.Tuple
		p.h.ProbeHashed(hash, key, func(t types.Tuple) bool { got = append(got, t); return true })
		if !slices.Equal(ids(got), w) {
			return fmt.Errorf("ProbeHashed(%v) = %v, model %v", key, ids(got), w)
		}
		if len(w) > 1 { // an early stop ends the walk after the first hit
			n := 0
			p.h.ProbeHashed(hash, key, func(types.Tuple) bool { n++; return false })
			if n != 1 {
				return fmt.Errorf("ProbeHashed(%v) visited %d rows after a stop", key, n)
			}
		}
	}
	got := make([][]int64, len(keys))
	p.h.ProbeHashedBatch(hashes, keys, types.Identity(nk), func(row int, t types.Tuple) bool {
		got[row] = append(got[row], t[2].I)
		return true
	})
	for i := range keys {
		if !slices.Equal(got[i], want[i]) {
			return fmt.Errorf("ProbeHashedBatch row %d (%v) = %v, model %v", i, keys[i], got[i], want[i])
		}
	}
	if scan {
		var rows []types.Tuple
		p.h.Scan(func(t types.Tuple) bool { rows = append(rows, t); return true })
		if w := ids(p.m.scan()); !slices.Equal(ids(rows), w) {
			return fmt.Errorf("Scan order = %v, model %v", ids(rows), w)
		}
		if w := p.m.n; p.h.List().Len() != w || !slices.IsSorted(ids(p.h.List().Rows())) {
			return fmt.Errorf("list holds %d rows, out of arrival order or short of %d", p.h.List().Len(), w)
		}
	}
	return nil
}

// TestHashTableMatchesChainModel: random inserts of duplicate, cross-kind,
// zero, NaN and NULL keys into a growing and a fixed table, checked against
// the old layout after every step and across every grow, on a table's own
// storage and on storage another table released.
func TestHashTableMatchesChainModel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		keyCols  []int
		nbuckets int
		fixed    bool
	}{
		{"growing/one-column", []int{0}, 2, false},
		{"growing/two-columns", []int{1, 0}, 1, false},
		{"fixed/one-bucket", []int{0}, 1, true},
		{"fixed/eight-buckets", []int{0, 1}, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for leg, spare := range storages(tc.nbuckets) {
				t.Run(leg, func(t *testing.T) {
					rng := rand.New(rand.NewSource(5))
					s := spare()
					p := newLawPair(tc.keyCols, tc.nbuckets, tc.fixed, s)
					const steps = 700
					for i := 0; i < steps; i++ {
						p.insert(lawValues[rng.Intn(len(lawValues))], lawValues[rng.Intn(len(lawValues))])
						if err := p.check(i%16 == 0 || i == steps-1); err != nil {
							t.Fatalf("after %d inserts: %v", i+1, err)
						}
					}
					if !tc.fixed && p.h.Buckets() < 128 {
						t.Fatalf("growing table ended at %d buckets: grow was not exercised", p.h.Buckets())
					}
					if leg != "fresh" && len(s.entries.items) != 2 {
						t.Fatalf("%d of 3 spare entry chunks left: the table's full chunk is not a recycled one", len(s.entries.items))
					}
					if leg == "returned" {
						if err := rowsFromSpare(p.h.List(), s); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		})
	}
	// A group store shares the index: on every storage leg it must find each
	// key's own group through removals and regrowth.
	t.Run("groups", func(t *testing.T) {
		for leg, spare := range storages(chunkMin) {
			t.Run(leg, func(t *testing.T) {
				s := spare()
				if err := groupsLaw(NewGroups(2, 3, s)); err != nil {
					t.Fatal(err)
				}
				if leg != "fresh" && len(s.entries.items) != 1 {
					t.Fatalf("%d of 3 spare entry chunks left: the store's full chunks are not recycled ones", len(s.entries.items))
				}
			})
		}
	})
	// A default table grows at 4096 and at 8192 rows, past chunk boundaries
	// of the list and of the index.
	t.Run("growing/default", func(t *testing.T) {
		for leg, spare := range storages(defaultBuckets) {
			t.Run(leg, func(t *testing.T) {
				p := newLawPair([]int{0}, defaultBuckets, false, spare())
				for i := 0; i < 9000; i++ {
					p.insert(types.Int(int64(i%1500)), types.Int(0))
					if i%1000 == 0 || (i >= 4090 && i <= 4100) || i == 8999 {
						if err := p.check(true); err != nil {
							t.Fatalf("after %d inserts: %v", i+1, err)
						}
					}
				}
				if p.h.Buckets() != 4*defaultBuckets || p.h.Buckets() != BucketsFor(p.h.Len()) {
					t.Fatalf("buckets = %d after %d inserts, BucketsFor says %d", p.h.Buckets(), p.h.Len(), BucketsFor(p.h.Len()))
				}
			})
		}
	})
}

// groupsLaw drives g and a model of it — its groups' keys and ids, under
// strict identity — with finds and removals of law keys, and checks after
// each step that a key finds its own group and a new key a free id, and at
// the end every chain's tail and count, Len, IDs and every record's key.
func groupsLaw(g *Groups) error {
	type group struct {
		key []types.Value
		id  int32
	}
	var model []group
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4000; i++ {
		key := []types.Value{lawValues[rng.Intn(len(lawValues))], types.Int(int64(rng.Intn(150)))}
		j := slices.IndexFunc(model, func(m group) bool { return slices.EqualFunc(m.key, key, types.StrictEqual) })
		switch {
		case j >= 0 && i%5 == 4:
			g.Remove(model[j].id)
			model = slices.Delete(model, j, j+1)
		case j >= 0:
			if id := g.Find(key); id != model[j].id {
				return fmt.Errorf("step %d: key %v found group %d, model %d", i, key, id, model[j].id)
			}
		default:
			id := g.Find(key)
			if slices.ContainsFunc(model, func(m group) bool { return m.id == id }) {
				return fmt.Errorf("step %d: new key %v got group %d, which another key holds", i, key, id)
			}
			model = append(model, group{key, id})
		}
	}
	for b, bk := range g.ix.buckets {
		n, last := int32(0), int32(0)
		for id := bk.head; id != 0; id = g.ix.entry(id).next {
			n, last = n+1, id
		}
		if n != bk.count || last != bk.tail {
			return fmt.Errorf("bucket %d: chain of %d ending at %d, bucket says %d ending at %d", b, n, last, bk.count, bk.tail)
		}
	}
	want := make([]int32, len(model))
	for i, m := range model {
		want[i] = m.id
		if rec := g.Record(m.id); !slices.EqualFunc(rec[:2], m.key, types.StrictEqual) {
			return fmt.Errorf("group %d holds key %v, model %v", m.id, rec[:2], m.key)
		}
	}
	slices.Sort(want)
	if got := g.IDs(nil); g.Len() != len(model) || !slices.Equal(got, want) {
		return fmt.Errorf("Len %d, IDs %v; model %d groups %v", g.Len(), got, len(model), want)
	}
	return nil
}

// rowsFromSpare checks that l's first chunk is one of the returned spare's
// three: two are left, and the headers past l's rows, which the donor had
// set, were cleared when l took it.
func rowsFromSpare(l *List, s *Spare) error {
	if len(s.rows.items) != 2 {
		return fmt.Errorf("%d of 3 spare row chunks left: the list's full chunk is not a returned one", len(s.rows.items))
	}
	chunk := l.rows.chunks[0]
	for i, t := range chunk[len(chunk):cap(chunk)] {
		if t != nil {
			return fmt.Errorf("row slot %d of a taken chunk kept the donor's header %v", len(chunk)+i, t)
		}
	}
	return nil
}

// TestSpareTakesBestFit: a table takes the smallest released bucket array
// that holds what it asks for, re-sliced to exactly that, and allocates when
// none does; a released table's entry chunks are all kept, its short first
// chunk too.
func TestSpareTakesBestFit(t *testing.T) {
	s := &Spare{}
	arrays := map[int]*bucket{}
	for _, n := range []int{1024, 64, 256} {
		d := donorSpare(n, 10)
		arrays[n] = &d.buckets.items[0][0]
		s.Release(NewHashTableSized(lawSchema, []int{0}, 1, d)) // moves the array into s
		if len(d.buckets.items) != 0 || len(d.entries.items) != 1 {
			t.Fatalf("donor of %d buckets kept %d arrays, %d chunks", n, len(d.buckets.items), len(d.entries.items))
		}
	}
	for _, tc := range []struct{ ask, from int }{{100, 256}, {300, 1024}, {2, 64}, {2, 0}} {
		h := NewHashTableSized(lawSchema, []int{0}, tc.ask, s)
		if h.Buckets() != ceilPow2(tc.ask) {
			t.Fatalf("asked %d buckets, got %d", tc.ask, h.Buckets())
		}
		if from := arrays[tc.from]; (tc.from != 0) != (&h.ix.buckets[0] == from) {
			t.Fatalf("asked %d buckets: took the wrong array (want the %d-bucket one)", tc.ask, tc.from)
		}
		for i, b := range h.ix.buckets {
			if b != (bucket{}) {
				t.Fatalf("asked %d buckets: bucket %d not cleared: %+v", tc.ask, i, b)
			}
		}
	}
	d := &Spare{}
	h := NewHashTable(lawSchema, []int{0})
	for i := 0; i < chunkRows/4; i++ {
		h.Insert(types.Tuple{types.Int(int64(i)), types.Null(), types.Int(int64(i))})
	}
	d.Release(h)
	if len(d.entries.items) != 1 || cap(d.entries.items[0]) != chunkRows/4 || len(d.buckets.items) != 1 {
		t.Fatalf("a quarter-chunk table released %d chunks, %d arrays; want its one short chunk, 1", len(d.entries.items), len(d.buckets.items))
	}
	// Value slabs go by the same rule: a group store's full chunk of
	// chunkRows×width values passes over an emitted rows' slab on top that
	// is too small for it and takes the one below that fits.
	v := &Spare{}
	fits := make([]types.Value, 6*chunkRows)
	v.values.push(fits)
	v.values.push(make([]types.Value, 4096))
	g := NewGroups(1, 6, v)
	for i := 0; i < chunkRows; i++ {
		g.Find([]types.Value{types.Int(int64(i))})
	}
	if &g.vals[0][0] != &fits[0] || len(v.values.items) != 1 {
		t.Fatalf("a group store's full record chunk did not take the slab that fits: %d slabs left", len(v.values.items))
	}
}

// TestReleasedTablePanics: a table whose storage was released must not
// read as empty — every use of it as an index panics — while its list
// keeps every row; nor must a released group store.
func TestReleasedTablePanics(t *testing.T) {
	build := func() *HashTable {
		h := NewHashTable(lawSchema, []int{0})
		for i := 0; i < 3*chunkRows; i++ {
			h.Insert(types.Tuple{types.Int(int64(i % 7)), types.Null(), types.Int(int64(i))})
		}
		return h
	}
	key := types.Tuple{types.Int(3)}
	hash := key.HashKey(types.Identity(1))
	uses := map[string]func(h *HashTable){
		"Len":          func(h *HashTable) { h.Len() },
		"Buckets":      func(h *HashTable) { h.Buckets() },
		"Insert":       func(h *HashTable) { h.Insert(types.Tuple{types.Int(1), types.Null(), types.Int(-1)}) },
		"InsertHashed": func(h *HashTable) { h.InsertHashed(hash, types.Tuple{types.Int(3), types.Null(), types.Int(-1)}) },
		"Probe":        func(h *HashTable) { h.Probe(key, func(types.Tuple) bool { return true }) },
		"ProbeHashed":  func(h *HashTable) { h.ProbeHashed(hash, key, func(types.Tuple) bool { return true }) },
		"ProbeHashedBatch": func(h *HashTable) {
			h.ProbeHashedBatch([]uint64{hash}, []types.Tuple{key}, []int{0}, func(int, types.Tuple) bool { return true })
		},
		"ChainLen": func(h *HashTable) { h.ChainLen(key) },
		"Scan":     func(h *HashTable) { h.Scan(func(types.Tuple) bool { return true }) },
	}
	for name, use := range uses {
		for _, index := range []string{"table", "IndexList"} {
			t.Run(name+"/"+index, func(t *testing.T) {
				h := build()
				if index == "IndexList" {
					h = IndexList(h.List(), []int{2}, &Spare{})
				}
				(&Spare{}).Release(h)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s on a released table did not panic", name)
						}
					}()
					use(h)
				}()
				if l := h.List(); l.Len() != 3*chunkRows || !slices.IsSorted(ids(l.Rows())) {
					t.Fatalf("the released table's list holds %d rows, want %d in arrival order", l.Len(), 3*chunkRows)
				}
			})
		}
	}
	// A group store shares the index, and its release: every use of a
	// released one panics too.
	groupKey := []types.Value{types.Int(3)}
	groupUses := map[string]func(g *Groups){
		"Len":    func(g *Groups) { g.Len() },
		"Find":   func(g *Groups) { g.Find(groupKey) },
		"Record": func(g *Groups) { g.Record(1) },
		"Remove": func(g *Groups) { g.Remove(1) },
		"IDs":    func(g *Groups) { g.IDs(nil) },
	}
	for name, use := range groupUses {
		t.Run(name+"/Groups", func(t *testing.T) {
			g := fillGroups(NewGroups(1, 2, &Spare{}), 3*chunkRows)
			(&Spare{}).ReleaseGroups(g)
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released group store did not panic", name)
				}
			}()
			use(g)
		})
	}
}

// fillGroups adds groups 0..n-1 of one integer key to g.
func fillGroups(g *Groups, n int) *Groups {
	for i := 0; i < n; i++ {
		g.Find([]types.Value{types.Int(int64(i))})
	}
	return g
}

// TestReleasedListPanics: a list whose rows were released must not read as
// empty — every use of it panics — and releasing it again gives nothing.
func TestReleasedListPanics(t *testing.T) {
	row := types.Tuple{types.Int(1), types.Null(), types.Int(1)}
	uses := map[string]func(l *List){
		"Len":         func(l *List) { l.Len() },
		"At":          func(l *List) { l.At(0) },
		"Scan":        func(l *List) { l.Scan(func(types.Tuple) bool { return true }) },
		"Chunks":      func(l *List) { l.Chunks() },
		"Rows":        func(l *List) { l.Rows() },
		"Insert":      func(l *List) { l.Insert(row) },
		"InsertBatch": func(l *List) { l.InsertBatch([]types.Tuple{row}) },
	}
	for name, use := range uses {
		for _, n := range []int{0, 3 * chunkRows} {
			t.Run(fmt.Sprintf("%s/rows=%d", name, n), func(t *testing.T) {
				l := NewList(lawSchema, &Spare{})
				for i := 0; i < n; i++ {
					l.Insert(row)
				}
				s := &Spare{}
				s.ReleaseList(l)
				s.ReleaseList(l)
				if len(s.rows.items) != n/chunkRows {
					t.Fatalf("the spare holds %d row chunks, want %d", len(s.rows.items), n/chunkRows)
				}
				defer func() {
					if recover() == nil {
						t.Errorf("%s on a released list did not panic", name)
					}
				}()
				use(l)
			})
		}
	}
}

// TestDoubleReleaseGivesNothing: releasing a released table leaves the
// spare as it was — no nil bucket array for every later best-fit scan to
// step over.
func TestDoubleReleaseGivesNothing(t *testing.T) {
	h := donor(64, 2*chunkRows+7)
	s := &Spare{}
	s.Release(h)
	buckets, entries := slices.Clone(s.buckets.items), slices.Clone(s.entries.items)
	s.Release(h)
	if !slices.Equal(pointers(s.buckets.items), pointers(buckets)) || !slices.Equal(pointers(s.entries.items), pointers(entries)) {
		t.Fatalf("a second release changed the spare: %d arrays, %d chunks; want %d, %d",
			len(s.buckets.items), len(s.entries.items), len(buckets), len(entries))
	}
	g := fillGroups(NewGroups(1, 2, &Spare{}), 2*chunkRows+7)
	s = &Spare{}
	s.ReleaseGroups(g)
	buckets, entries, values := slices.Clone(s.buckets.items), slices.Clone(s.entries.items), slices.Clone(s.values.items)
	if len(entries) != 3 || len(values) != 3 {
		t.Fatalf("a group store of three full-sized chunks released %d entry chunks, %d record slabs", len(entries), len(values))
	}
	s.ReleaseGroups(g)
	if !slices.Equal(pointers(s.buckets.items), pointers(buckets)) || !slices.Equal(pointers(s.entries.items), pointers(entries)) ||
		!slices.Equal(pointers(s.values.items), pointers(values)) {
		t.Fatal("a second release of a group store changed the spare")
	}
}

// pointers renders storage by where it starts.
func pointers[T any](items [][]T) []*T {
	out := make([]*T, len(items))
	for i, v := range items {
		out[i] = unsafe.SliceData(v)
	}
	return out
}

// TestSpareHoldsOneRun: a returned spare holds what its run released and
// nothing an earlier run left that this one did not take — taken or not,
// an earlier run's storage never comes back twice — and a slab or chunk is
// cleared when it is taken.
func TestSpareHoldsOneRun(t *testing.T) {
	s := &Spare{}
	first := donor(1024, 3*chunkRows)
	s.Release(first)
	s.ReleaseList(first.List())
	_ = append(s.Values(2), types.Int(7), types.Int(8)) // a slab lent until the run ends
	s.endRun()
	if len(s.buckets.items) != 1 || len(s.entries.items) != 3 || len(s.rows.items) != 3 || len(s.values.items) != 1 {
		t.Fatalf("after one run: %d arrays, %d entry chunks, %d row chunks, %d slabs; want 1, 3, 3, 1",
			len(s.buckets.items), len(s.entries.items), len(s.rows.items), len(s.values.items))
	}
	// The next run takes the array, one entry chunk, one row chunk and the
	// slab, and releases a table of its own.
	h := NewHashTableSized(lawSchema, []int{0}, 1024, s)
	for i := 0; i < chunkRows; i++ {
		h.Insert(types.Tuple{types.Int(int64(i)), types.Null(), types.Int(int64(i))})
	}
	if v := s.Values(2); len(v) != 0 || cap(v) != 2 || v[:2][0] != (types.Value{}) || v[:2][1] != (types.Value{}) {
		t.Fatalf("Values(2) = %v (cap %d), want an empty cleared slab of the released two", v[:cap(v)], cap(v))
	}
	if len(s.buckets.items) != 0 || len(s.entries.items) != 2 || len(s.rows.items) != 2 || len(s.values.items) != 0 {
		t.Fatalf("the next run did not take from the spare: %d arrays, %d entry chunks, %d row chunks, %d slabs left",
			len(s.buckets.items), len(s.entries.items), len(s.rows.items), len(s.values.items))
	}
	second := donor(64, 10)
	s.Release(second)
	s.Release(h)
	s.ReleaseList(h.List())
	s.endRun()
	// What the first run left and the second did not take is gone: two
	// arrays, two entry chunks (the second table's short one among them)
	// and one row chunk, all the second run's, and the slab it lent.
	if len(s.buckets.items) != 2 || len(s.entries.items) != 2 || len(s.rows.items) != 1 || len(s.values.items) != 1 {
		t.Fatalf("after the next run: %d arrays, %d entry chunks, %d row chunks, %d slabs; want 2, 2, 1, 1",
			len(s.buckets.items), len(s.entries.items), len(s.rows.items), len(s.values.items))
	}
	s.endRun()
	if len(s.buckets.items) != 0 || len(s.entries.items) != 0 || len(s.rows.items) != 0 || len(s.values.items) != 0 {
		t.Fatal("a run that released nothing returned storage")
	}
	// A group store is one more structure of a run: its entry chunks and
	// record slabs — the full ones and the first ones it grew out of — come
	// from what the run before released, and go back with what this run
	// releases.
	d := fillGroups(NewGroups(1, 2, s), 2*chunkRows)
	s.ReleaseGroups(d)
	s.endRun()
	entries, values := pointers(s.entries.items), pointers(s.values.items)
	if len(entries) != 5 || len(values) != 5 {
		t.Fatalf("after a group store's run: %d entry chunks, %d record slabs; want 5, 5 (three first, two full)", len(entries), len(values))
	}
	g := fillGroups(NewGroups(1, 2, s), chunkRows+1)
	for _, items := range [][]int{caps(s.entries.items), caps(s.values.items)} {
		if !slices.Equal(items, []int{chunkMin, 4 * chunkMin, 16 * chunkMin}) && !slices.Equal(items, []int{2 * chunkMin, 8 * chunkMin, 32 * chunkMin}) {
			t.Fatalf("the next group store left %v in the spare; want the three first chunks it grew out of", items)
		}
	}
	s.ReleaseGroups(g)
	s.endRun()
	if got := pointers(s.entries.items); len(got) != 5 || !isSubset(got, entries) {
		t.Fatal("the group store's entry chunks are not the ones the run before released")
	}
	if got := pointers(s.values.items); len(got) != 5 || !isSubset(got, values) {
		t.Fatal("the group store's record slabs are not the ones the run before released")
	}
}

// caps lists the capacities of items, in order.
func caps[T any](items [][]T) []int {
	out := make([]int, len(items))
	for i, v := range items {
		out[i] = cap(v)
	}
	return out
}

func isSubset[T comparable](sub, of []T) bool {
	return !slices.ContainsFunc(sub, func(v T) bool { return !slices.Contains(of, v) })
}

// TestShortStructuresComeBack: a list, a table and a group store that hold
// less than a chunk give every chunk back — the short one each holds and
// those it grew out of — so built again to the same length on the spare the
// first build returned, they allocate no storage: no more than the same
// structures holding one row each.
func TestShortStructuresComeBack(t *testing.T) {
	rows := make([]types.Tuple, 300)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Null(), types.Int(int64(i))}
	}
	build := func(s *Spare, rows []types.Tuple) func() {
		return func() {
			h := NewHashTableSized(lawSchema, []int{0}, 0, s)
			l := NewList(lawSchema, s)
			g := NewGroups(1, 3, s)
			for _, r := range rows {
				h.Insert(r)
				g.Find(r[:1])
			}
			l.InsertBatch(rows)
			s.Release(h)
			s.ReleaseList(h.List())
			s.ReleaseList(l)
			s.ReleaseGroups(g)
			s.endRun()
		}
	}
	short, one := &Spare{}, &Spare{}
	headers := testing.AllocsPerRun(20, build(one, rows[:1]))
	if got := testing.AllocsPerRun(20, build(short, rows)); got != headers {
		t.Errorf("%d rows built again on the storage they returned: %v allocations, want %v (one row's)", len(rows), got, headers)
	}
	if fresh := testing.AllocsPerRun(20, func() { build(&Spare{}, rows)() }); fresh <= headers+1 {
		t.Fatalf("a fresh build allocates %v, no more than a recycled one's headers (%v): the law shows nothing", fresh, headers)
	}
}

// FuzzHashTableModel drives the table and the model from an op script: a
// byte inserts the key its bits select; every insert is followed by a
// probe of every law key, and every eighth by a scan.
func FuzzHashTableModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(1), false)
	f.Add([]byte{6, 6, 6, 0, 1, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1}, uint8(0), true)
	f.Fuzz(func(t *testing.T, script []byte, nbuckets uint8, fixed bool) {
		if len(script) > 400 {
			script = script[:400]
		}
		req := ceilPow2(max(int(nbuckets%8), 1))
		size := []int{max(req/2, 1), req, 4 * req}[len(script)%3]
		// The script runs on the table's own storage, then on storage a
		// table of half, the same or four times the bucket count released,
		// then on what such a table's run returned, its list's rows too.
		for leg, spare := range []*Spare{{}, donorSpare(size, chunkRows+len(script)), returnedSpare(size, 3*chunkRows)} {
			p := newLawPair([]int{0}, int(nbuckets%8), fixed, spare)
			for i, op := range script {
				v := int(op) % len(lawValues)
				p.insert(lawValues[v], lawValues[(v+int(op)/len(lawValues))%len(lawValues)])
				if err := p.check(i%8 == 0 || i == len(script)-1); err != nil {
					t.Fatalf("leg %d donor=%d, after op %d (%d): %v", leg, size, i, op, err)
				}
			}
		}
	})
}

// TestListChunkBoundaries: Len, At, Scan, Chunks, Rows and InsertBatch at
// sizes on and around the first chunk's doublings and the chunk size, with
// rows arriving one by one and in batches that straddle chunks.
func TestListChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 1023, 1024, 1025, 5000} {
		for _, batch := range []int{0, 1, 7, 1000, 1024, 3000} {
			t.Run(fmt.Sprintf("n=%d/batch=%d", n, batch), func(t *testing.T) {
				rows := make([]types.Tuple, n)
				for i := range rows {
					rows[i] = types.Tuple{types.Int(int64(i))}
				}
				l := NewList(lawSchema, &Spare{})
				if batch == 0 {
					for _, r := range rows {
						l.Insert(r)
					}
				} else {
					for lo := 0; lo < n; lo += batch {
						l.InsertBatch(rows[lo:min(lo+batch, n)])
						l.InsertBatch(nil)
					}
				}
				if l.Len() != n {
					t.Fatalf("Len = %d, want %d", l.Len(), n)
				}
				for i := range rows {
					if got := l.At(i); got[0].I != int64(i) {
						t.Fatalf("At(%d) = %v", i, got)
					}
				}
				var scanned, chunked []types.Tuple
				l.Scan(func(r types.Tuple) bool { scanned = append(scanned, r); return true })
				chunks := l.Chunks()
				for c, chunk := range chunks {
					if c < len(chunks)-1 && len(chunk) != chunkRows {
						t.Fatalf("chunk %d of %d holds %d rows, want %d", c, len(chunks), len(chunk), chunkRows)
					}
					if len(chunk) == 0 || len(chunk) > chunkRows {
						t.Fatalf("chunk %d holds %d rows", c, len(chunk))
					}
					chunked = append(chunked, chunk...)
				}
				for name, got := range map[string][]types.Tuple{"Scan": scanned, "Chunks": chunked, "Rows": l.Rows()} {
					if !slices.Equal(ids(got), ids(rows)) {
						t.Fatalf("%s yields %d rows out of order or number, want %d", name, len(got), n)
					}
				}
				stopped := 0
				l.Scan(func(types.Tuple) bool { stopped++; return stopped < 20 })
				if want := min(n, 20); stopped != want {
					t.Fatalf("Scan visited %d rows after a stop at 20, want %d", stopped, want)
				}
			})
		}
	}
}

// TestIndexListSharesRows: an index built over a list in one pass is the
// table the rows would have made arriving one by one — bucket count,
// chains, hit sequences, scan order — over the very same row storage, for
// the build key and for another. It runs on fresh index storage, and on
// storage released by another table and then by each index before the next.
func TestIndexListSharesRows(t *testing.T) {
	for _, recycled := range []bool{false, true} {
		spare := &Spare{}
		if recycled {
			spare = donorSpare(4*defaultBuckets, 20*chunkRows+100)
		}
		rng := rand.New(rand.NewSource(17))
		for _, n := range []int{0, 1, 100, 4096, 4097, 6000, 20000} {
			built := newLawPair([]int{0}, defaultBuckets, false, &Spare{})
			for i := 0; i < n; i++ {
				built.insert(types.Int(rng.Int63n(int64(n/3+1))), lawValues[rng.Intn(len(lawValues))])
			}
			list := built.h.List()
			for _, keyCols := range [][]int{{0}, {1}, {1, 0}} {
				idx := &lawPair{h: IndexList(list, keyCols, spare), m: newChainModel(keyCols, defaultBuckets, false)}
				list.Scan(func(r types.Tuple) bool { idx.m.insert(r); return true })
				if err := idx.check(true); err != nil {
					t.Fatalf("recycled=%t n=%d key %v: %v", recycled, n, keyCols, err)
				}
				if idx.h.List() != list {
					t.Fatalf("recycled=%t n=%d key %v: the index has a list of its own", recycled, n, keyCols)
				}
				if recycled {
					spare.Release(idx.h)
				}
			}
			if err := built.check(true); err != nil {
				t.Fatalf("recycled=%t n=%d: the table changed under its second index: %v", recycled, n, err)
			}
		}
		if recycled && len(spare.entries.items) != 21 {
			t.Fatalf("the spare holds %d entry chunks after every index gave its storage back, want the donor's 21", len(spare.entries.items))
		}
	}
	// The same backing arrays, not copies: a join's list handed on as a
	// base partition keeps its chunks through every later append.
	h := NewHashTable(lawSchema, []int{0})
	l := h.List()
	var first []*types.Tuple
	for i := 0; i < 3*chunkRows; i++ {
		h.Insert(types.Tuple{types.Int(int64(i)), types.Null(), types.Int(int64(i))})
		if i%chunkRows == chunkRows-1 {
			first = append(first, &l.Chunks()[i/chunkRows][0])
		}
	}
	idx := IndexList(l, []int{2}, &Spare{})
	for c, chunk := range idx.List().Chunks() {
		if &chunk[0] != first[c] {
			t.Fatalf("chunk %d moved after it filled", c)
		}
	}
}

// walk returns the ids an Index walk yields for hash, in walk order.
func walk(x *Index, hash uint64) (got []int32) {
	for id := x.First(hash); id != 0; id = x.Next(id, hash) {
		got = append(got, id)
	}
	return got
}

// TestIndexWalk: the exported walk over bare ids yields, for a hash, exactly
// the ids whose stored hash is that hash, ascending — at BucketsFor's count,
// where ten hashes share each of four buckets, and at one bucket, where
// every id shares the chain. Only the stored hash keeps the others out of
// the caller's key comparison.
func TestIndexWalk(t *testing.T) {
	const n = 2*chunkRows + 77
	hashes := make([]uint64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range hashes {
		hashes[i] = uint64(rng.Intn(10))<<20 | uint64(rng.Intn(4))
	}
	for _, buckets := range []int{BucketsFor(n), 1} {
		t.Run(fmt.Sprintf("buckets=%d", buckets), func(t *testing.T) {
			x := &Index{}
			x.Reset(&Spare{}, n)
			x.ix.buckets = x.ix.buckets[:buckets]
			for id := int32(n); id >= 1; id-- {
				x.Link(id, hashes[id-1])
			}
			for h := uint64(0); h <= 10<<20; h += 1 << 20 {
				for b := uint64(0); b < 4; b++ {
					var want []int32
					for i, hi := range hashes {
						if hi == h|b {
							want = append(want, int32(i+1))
						}
					}
					if got := walk(x, h|b); !slices.Equal(got, want) {
						t.Fatalf("walk of hash %#x yields %d ids, want %d ascending: %v…", h|b, len(got), len(want), got[:min(len(got), 8)])
					}
				}
			}
		})
	}
}

// TestIndexResetKeepsStorage: a reset index keeps its bucket array and the
// entry chunks its new size needs, gives the others to its spare and links
// none of the ids before the reset. A released index panics on use, and
// releasing it again gives nothing.
func TestIndexResetKeepsStorage(t *testing.T) {
	link := func(x *Index, n int) {
		for id := int32(n); id >= 1; id-- {
			x.Link(id, uint64(id%9))
		}
	}
	s, x := &Spare{}, &Index{}
	x.Reset(s, 3*chunkRows)
	link(x, 3*chunkRows)
	buckets, entries := unsafe.SliceData(x.ix.buckets), pointers(x.ix.entries.chunks)
	x.Reset(s, chunkRows+1)
	if len(x.ix.buckets) != BucketsFor(chunkRows+1) || unsafe.SliceData(x.ix.buckets) != buckets {
		t.Fatalf("reset to %d buckets moved the array (%d buckets)", BucketsFor(chunkRows+1), len(x.ix.buckets))
	}
	if !slices.Equal(pointers(x.ix.entries.chunks), entries[:2]) || !slices.Equal(pointers(s.entries.items), entries[2:]) {
		t.Fatal("reset did not keep the entry chunks it needs and give the other to the spare")
	}
	if got := walk(x, 3); len(got) != 0 {
		t.Fatalf("a reset index yields %d ids", len(got))
	}
	link(x, chunkRows+1)
	if got := walk(x, 3); len(got) != chunkRows/9+1 || got[0] != 3 || !slices.IsSorted(got) {
		t.Fatalf("walk after reset = %d ids from %v", len(got), got[:min(len(got), 1)])
	}
	x.Reset(s, 3*chunkRows)
	if got := pointers(x.ix.entries.chunks); !slices.Equal(got, entries) || len(s.entries.items) != 0 {
		t.Fatal("growing again did not take back the chunk the reset gave away")
	}
	s.ReleaseIndex(x)
	held := len(s.buckets.items) + len(s.entries.items)
	s.ReleaseIndex(x)
	if len(s.buckets.items)+len(s.entries.items) != held {
		t.Fatal("a second release changed the spare")
	}
	for name, use := range map[string]func(){
		"First": func() { x.First(3) },
		"Next":  func() { x.Next(1, 3) },
		"Link":  func() { x.Link(1, 3) },
		"Reset": func() { x.Reset(s, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released index did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestRowChunksComeBack: RowChunk takes a released full row chunk, cleared,
// and ReleaseRowChunks gives it back for the next taker.
func TestRowChunksComeBack(t *testing.T) {
	s := &Spare{}
	l := NewList(lawSchema, &Spare{})
	for i := 0; i < chunkRows; i++ {
		l.Insert(types.Tuple{types.Int(int64(i))})
	}
	donated := unsafe.SliceData(l.Chunks()[0])
	s.ReleaseList(l)
	c := s.RowChunk()
	if unsafe.SliceData(c) != donated || len(c) != chunkRows || slices.ContainsFunc(c, func(t types.Tuple) bool { return t != nil }) {
		t.Fatal("RowChunk did not take the released chunk, full length and cleared")
	}
	s.ReleaseRowChunks([][]types.Tuple{c})
	if unsafe.SliceData(s.RowChunk()) != donated {
		t.Fatal("a chunk given back is not the next one taken")
	}
}
