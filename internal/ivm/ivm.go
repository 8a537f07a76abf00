// Package ivm holds the shared vocabulary of incremental view
// maintenance: signed result updates, the multiset algebra that folds
// them, and a base-relation tracker of live rows. It depends only on the
// types layer so every other layer — exec operators, the core
// maintenance driver, the engine API, the HTTP server — can speak it
// without import cycles. The engine itself keeps no Multiset or
// BaseTracker: its maintained view is its operators' state. Tests fold
// with Multiset, and benchmark/probes.go times both structures.
//
// The central contract is *fold consistency*: folding a standing
// query's update stream into an empty multiset always yields exactly
// the maintained result. Retractions are emitted as the precise tuples
// asserted earlier, so folding by strict row identity never strands a
// negative count.
package ivm

import (
	"bytes"
	"cmp"
	"slices"
	"sort"

	"github.com/tukwila/adp/internal/types"
)

// Update is one signed change to a standing query's result: Sign +1
// asserts one occurrence of Row, -1 retracts one.
type Update struct {
	Row  types.Tuple
	Sign int
}

// Multiset is a fold target for signed rows keyed by the canonical byte
// codec (strict identity: Int(1), Float(1), Str("1") stay distinct).
type Multiset struct {
	counts map[string]*msEntry
	keyBuf []byte
}

type msEntry struct {
	row types.Tuple
	cnt int64
}

// NewMultiset returns an empty multiset.
func NewMultiset() *Multiset {
	return &Multiset{counts: make(map[string]*msEntry)}
}

// Add folds sign occurrences of row. A row whose count returns to zero
// leaves the multiset, so it holds no more entries than live rows and
// unmatched retractions; a count below zero stays (Negative).
func (m *Multiset) Add(row types.Tuple, sign int) {
	m.keyBuf = types.AppendKeyAll(m.keyBuf[:0], row)
	e := m.counts[string(m.keyBuf)]
	if e == nil {
		e = &msEntry{row: row.Clone()}
		m.counts[string(m.keyBuf)] = e
	}
	if e.cnt += int64(sign); e.cnt == 0 {
		delete(m.counts, string(m.keyBuf))
	}
}

// Apply folds one update.
func (m *Multiset) Apply(u Update) { m.Add(u.Row, u.Sign) }

// Len returns the total multiplicity (sum of positive counts).
func (m *Multiset) Len() int {
	n := int64(0)
	for _, e := range m.counts {
		if e.cnt > 0 {
			n += e.cnt
		}
	}
	return int(n)
}

// Negative reports whether any row's folded count is below zero — a
// retraction that never matched an assertion, i.e. a broken update
// stream.
func (m *Multiset) Negative() bool {
	for _, e := range m.counts {
		if e.cnt < 0 {
			return true
		}
	}
	return false
}

// Rows expands the multiset into a key-sorted row list (each row
// repeated by its count), the canonical form the oracle equivalence
// pins compare byte-for-byte. Keys are sorted before expansion, so the
// output is deterministic regardless of map iteration order.
func (m *Multiset) Rows() []types.Tuple {
	keys := make([]string, 0, len(m.counts))
	for k, e := range m.counts {
		if e.cnt > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]types.Tuple, 0, len(keys))
	for _, k := range keys {
		e := m.counts[k]
		for i := int64(0); i < e.cnt; i++ {
			out = append(out, e.row)
		}
	}
	return out
}

// Fold builds a multiset from an update stream.
func Fold(updates []Update) *Multiset {
	m := NewMultiset()
	for _, u := range updates {
		m.Apply(u)
	}
	return m
}

// SortedRows key-sorts rows in place, in the canonical order Rows produces,
// and returns them: a maintained result read off its view's state, or the
// from-scratch side of an oracle comparison. A value's encoding ends itself
// (a terminator or a length prefix), so two rows' keys first differ inside
// the encodings of their first unequal values: only those are encoded, and
// two floats of one decade not even those (floatOrder).
func SortedRows(rows []types.Tuple) []types.Tuple {
	var ka, kb []byte
	slices.SortStableFunc(rows, func(a, b types.Tuple) int {
		for c := range min(len(a), len(b)) {
			if types.StrictEqual(a[c], b[c]) {
				continue
			}
			if d, ok := floatOrder(a[c], b[c]); ok {
				return d
			}
			ka = types.AppendKeyValue(ka[:0], a[c])
			kb = types.AppendKeyValue(kb[:0], b[c])
			return bytes.Compare(ka, kb)
		}
		return len(a) - len(b)
	})
	return rows
}

// decades are the powers of ten between which a positive float's shortest
// text is plain decimal ('g' writes 1e-4 ≤ x < 1e6 without an exponent).
var decades = [...]float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// floatOrder orders two floats as their key encodings order, where that is
// their numeric order: both in one decade of the plain-decimal range, whose
// shortest texts have equally long integer parts, no trailing zeros and a
// terminator below every digit and the point. ok is false elsewhere.
func floatOrder(a, b types.Value) (d int, ok bool) {
	if a.K != types.KindFloat || b.K != types.KindFloat {
		return 0, false
	}
	for i := 1; i < len(decades); i++ {
		if lo, hi := decades[i-1], decades[i]; a.F >= lo && a.F < hi {
			return cmp.Compare(a.F, b.F), b.F >= lo && b.F < hi
		}
	}
	return 0, false
}

// BaseTracker tracks one base relation's live multiset so the
// maintenance driver can clamp deletes where no join side holds the
// relation's rows: a delete of a row with no live occurrence is dropped
// before it reaches the operator tree, which keeps its state exact.
//
// It is a hash index over the rows it is given: a row hashes with
// types.HashValue over all its columns, and rows with one hash are told
// apart by types.StrictEqual — the key codec's identity, so Int(1),
// Float(1) and Str("1") are three rows, the two zeros two, and every NaN
// one. Each distinct row keeps a count; an entry whose count falls to
// zero stays for the row's next Add, so the open-addressed slot table
// never deletes.
type BaseTracker struct {
	slots   []int32        // 1 + entry number, 0 = empty; a power of two long
	shift   uint           // 64 - log2(len(slots)): a hash's home slot is its top bits
	entries [][]trackedRow // trackerChunk-long chunks, which never move
	n       int32          // entries
	live    int            // occurrences, Len
}

type trackedRow struct {
	row  types.Tuple // the first occurrence Add was given, not a copy
	hash uint64
	n    int64 // live occurrences
}

const trackerChunk = 1024

// NewBaseTracker returns an empty tracker.
func NewBaseTracker() *BaseTracker {
	return &BaseTracker{slots: make([]int32, 16), shift: 64 - 4}
}

// Add records one live occurrence of row. The tracker keeps row itself,
// not a copy, so row's values must not change while the tracker lives:
// hand it rows from storage that never moves or is rewritten, such as a
// state.List chunk or a provider's relation.
func (t *BaseTracker) Add(row types.Tuple) {
	h := hashRow(row)
	s := t.find(h, row)
	t.live++
	if i := t.slots[s]; i != 0 {
		t.entry(i).n++
		return
	}
	if t.n%trackerChunk == 0 {
		t.entries = append(t.entries, make([]trackedRow, 0, trackerChunk))
	}
	last := &t.entries[len(t.entries)-1]
	*last = append(*last, trackedRow{row: row, hash: h, n: 1})
	t.n++
	t.slots[s] = t.n
	if 4*int(t.n) > 3*len(t.slots) {
		t.grow()
	}
}

// Remove drops one occurrence of row, reporting whether one was live.
// A false return is the clamp: the delete matched nothing and must not
// propagate.
func (t *BaseTracker) Remove(row types.Tuple) bool {
	i := t.slots[t.find(hashRow(row), row)]
	if i == 0 || t.entry(i).n == 0 {
		return false
	}
	t.entry(i).n--
	t.live--
	return true
}

// Len returns the tracked live-row count.
func (t *BaseTracker) Len() int { return t.live }

func (t *BaseTracker) entry(i int32) *trackedRow {
	return &t.entries[(i-1)/trackerChunk][(i-1)%trackerChunk]
}

// find returns the slot holding row's entry, or the empty slot where it
// belongs.
func (t *BaseTracker) find(h uint64, row types.Tuple) int {
	mask := len(t.slots) - 1
	for s := t.home(h); ; s = (s + 1) & mask {
		i := t.slots[s]
		if i == 0 {
			return s
		}
		if e := t.entry(i); e.hash == h && sameRow(e.row, row) {
			return s
		}
	}
}

// home spreads a hash over the slot table (Fibonacci hashing), so the
// table's size does not pick which of the hash's bits count.
func (t *BaseTracker) home(h uint64) int { return int((h * 0x9e3779b97f4a7c15) >> t.shift) }

// grow doubles the slot table and re-homes every entry by its kept hash.
func (t *BaseTracker) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.shift--
	mask := len(t.slots) - 1
	for i := int32(1); i <= t.n; i++ {
		s := t.home(t.entry(i).hash)
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = i
	}
}

func hashRow(row types.Tuple) uint64 { return row.HashKey(types.Identity(len(row))) }

func sameRow(a, b types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !types.StrictEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
