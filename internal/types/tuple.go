package types

import (
	"fmt"
	"strings"
)

// Tuple is a flat vector of values positionally aligned with a Schema.
// Tukwila represents tuples as vectors of pointers into value containers to
// avoid copying (§3.2); in Go, a slice of small Value structs gives the
// same sharing behaviour, since joins build output tuples by appending the
// two input slices without copying string payloads.
type Tuple []Value

// Clone returns a copy whose backing array is independent of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns the concatenation of two tuples (join output).
func (t Tuple) Concat(other Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(other))
	out = append(out, t...)
	out = append(out, other...)
	return out
}

// String renders the tuple as "[v1 v2 ...]".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// HashKey hashes the values at the given column positions; used by every
// hash-based state structure.
func (t Tuple) HashKey(cols []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h = HashValue(h, t[c])
	}
	return h
}

// KeyEquals reports whether t and other agree, value by value under Equal,
// on the given column positions (acols for t, bcols for other): whether they
// are one hash key.
func (t Tuple) KeyEquals(acols []int, other Tuple, bcols []int) bool {
	for i := range acols {
		if !Equal(t[acols[i]], other[bcols[i]]) {
			return false
		}
	}
	return true
}

// CompareKey orders two tuples by the given key columns.
func CompareKey(a Tuple, acols []int, b Tuple, bcols []int) int {
	for i := range acols {
		if c := Compare(a[acols[i]], b[bcols[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// EncodeKey renders the key columns into a string suitable for use as a Go
// map key. Group-by operators use this for exact grouping (hash collisions
// must not merge groups). It is a convenience wrapper over the AppendKey
// byte codec; hot paths should call AppendKey with a reused buffer and use
// the map[string(buf)] lookup idiom instead.
func EncodeKey(t Tuple, cols []int) string {
	return string(AppendKey(nil, t, cols))
}

// Adapter permutes the attributes of tuples produced under one schema into
// the layout of another schema with the same attribute set. This implements
// the paper's tuple adapter (§3.2): state structures store tuples in the
// physical order their producing plan used, and a consuming plan with a
// different concatenation order reads through an adapter.
type Adapter struct {
	// perm[i] is the index in the source tuple of the i-th output column.
	perm []int
	from *Schema
	to   *Schema
}

// NewAdapter builds an adapter mapping tuples of schema from into the
// layout of schema to. Every column of to must appear in from (matched by
// qualified name). It returns an error otherwise.
func NewAdapter(from, to *Schema) (*Adapter, error) {
	perm := make([]int, to.Len())
	for i, c := range to.Cols {
		j := from.IndexOf(c.Name)
		if j < 0 {
			return nil, fmt.Errorf("types: adapter: column %q of target schema missing from source %v", c.Name, from.Names())
		}
		perm[i] = j
	}
	return &Adapter{perm: perm, from: from, to: to}, nil
}

// IsIdentity reports whether the adapter is a no-op (schemas already
// aligned); callers skip adaptation entirely in that case.
func (a *Adapter) IsIdentity() bool {
	if a.from.Len() != a.to.Len() {
		return false
	}
	for i, p := range a.perm {
		if p != i {
			return false
		}
	}
	return true
}

// Adapt permutes one tuple. The result shares value payloads with the
// input (no deep copy), matching Tukwila's pointer-vector design.
func (a *Adapter) Adapt(t Tuple) Tuple {
	return a.AdaptInto(nil, t)
}

// AdaptInto permutes t into dst's storage, growing it only when its
// capacity is insufficient, and returns the adapted tuple. Callers whose
// consumers do not retain the tuple (e.g. aggregation absorption) pass the
// same scratch buffer every call for allocation-free adaptation.
func (a *Adapter) AdaptInto(dst, t Tuple) Tuple {
	if cap(dst) < len(a.perm) {
		dst = make(Tuple, len(a.perm))
	}
	dst = dst[:len(a.perm)]
	for i, p := range a.perm {
		dst[i] = t[p]
	}
	return dst
}

// From and To expose the adapter's endpoint schemas.
func (a *Adapter) From() *Schema { return a.from }

// To returns the target schema.
func (a *Adapter) To() *Schema { return a.to }
