// Package types provides the value, tuple, and schema substrate used by
// every layer of the engine: typed scalar values, tuples as flat value
// vectors, schemas with qualified attribute names, attribute-permutation
// tuple adapters (paper §3.2), and key encoding/hashing for the hash-based
// state structures.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine. Data
// integration sources in the paper expose relational data; we support the
// types needed by the TPC-H-style workload plus NULL.
type Kind uint8

const (
	// KindNull is the type of the SQL NULL value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer (also used for dates, encoded as
	// days since epoch).
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{K: KindInt, I: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{K: KindFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsFloat converts a numeric value to float64. NULL converts to 0 and
// strings to their parsed value when possible (0 otherwise); callers in the
// execution engine only invoke this on numeric columns.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindString:
		f, _ := strconv.ParseFloat(v.S, 64)
		return f
	default:
		return 0
	}
}

// AsInt converts a numeric value to int64 (floats truncate).
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindString:
		n, _ := strconv.ParseInt(v.S, 10, 64)
		return n
	default:
		return 0
	}
}

// String renders the value for display and CSV output.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	default:
		return "?"
	}
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare numerically across int/float; strings compare lexicographically.
// Comparing a string against a numeric value orders by kind, which gives a
// deterministic total order even across heterogeneous sources.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	an := a.K == KindInt || a.K == KindFloat
	bn := b.K == KindInt || b.K == KindFloat
	switch {
	case an && bn:
		if a.K == KindInt && b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	case an:
		return -1
	case bn:
		return 1
	default:
		return strings.Compare(a.S, b.S)
	}
}

// Equal reports whether two values are one hash key: equal as HashValue
// mixes them, so values Equal calls equal always hash equal, and a hash
// probe's matches do not depend on the table's bucket count. NULL equals
// NULL; an integral float below 2^62 in magnitude is the int of its value
// (Int(2) and Float(2) are equal, and so are the two zeros); every NaN is one
// value, equal to no number; any other float equals only itself. Compare is
// the looser order merge joins and min/max follow: it ties NaN with every
// number, and Int(2^53+1) with Float(2^53), which Equal tells apart.
func Equal(a, b Value) bool {
	if a.K == b.K && a.K != KindFloat { // the common case: nothing to normalize
		switch a.K {
		case KindInt:
			return a.I == b.I
		case KindString:
			return a.S == b.S
		}
		return true
	}
	a, b = hashForm(a), hashForm(b)
	switch {
	case a.K != b.K:
		return false
	case a.K == KindInt:
		return a.I == b.I
	default: // two floats HashValue mixes by their bits
		return a.F == b.F || math.IsNaN(a.F) && math.IsNaN(b.F)
	}
}

// hashForm is v as HashValue mixes it: an integral float below 2^62 in
// magnitude is the Int of its value. FuzzHashAgreesWithEqual holds the two
// to one rule.
func hashForm(v Value) Value {
	if f := v.F; v.K == KindFloat && f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1<<62 {
		return Int(int64(f))
	}
	return v
}

// StrictEqual reports whether two values are identical under the
// grouping-identity semantics of the key codec (AppendKeyValue): the kind
// tag discriminates first (Int(1), Float(1), and Str("1") are distinct
// groups even though Compare treats the numerics as equal), floats compare
// by bit pattern except that all NaNs coincide (they all encode to the
// same "NaN" text), and +0/-0 stay distinct ("0" vs "-0"). Group routing
// uses this together with a HashKeys hash vector in place of byte-encoded
// map keys.
func StrictEqual(a, b Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case KindInt:
		return a.I == b.I
	case KindFloat:
		if math.IsNaN(a.F) || math.IsNaN(b.F) {
			return math.IsNaN(a.F) && math.IsNaN(b.F)
		}
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case KindString:
		return a.S == b.S
	default:
		return true
	}
}

// HashValue folds a value into an FNV-1a hash state. It is exposed so that
// composite keys can be hashed without intermediate allocation.
func HashValue(h uint64, v Value) uint64 {
	const prime = 1099511628211
	// Normalize integral floats to ints before mixing the kind tag, so that
	// Int(2) and Float(2.0) — which compare equal — also hash equal.
	if v.K == KindFloat {
		f := v.F
		if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1<<62 {
			v = Int(int64(f))
		}
	}
	h ^= uint64(v.K)
	h *= prime
	switch v.K {
	case KindInt:
		u := uint64(v.I)
		for i := 0; i < 8; i++ {
			h ^= (u >> (8 * i)) & 0xff
			h *= prime
		}
	case KindFloat:
		f := v.F
		if math.IsNaN(f) {
			// Canonicalize: Compare (and StrictEqual) treat every NaN as
			// equal, so every NaN payload must hash identically or
			// equal keys could land in different buckets.
			f = math.NaN()
		}
		u := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			h ^= (u >> (8 * i)) & 0xff
			h *= prime
		}
	case KindString:
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= prime
		}
	}
	return h
}

// Hash returns a standalone hash of a single value.
func Hash(v Value) uint64 {
	return HashValue(fnvOffset, v)
}

// fnvOffset is the FNV-1a 64-bit offset basis.
const fnvOffset = 14695981039346656037
