package types

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Key codec: a compact, self-framing byte encoding of a tuple's key
// columns, used wherever exact key identity is needed (group-by maps).
// Unlike HashKey it is collision-free, and unlike the old
// fmt-based EncodeKey it builds into a caller-supplied buffer with
// strconv.Append*, so steady-state encoding performs zero allocations.
//
// Layout per column: a 1-byte kind tag, then a kind-specific payload:
//
//   - KindNull:   tag only
//   - KindInt:    decimal text (strconv.AppendInt) terminated by 0x00
//   - KindFloat:  shortest-round-trip text (strconv.AppendFloat 'g', -1)
//     terminated by 0x00
//   - KindString: uvarint byte length, then the raw bytes
//
// Decimal text never contains 0x00, and strings are length-framed, so the
// encoding is unambiguous: distinct key vectors encode to distinct byte
// strings, and Int(1), Float(1), and Str("1") all stay distinct (the kind
// tag leads every column, mirroring the grouping semantics the engine has
// always had).

// keyTerm terminates numeric payloads.
const keyTerm = 0x00

// identityCols backs Identity. It holds an immutable []int snapshot:
// growth publishes a fresh, longer copy, and handed-out prefixes keep
// aliasing the old snapshot, whose contents never change. The atomic
// load/store makes Identity safe from concurrent partition workers (the
// partition-parallel executor probes per-partition state from P
// goroutines); identityMu serializes the rare growth path so concurrent
// growers do not publish regressing lengths.
var identityCols atomic.Value // []int
var identityMu sync.Mutex

func init() {
	identityCols.Store([]int{0, 1, 2, 3, 4, 5, 6, 7})
}

// Identity returns the shared index prefix [0, 1, ..., n-1]. Key-based
// operations over ad-hoc key tuples (probe keys, group-value vectors) need
// exactly this column set, and allocating it per call used to dominate
// probe-path allocations. The returned slice is read-only shared storage:
// callers must never write to it.
func Identity(n int) []int {
	cols := identityCols.Load().([]int)
	if n <= len(cols) {
		return cols[:n]
	}
	identityMu.Lock()
	defer identityMu.Unlock()
	cols = identityCols.Load().([]int)
	if n <= len(cols) {
		return cols[:n]
	}
	grown := make([]int, n)
	for i := range grown {
		grown[i] = i
	}
	identityCols.Store(grown)
	return grown
}

// AppendKeyAll appends the encoding of every column of t (the common case
// of encoding an already-extracted key vector).
//
//adp:hotpath key codec under every hash-state benchmark (scripts/check_allocs.sh)
func AppendKeyAll(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = AppendKeyValue(dst, v)
	}
	return dst
}

// SortedRows sorts rows in place by their AppendKeyAll encodings, the
// canonical order of a maintained result read off its view's state, and
// returns them. A value's encoding ends itself (a terminator or a length
// prefix), so two rows' keys first differ inside the encodings of their
// first unequal values: only those are encoded, and two floats of one decade
// not even those (floatOrder).
func SortedRows(rows []Tuple) []Tuple {
	var ka, kb []byte
	slices.SortStableFunc(rows, func(a, b Tuple) int {
		for c := range min(len(a), len(b)) {
			if StrictEqual(a[c], b[c]) {
				continue
			}
			if d, ok := floatOrder(a[c], b[c]); ok {
				return d
			}
			ka = AppendKeyValue(ka[:0], a[c])
			kb = AppendKeyValue(kb[:0], b[c])
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
func floatOrder(a, b Value) (d int, ok bool) {
	if a.K != KindFloat || b.K != KindFloat {
		return 0, false
	}
	for i := 1; i < len(decades); i++ {
		if lo, hi := decades[i-1], decades[i]; a.F >= lo && a.F < hi {
			return cmp.Compare(a.F, b.F), b.F >= lo && b.F < hi
		}
	}
	return 0, false
}

// AppendKey appends the encoding of t's key columns to dst and returns
// the extended buffer. Pass a reused buffer (dst[:0]) for allocation-free
// steady-state encoding.
//
//adp:hotpath key codec under every hash-state benchmark (scripts/check_allocs.sh)
func AppendKey(dst []byte, t Tuple, cols []int) []byte {
	for _, c := range cols {
		dst = AppendKeyValue(dst, t[c])
	}
	return dst
}

// AppendKeyValue appends the encoding of a single value to dst.
//
//adp:hotpath key codec under every hash-state benchmark (scripts/check_allocs.sh)
func AppendKeyValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindInt:
		dst = strconv.AppendInt(dst, v.I, 10)
		dst = append(dst, keyTerm)
	case KindFloat:
		dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		dst = append(dst, keyTerm)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
	}
	return dst
}

// DecodeKey decodes a buffer produced by AppendKey back into the key
// values. String payloads are copied (the result does not alias key).
func DecodeKey(key []byte) (Tuple, error) {
	return AppendDecodedKey(nil, key)
}

// AppendDecodedKey decodes key, appending the values to dst; pass a
// reused dst[:0] to amortize tuple storage across decodes.
func AppendDecodedKey(dst Tuple, key []byte) (Tuple, error) {
	for len(key) > 0 {
		v, rest, err := decodeKeyValue(key)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		key = rest
	}
	return dst, nil
}

// parseKeyInt parses the decimal text AppendKeyValue produced for an int,
// allocation-free. It accepts exactly strconv.AppendInt's output form.
func parseKeyInt(b []byte) (int64, bool) {
	i := 0
	neg := false
	if len(b) > 0 && b[0] == '-' {
		neg = true
		i++
	}
	if i >= len(b) {
		return 0, false
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n-1) - 1, true // -n without overflowing at MinInt64
	}
	if n > math.MaxInt64 {
		return 0, false
	}
	return int64(n), true
}

// decodeKeyValue decodes one value, returning the remaining bytes.
func decodeKeyValue(key []byte) (Value, []byte, error) {
	k := Kind(key[0])
	key = key[1:]
	switch k {
	case KindNull:
		return Null(), key, nil
	case KindInt, KindFloat:
		term := -1
		for i, b := range key {
			if b == keyTerm {
				term = i
				break
			}
		}
		if term < 0 {
			return Value{}, nil, fmt.Errorf("types: key codec: unterminated %v payload", k)
		}
		rest := key[term+1:]
		if k == KindInt {
			// Hand-rolled decimal parse: strconv.ParseInt would force an
			// allocating []byte→string conversion, and int keys are the
			// common decode case.
			n, ok := parseKeyInt(key[:term])
			if !ok {
				return Value{}, nil, fmt.Errorf("types: key codec: bad int payload %q", key[:term])
			}
			return Int(n), rest, nil
		}
		f, err := strconv.ParseFloat(string(key[:term]), 64)
		if err != nil {
			return Value{}, nil, fmt.Errorf("types: key codec: bad float payload %q: %w", key[:term], err)
		}
		return Float(f), rest, nil
	case KindString:
		n, sz := binary.Uvarint(key)
		if sz <= 0 || uint64(len(key)-sz) < n {
			return Value{}, nil, fmt.Errorf("types: key codec: bad string frame")
		}
		s := string(key[sz : sz+int(n)])
		return Str(s), key[sz+int(n):], nil
	default:
		return Value{}, nil, fmt.Errorf("types: key codec: unknown kind tag %d", k)
	}
}
