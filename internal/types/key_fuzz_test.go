package types

import (
	"math"
	"testing"
)

// FuzzKeyCodecRoundTrip drives the AppendKey→DecodeKey round trip over
// the value space: every encodable tuple must decode back to strictly
// identical values (StrictEqual is the codec's identity relation).
func FuzzKeyCodecRoundTrip(f *testing.F) {
	f.Add(int64(0), 0.0, "", uint8(0))
	f.Add(int64(-1), 1.5, "a", uint8(1))
	f.Add(int64(math.MaxInt64), math.Inf(1), "日本\x00x", uint8(2))
	f.Add(int64(math.MinInt64), math.NaN(), "NaN", uint8(3))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, order uint8) {
		vals := Tuple{Int(i), Float(fl), Str(s), Null()}
		// Rotate so every kind appears in every position across inputs.
		r := int(order) % len(vals)
		tup := append(Tuple{}, vals[r:]...)
		tup = append(tup, vals[:r]...)

		enc := AppendKey(nil, tup, Identity(len(tup)))
		dec, err := DecodeKey(enc)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v (key %q)", err, enc)
		}
		if len(dec) != len(tup) {
			t.Fatalf("decoded %d values, want %d", len(dec), len(tup))
		}
		for k := range tup {
			if !StrictEqual(dec[k], tup[k]) {
				t.Fatalf("value %d: %v round-tripped to %v", k, tup[k], dec[k])
			}
		}
		// Determinism: re-encoding the decoded tuple is byte-identical.
		if re := AppendKey(nil, dec, Identity(len(dec))); string(re) != string(enc) {
			t.Fatalf("re-encode differs: %q vs %q", re, enc)
		}
	})
}

// FuzzDecodeKeyArbitrary feeds arbitrary bytes to the decoder: it must
// never panic or read out of bounds — truncated or corrupt frames return
// a graceful error — and anything it does accept must re-encode and
// decode to the same values.
func FuzzDecodeKeyArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{byte(KindNull)})
	f.Add([]byte{byte(KindInt), '1'})                 // unterminated int
	f.Add([]byte{byte(KindFloat), 'N', 'a'})          // unterminated float
	f.Add([]byte{byte(KindString), 0xff, 0xff, 0xff}) // huge length frame
	f.Add(AppendKeyAll(nil, Tuple{Int(42), Str("x"), Float(2.5)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := AppendDecodedKey(nil, data)
		if err != nil {
			return // graceful rejection is the contract
		}
		// Accepted input: the decoded values form a valid key that
		// round-trips through the codec.
		re := AppendKeyAll(nil, dec)
		dec2, err := DecodeKey(re)
		if err != nil {
			t.Fatalf("re-encoded key failed to decode: %v (input %q, re %q)", err, data, re)
		}
		if len(dec2) != len(dec) {
			t.Fatalf("re-decode length %d, want %d", len(dec2), len(dec))
		}
		for i := range dec {
			if !StrictEqual(dec2[i], dec[i]) {
				t.Fatalf("value %d: %v re-round-tripped to %v", i, dec[i], dec2[i])
			}
		}
	})
}

// hashFuzzValue builds a value of every kind from fuzz input: NULL, Int(i),
// the float of bits, Str(s), or the float nearest i — an int and a float
// that Compare ties, however large i is.
func hashFuzzValue(kind uint8, i int64, bits uint64, s string) Value {
	switch kind % 5 {
	case 0:
		return Null()
	case 1:
		return Int(i)
	case 2:
		return Float(math.Float64frombits(bits))
	case 3:
		return Str(s)
	default:
		return Float(float64(i))
	}
}

// FuzzHashAgreesWithEqual: values a hash probe calls equal (Equal) hash
// equal, alone and as a key column, so a probe finds every match in its own
// bucket and a table's bucket count never changes the matches; Equal is
// reflexive and symmetric and holds wherever the key codec's identity
// (StrictEqual) does.
func FuzzHashAgreesWithEqual(f *testing.F) {
	nan2 := uint64(0x7ff8000000000001)
	f.Add(uint8(1), int64(2), uint64(0), "", uint8(4), int64(2), uint64(0), "")
	f.Add(uint8(2), int64(0), math.Float64bits(0), "", uint8(2), int64(0), math.Float64bits(math.Copysign(0, -1)), "")
	f.Add(uint8(2), int64(0), math.Float64bits(math.NaN()), "", uint8(2), int64(0), nan2, "")
	f.Add(uint8(2), int64(0), nan2, "", uint8(1), int64(7), uint64(0), "")
	f.Add(uint8(0), int64(0), uint64(0), "", uint8(0), int64(0), uint64(0), "")
	f.Add(uint8(0), int64(0), uint64(0), "", uint8(1), int64(0), uint64(0), "")
	f.Add(uint8(1), int64(1<<53+1), uint64(0), "", uint8(4), int64(1<<53+1), uint64(0), "")
	f.Add(uint8(1), int64(1<<62), uint64(0), "", uint8(4), int64(1<<62), uint64(0), "")
	f.Add(uint8(1), int64(-1<<62), uint64(0), "", uint8(4), int64(-1<<62), uint64(0), "")
	f.Add(uint8(1), int64(math.MaxInt64), uint64(0), "", uint8(4), int64(math.MaxInt64), uint64(0), "")
	f.Add(uint8(2), int64(0), math.Float64bits(math.Inf(1)), "", uint8(2), int64(0), math.Float64bits(math.Inf(1)), "")
	f.Add(uint8(3), int64(0), uint64(0), "1", uint8(1), int64(1), uint64(0), "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa uint64, sa string, kb uint8, ib int64, fb uint64, sb string) {
		a, b := hashFuzzValue(ka, ia, fa, sa), hashFuzzValue(kb, ib, fb, sb)
		if !Equal(a, a) || !Equal(b, b) {
			t.Fatalf("Equal is not reflexive on %v (%v) or %v (%v)", a, a.K, b, b.K)
		}
		eq := Equal(a, b)
		if eq != Equal(b, a) {
			t.Fatalf("Equal(%v, %v) = %v one way only", a, b, eq)
		}
		if StrictEqual(a, b) && !eq {
			t.Fatalf("%v (%v) and %v (%v) are one key-codec value but not Equal", a, a.K, b, b.K)
		}
		if !eq {
			return
		}
		if Hash(a) != Hash(b) {
			t.Fatalf("Equal values hash apart: %v (%v) and %v (%v)", a, a.K, b, b.K)
		}
		ta, tb := Tuple{Str("pad"), a}, Tuple{b, Int(3)}
		if !ta.KeyEquals([]int{1}, tb, []int{0}) || ta.HashKey([]int{1}) != tb.HashKey([]int{0}) {
			t.Fatalf("key columns %v and %v are Equal but not one hash key", a, b)
		}
	})
}
