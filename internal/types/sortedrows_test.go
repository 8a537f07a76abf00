package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// bitIdent renders a row's strict identity, every float by its bits, without
// the key codec SortedRows is held to.
func bitIdent(rows []Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			switch v.K {
			case KindInt:
				fmt.Fprintf(&sb, "i%d|", v.I)
			case KindFloat:
				fmt.Fprintf(&sb, "f%016x|", math.Float64bits(v.F))
			case KindString:
				fmt.Fprintf(&sb, "s%q|", v.S)
			default:
				sb.WriteString("null|")
			}
		}
		out[i] = sb.String()
	}
	return out
}

// keySorted is the order SortedRows must produce: a stable sort of a copy of
// rows by bytes.Compare of their AppendKeyAll encodings.
func keySorted(rows []Tuple) []Tuple {
	want := slices.Clone(rows)
	slices.SortStableFunc(want, func(a, b Tuple) int {
		return bytes.Compare(AppendKeyAll(nil, a), AppendKeyAll(nil, b))
	})
	return want
}

// TestSortedRowsOrdersFloatsByEncoding: SortedRows orders one-float rows as
// their key encodings order, on floats around every power of ten from 1e-5
// to 1e7 (a float's last ulps either side of it included), of both signs,
// and drawn across the decades at random.
func TestSortedRowsOrdersFloatsByEncoding(t *testing.T) {
	var fs []float64
	for p := 1e-5; p <= 1e7; p *= 10 {
		for _, x := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), 1.5 * p, 9.999999999999999 * p / 10, 0.99 * p} {
			fs = append(fs, x, -x)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		fs = append(fs, math.Pow(10, rng.Float64()*12-6), float64(rng.Intn(100000))/100)
	}
	var rows []Tuple
	for _, f := range fs {
		rows = append(rows, Tuple{Float(f)}, Tuple{Int(7), Float(f)})
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	want := keySorted(rows)
	if got := SortedRows(rows); !slices.Equal(bitIdent(got), bitIdent(want)) {
		t.Fatal("SortedRows does not order floats as their key encodings do")
	}
}

// Value tags of the fuzz input: a tag byte, then a 9-byte payload.
const (
	fuzzNull    = iota
	fuzzInt     // the payload's first 8 bytes
	fuzzBits    // a float of any bits: NaNs, infinities, subnormals
	fuzzDecade  // ±10^(b0%13-5), b1 ulps (signed) away: floatOrder's edges
	fuzzSpecial // one of fuzzSpecials
	fuzzStr     // the payload's first b8%10 bytes
	fuzzTags
)

const fuzzPayload = 9

var fuzzSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, 1e21, 1e-7,
}

// fuzzRows decodes data into rows: a byte gives a row's width (1 to 3), and
// each of its values is a tag byte and a payload.
func fuzzRows(data []byte) []Tuple {
	var rows []Tuple
	for len(data) > 0 && len(rows) < 64 {
		w := int(data[0])%3 + 1
		data = data[1:]
		row := make(Tuple, 0, w)
		for ; w > 0 && len(data) >= 1+fuzzPayload; w-- {
			row = append(row, fuzzValue(data[0], data[1:1+fuzzPayload]))
			data = data[1+fuzzPayload:]
		}
		if len(row) > 0 {
			rows = append(rows, row)
		}
	}
	return rows
}

func fuzzValue(tag byte, p []byte) Value {
	u := binary.LittleEndian.Uint64(p)
	switch tag % fuzzTags {
	case fuzzInt:
		return Int(int64(u))
	case fuzzBits:
		return Float(math.Float64frombits(u))
	case fuzzDecade:
		f := math.Pow(10, float64(int(p[0]%13)-5))
		for n := int8(p[1]); n != 0; {
			if n > 0 {
				f, n = math.Nextafter(f, math.Inf(1)), n-1
			} else {
				f, n = math.Nextafter(f, 0), n+1
			}
		}
		if p[2]&1 == 1 {
			f = -f
		}
		return Float(f)
	case fuzzSpecial:
		return Float(fuzzSpecials[int(p[0])%len(fuzzSpecials)])
	case fuzzStr:
		return Str(string(p[:int(p[8])%10]))
	}
	return Null()
}

// fuzzInput encodes one row per value list, the inverse of fuzzRows.
func fuzzInput(rows ...[][]byte) []byte {
	var data []byte
	for _, vals := range rows {
		data = append(data, byte(len(vals)-1))
		for _, v := range vals {
			data = append(data, v...)
			data = append(data, make([]byte, 1+fuzzPayload-len(v))...)
		}
	}
	return data
}

// FuzzSortedRowsMatchesKeyOrder: SortedRows orders any rows — of mixed
// kinds and widths, with NaN, both zeros, NULL, subnormals and floats at
// every decade edge, where floatOrder answers without encoding — exactly as
// a stable sort by bytes.Compare of AppendKeyAll does.
func FuzzSortedRowsMatchesKeyOrder(f *testing.F) {
	v := func(tag byte, payload ...byte) []byte { return append([]byte{tag}, payload...) }
	var edges [][]byte
	for e := byte(0); e < 13; e++ {
		for _, ulps := range []int8{0, 1, -1, 3} {
			edges = append(edges, v(fuzzDecade, e, byte(ulps), e))
		}
	}
	seeds := [][]byte{
		fuzzInput(edges[:24], edges[24:]),
		fuzzInput([][]byte{v(fuzzDecade, 5, 0xff)}, [][]byte{v(fuzzDecade, 4)}, [][]byte{v(fuzzDecade, 5)}),
		fuzzInput([][]byte{v(fuzzSpecial, 0)}, [][]byte{v(fuzzSpecial, 1)}, [][]byte{v(fuzzSpecial, 2)}, [][]byte{v(fuzzSpecial, 2)},
			[][]byte{v(fuzzSpecial, 5)}, [][]byte{v(fuzzSpecial, 7)}, [][]byte{v(fuzzSpecial, 8)}, [][]byte{v(fuzzNull)}),
		fuzzInput([][]byte{v(fuzzInt, 1)}, [][]byte{v(fuzzDecade, 5)}, [][]byte{v(fuzzStr, '1', 0, 0, 0, 0, 0, 0, 0, 1)},
			[][]byte{v(fuzzInt, 12)}, [][]byte{v(fuzzInt, 0xf4, 1)}, [][]byte{v(fuzzNull), v(fuzzInt, 1)}, [][]byte{v(fuzzNull)}),
		fuzzInput([][]byte{v(fuzzInt, 7), v(fuzzDecade, 6, 1)}, [][]byte{v(fuzzInt, 7)}, [][]byte{v(fuzzInt, 7), v(fuzzDecade, 6, 0xff)},
			[][]byte{v(fuzzInt, 7), v(fuzzBits, 1)}, [][]byte{v(fuzzInt, 7), v(fuzzStr, 'a', 'b', 0, 0, 0, 0, 0, 0, 2)}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := fuzzRows(data)
		want := keySorted(rows)
		if got := SortedRows(slices.Clone(rows)); !slices.Equal(bitIdent(got), bitIdent(want)) {
			t.Fatalf("SortedRows of %v\n= %v\nkey order %v", rows, got, want)
		}
	})
}
