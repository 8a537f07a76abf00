package types

import (
	"math"
	"testing"
)

// colSample is a mixed-kind row set exercising every value corner the key
// kernels care about: nulls, ints, integral/fractional/special floats,
// and strings.
func colSample() []Tuple {
	return []Tuple{
		{Int(1), Float(2.0), Str("a")},
		{Int(-7), Float(-0.0), Str("")},
		{Null(), Float(math.NaN()), Str("bb")},
		{Int(1 << 40), Float(math.Inf(1)), Str("a")},
		{Int(0), Float(0.5), Str("日本")},
		{Int(1), Float(math.Inf(-1)), Str("a\x00b")},
	}
}

func TestColBatchRoundTrip(t *testing.T) {
	rows := colSample()
	b := FromRows(rows, 3)
	if b.Len() != len(rows) || b.Width() != 3 {
		t.Fatalf("batch %dx%d, want %dx3", b.Len(), b.Width(), len(rows))
	}
	back := b.ToRows(nil)
	for i := range rows {
		if rows[i].String() != back[i].String() {
			t.Fatalf("row %d: %v round-tripped to %v", i, rows[i], back[i])
		}
		for j := range rows[i] {
			if !StrictEqual(b.Col(j)[i], rows[i][j]) {
				t.Fatalf("Col(%d)[%d] = %v, want %v", j, i, b.Col(j)[i], rows[i][j])
			}
		}
	}
	// Reset + AppendRow reuse keeps contents correct.
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.AppendRow(rows[2])
	scratch := make(Tuple, 3)
	b.ReadRow(scratch, 0)
	if scratch.String() != rows[2].String() {
		t.Fatalf("ReadRow after reuse = %v, want %v", scratch, rows[2])
	}
}

// TestHashKeysMatchesRowHash pins the vectorized kernel to the scalar
// path: dst[i] must equal row i's Tuple.HashKey(cols) for every column
// subset, so batched and tuple-at-a-time executions route identically.
func TestHashKeysMatchesRowHash(t *testing.T) {
	rows := colSample()
	b := FromRows(rows, 3)
	for _, cols := range [][]int{{0}, {1}, {2}, {0, 1}, {2, 0}, {0, 1, 2}, {}} {
		hashes := HashKeys(nil, b, cols)
		if len(hashes) != len(rows) {
			t.Fatalf("cols %v: %d hashes for %d rows", cols, len(hashes), len(rows))
		}
		for i, r := range rows {
			if want := r.HashKey(cols); hashes[i] != want {
				t.Fatalf("cols %v row %d: HashKeys %x, HashKey %x", cols, i, hashes[i], want)
			}
		}
	}
}

// TestHashKeysReuseZeroAllocs pins the kernel's reuse path: with a
// capacious dst the whole batch hashes without allocating.
func TestHashKeysReuseZeroAllocs(t *testing.T) {
	rows := make([]Tuple, 512)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i % 37)), Str("payload")}
	}
	b := FromRows(rows, 2)
	cols := []int{0, 1}
	vec := HashKeys(nil, b, cols)
	allocs := testing.AllocsPerRun(100, func() {
		vec = HashKeys(vec, b, cols)
	})
	if allocs != 0 {
		t.Fatalf("HashKeys reuse path allocates %v per run, want 0", allocs)
	}
}

// TestStrictEqualMatchesCodecIdentity checks StrictEqual agrees with the
// byte codec on every pair of sample values: two values are strictly
// equal exactly when their key encodings coincide.
func TestStrictEqualMatchesCodecIdentity(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(1), Int(-1), Float(0), Float(math.Copysign(0, -1)),
		Float(1), Float(1.5), Float(math.NaN()), Float(math.Inf(1)),
		Float(math.Inf(-1)), Str(""), Str("1"), Str("a"),
	}
	for _, a := range vals {
		for _, b := range vals {
			enc := string(AppendKeyValue(nil, a)) == string(AppendKeyValue(nil, b))
			if got := StrictEqual(a, b); got != enc {
				t.Fatalf("StrictEqual(%v, %v) = %v, codec identity %v", a, b, got, enc)
			}
		}
	}
}

// TestNaNHashesEqual pins the HashValue canonicalization: distinct NaN
// payloads compare equal, so they must hash equal too.
func TestNaNHashesEqual(t *testing.T) {
	a := Float(math.NaN())
	b := Float(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1))
	if !math.IsNaN(b.F) {
		t.Skip("payload flip did not produce a NaN")
	}
	if Compare(a, b) != 0 {
		t.Fatal("NaNs should compare equal under Compare")
	}
	if Hash(a) != Hash(b) {
		t.Fatalf("NaN payloads hash differently: %x vs %x", Hash(a), Hash(b))
	}
}

func TestColAccessor(t *testing.T) {
	rows := colSample()
	b := FromRows(rows, 3)
	for j := 0; j < 3; j++ {
		col := b.Col(j)
		if len(col) != len(rows) {
			t.Fatalf("Col(%d) has %d values, want %d", j, len(col), len(rows))
		}
		for i := range rows {
			if !StrictEqual(col[i], rows[i][j]) {
				t.Fatalf("Col(%d)[%d] = %v, want %v", j, i, col[i], rows[i][j])
			}
		}
	}
}
