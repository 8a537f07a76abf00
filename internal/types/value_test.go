package types

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{KindNull: "null", KindInt: "int", KindFloat: "float", KindString: "string", Kind(9): "kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestValueConstructorsAndConversions(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if Int(7).AsInt() != 7 || Int(7).AsFloat() != 7 {
		t.Error("Int round trip failed")
	}
	if Float(2.5).AsFloat() != 2.5 || Float(2.5).AsInt() != 2 {
		t.Error("Float conversions failed")
	}
	if Str("11").AsInt() != 11 || Str("2.5").AsFloat() != 2.5 {
		t.Error("string numeric parse failed")
	}
	if Str("abc").AsInt() != 0 {
		t.Error("non-numeric string should convert to 0")
	}
	if Null().AsFloat() != 0 || Null().AsInt() != 0 {
		t.Error("null should convert to 0")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{Str("hi"), "hi"},
		{Value{K: Kind(9)}, "?"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(2.0), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Int(1), Str("1"), -1}, // numbers order before strings
		{Str("1"), Int(1), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return Compare(Str(a), Str(b)) == -Compare(Str(b), Str(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randVal := func() Value {
		switch rng.Intn(4) {
		case 0:
			return Int(rng.Int63n(100) - 50)
		case 1:
			return Float(float64(rng.Intn(100)) / 4)
		case 2:
			return Str(string(rune('a' + rng.Intn(5))))
		default:
			return Null()
		}
	}
	for i := 0; i < 2000; i++ {
		vs := []Value{randVal(), randVal(), randVal()}
		sort.Slice(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
		if Compare(vs[0], vs[1]) > 0 || Compare(vs[1], vs[2]) > 0 || Compare(vs[0], vs[2]) > 0 {
			t.Fatalf("sort order violated: %v", vs)
		}
	}
}

func TestEqualValuesHashEqual(t *testing.T) {
	// Equal-comparing values must hash identically (hash-join correctness).
	pairs := [][2]Value{
		{Int(2), Float(2.0)},
		{Int(-1), Float(-1.0)},
		{Int(0), Float(0)},
		{Str("x"), Str("x")},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("expected %v == %v", p[0], p[1])
		}
		if Hash(p[0]) != Hash(p[1]) {
			t.Errorf("equal values hash differently: %v vs %v", p[0], p[1])
		}
	}
}

func TestHashEqualProperty(t *testing.T) {
	f := func(a int64) bool {
		return Hash(Int(a)) == HashValue(14695981039346656037, Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Distinct ints should rarely collide; verify a dense range is
	// collision-free (FNV-1a over 8 bytes is injective-ish at this scale).
	seen := make(map[uint64]int64)
	for i := int64(0); i < 10000; i++ {
		h := Hash(Int(i))
		if prev, ok := seen[h]; ok {
			t.Fatalf("hash collision between %d and %d", prev, i)
		}
		seen[h] = i
	}
}

func TestKindDistinguishedInHash(t *testing.T) {
	if Hash(Int(1)) == Hash(Str("1")) {
		t.Error("Int(1) and Str(\"1\") should hash differently")
	}
}

var _ = reflect.DeepEqual // keep reflect imported for quick
