package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// valueForKindRef is valueForKind as commit 50935f1 had it: every scalar
// through encoding/json, then told apart by its Go type.
func valueForKindRef(raw json.RawMessage, k types.Kind) (types.Value, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return types.Value{}, fmt.Errorf("bad value: %w", err)
	}
	if v == nil {
		return types.Null(), nil
	}
	switch k {
	case types.KindInt:
		x, ok := v.(float64)
		if !ok || x != math.Trunc(x) || math.Abs(x) >= 1<<53 {
			return types.Value{}, fmt.Errorf("want an integer, got %s", raw)
		}
		return types.Int(int64(x)), nil
	case types.KindFloat:
		x, ok := v.(float64)
		if !ok {
			return types.Value{}, fmt.Errorf("want a number, got %s", raw)
		}
		return types.Float(x), nil
	case types.KindString:
		x, ok := v.(string)
		if !ok {
			return types.Value{}, fmt.Errorf("want a string, got %s", raw)
		}
		return types.Str(x), nil
	default:
		return types.Value{}, fmt.Errorf("column kind %v not wire-typed", k)
	}
}

// valueForKindSeeds are the literals the conversion has to tell apart: what
// strconv takes and JSON does not, the integer bound, the longest integers
// read without strconv, integral floats,
// escapes, surrounding space, broken UTF-8, values of the wrong kind, values
// with a number out of range inside.
var valueForKindSeeds = []string{
	`0`, `-0`, `7`, `-12`, `3.0`, `1e3`, `1E+2`, `2.5`, `-2.5e-3`, `9007199254740991`, `9007199254740992`, `-9007199254740992`,
	`1e400`, `-1e400`, `1e-400`, `+1`, `0x10`, `Inf`, `NaN`, `1_0`, `01`, `-`, `.5`, `5.`, `1e`, `1e+`, ` 1`, `1 `, "1\n",
	`"abc"`, `""`, `"`, `"a\nb"`, `"aé"`, `"é"`, "\"a\tb\"", "\"\xff\"", `"a"b"`, `"a\"b"`, ` "a"`, `"a" `, `"12"`,
	`null`, ` null`, `nul`, `true`, `false`, `[]`, `[1]`, `{}`, `{"a":1}`, ``, ` `,
	`[1e400]`, `{"a":[2,-1e999]}`, `["\u00e9", {"b":null}]`, `"\ud800"`, `"\u0041\n"`, `-0.0`, `1E-400`,
	`999999999999999`, `-999999999999999`, `1000000000000000`, `-10`,
}

// FuzzValueForKind: for every JSON value with nothing around it — what a
// delta row element is — and every column kind, the conversion the deltas
// scan makes reads the whole value and yields the value, or the error text,
// of the one that sent everything through encoding/json. Text that is not
// one JSON value it never reads to its end without a syntax error.
func FuzzValueForKind(f *testing.F) {
	for _, s := range valueForKindSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(bytes.TrimSpace(raw)) != len(raw) {
			return
		}
		valid := json.Valid(raw)
		for _, k := range []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindNull} {
			sc := deltaScanner{src: string(raw)}
			var got types.Value
			gerr, serr := sc.value(k, &got)
			if !valid {
				if serr == nil && sc.i == len(raw) {
					t.Fatalf("value(%q, %v) read all of a text that is not JSON", raw, k)
				}
				continue
			}
			want, werr := valueForKindRef(raw, k)
			switch {
			case serr != nil:
				t.Fatalf("value(%q, %v): syntax error %v in JSON", raw, k, serr)
			case sc.i != len(raw):
				t.Fatalf("value(%q, %v) read %d of %d bytes", raw, k, sc.i, len(raw))
			case (gerr == nil) != (werr == nil), gerr != nil && gerr.Error() != werr.Error():
				t.Fatalf("value(%q, %v) error = %v, want %v", raw, k, gerr, werr)
			case gerr == nil && !(types.StrictEqual(got, want) && math.Signbit(got.F) == math.Signbit(want.F)):
				t.Fatalf("value(%q, %v) = %#v, want %#v", raw, k, got, want)
			}
		}
	})
}
