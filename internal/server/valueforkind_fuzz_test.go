package server

import (
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
// strconv takes and JSON does not, the integer bound, integral floats,
// escapes, surrounding space, broken UTF-8, values of the wrong kind.
var valueForKindSeeds = []string{
	`0`, `-0`, `7`, `-12`, `3.0`, `1e3`, `1E+2`, `2.5`, `-2.5e-3`, `9007199254740991`, `9007199254740992`, `-9007199254740992`,
	`1e400`, `-1e400`, `1e-400`, `+1`, `0x10`, `Inf`, `NaN`, `1_0`, `01`, `-`, `.5`, `5.`, `1e`, `1e+`, ` 1`, `1 `, "1\n",
	`"abc"`, `""`, `"`, `"a\nb"`, `"aé"`, `"é"`, "\"a\tb\"", "\"\xff\"", `"a"b"`, `"a\"b"`, ` "a"`, `"a" `, `"12"`,
	`null`, ` null`, `nul`, `true`, `false`, `[]`, `[1]`, `{}`, `{"a":1}`, ``, ` `,
}

// FuzzValueForKind: for arbitrary bytes and every column kind, the conversion
// that reads plain literals off the bytes yields the value, or the error
// text, of the one that sent everything through encoding/json.
func FuzzValueForKind(f *testing.F) {
	for _, s := range valueForKindSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, k := range []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindNull} {
			got, gerr := valueForKind(raw, k)
			want, werr := valueForKindRef(raw, k)
			switch {
			case (gerr == nil) != (werr == nil), gerr != nil && gerr.Error() != werr.Error():
				t.Fatalf("valueForKind(%q, %v) error = %v, want %v", raw, k, gerr, werr)
			case gerr == nil && !(types.StrictEqual(got, want) && math.Signbit(got.F) == math.Signbit(want.F)):
				t.Fatalf("valueForKind(%q, %v) = %#v, want %#v", raw, k, got, want)
			}
		}
	})
}
