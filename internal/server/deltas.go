package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// standingBody returns what a POST /v1/standing body decodes into: a
// StandingRequest whose deltas member a deltaScripts reads. The type is
// declared here under the exported one's name so that encoding/json words
// its refusals of query and options exactly as it does for StandingRequest.
func (s *Server) standingBody() (req any, spec *QuerySpec, ro *RunOptions, deltas *deltaScripts) {
	type StandingRequest struct {
		Query   QuerySpec    `json:"query"`
		Deltas  deltaScripts `json:"deltas"`
		Options RunOptions   `json:"options,omitempty"`
	}
	b := &StandingRequest{Deltas: deltaScripts{s: s}}
	return b, &b.Query, &b.Options, &b.Deltas
}

// deltaScripts is the deltas member of a standing request body, read in
// one pass over its bytes: encoding/json hands UnmarshalJSON the member's
// text (once per occurrence of the key), and each relation's script is
// read off it by that relation's column kinds, its rows converted straight
// into slabs of values. It accepts what decoding into
// map[string][]DeltaSpec and then buildDeltas accepted, and yields the same
// deltas. The refusals encoding/json made — a value of the wrong JSON type,
// an unknown key in a delta — fail the body's decode, in its words, so they
// still come before the query's; the ones buildDeltas made wait in their
// script until resolve, which reports them after the query and options, as
// before.
type deltaScripts struct {
	s       *Server
	scripts map[string]*deltaScript
}

// deltaScript is one relation's script: its deltas, or the refusal
// buildDeltas made of the first bad one.
type deltaScript struct {
	deltas []source.Delta
	err    error
}

// slabRows is how many rows one slab of converted values holds.
const slabRows = 1024

// UnmarshalJSON reads one occurrence of the deltas member. Like a map, the
// member takes the scripts of every occurrence, a later script for a
// relation replacing an earlier one, and null empties it.
func (d *deltaScripts) UnmarshalJSON(data []byte) error {
	// Plain strings in the rows are substrings of this one copy.
	sc := &deltaScanner{src: string(data)}
	switch sc.ws() {
	case 'n':
		d.scripts = nil
		return nil
	case '{':
	default:
		return refusal(data, errUnread)
	}
	if d.scripts == nil {
		d.scripts = map[string]*deltaScript{}
	}
	err := sc.each(func(name string) error {
		script, err := d.read(sc, name)
		d.scripts[name] = script
		return err
	})
	if err != nil {
		return refusal(data, err)
	}
	return nil
}

// refusal words the refusal of a deltas member the scan would not read
// exactly as decoding it into a StandingRequest did — the decode of the
// member alone, into a type of that name — and falls back on the scan's
// error if that decode takes the member after all.
func refusal(data []byte, scanErr error) error {
	type StandingRequest struct {
		Deltas map[string][]DeltaSpec `json:"deltas"`
	}
	body := append(append([]byte(`{"deltas":`), data...), '}')
	if err := decodeBody(bytes.NewReader(body), new(StandingRequest)); err != nil {
		// Wrapped, so that the body's decoder leaves the field it names be.
		return fmt.Errorf("%w", err)
	}
	return scanErr
}

// resolve returns the decoded scripts, or the refusal of the first bad
// script by relation name, so a body with several is refused with the same
// message every time.
func (d *deltaScripts) resolve() (map[string][]source.Delta, error) {
	out := make(map[string][]source.Delta, len(d.scripts))
	for _, name := range slices.Sorted(maps.Keys(d.scripts)) {
		script := d.scripts[name]
		if script.err != nil {
			return nil, script.err
		}
		out[name] = script.deltas
	}
	return out, nil
}

// read reads the script for relation name at the scanner. A script for a
// relation the engine does not have is refused, but still read through.
func (d *deltaScripts) read(sc *deltaScanner, name string) (*deltaScript, error) {
	script := &deltaScript{}
	var cols []types.Column
	if rel, ok := d.s.eng.Relation(name); ok {
		cols = rel.Schema.Cols
	} else {
		script.err = fmt.Errorf("deltas for unknown relation %q", name)
	}
	switch sc.ws() {
	case 'n':
		sc.skip()
		return script, nil
	case '[':
	default:
		return nil, errUnread
	}
	w := len(cols)
	var vals []types.Value // the slab rows convert into
	n := 0
	err := sc.each(func(string) error {
		i := n
		n++
		if cap(vals)-len(vals) < w {
			vals = make([]types.Value, 0, slabRows*w)
		}
		start := len(vals)
		var (
			del scannedDelta
			err error
		)
		if del, vals, err = sc.delta(cols, vals); err != nil {
			return err
		}
		switch {
		case script.err != nil:
		case del.sign != 1 && del.sign != -1:
			script.err = fmt.Errorf("delta %d for %q: sign must be 1 or -1", i, name)
		case del.width != w:
			script.err = fmt.Errorf("delta %d for %q: %d values, schema has %d columns", i, name, del.width, w)
		case del.bad != nil:
			script.err = fmt.Errorf("delta %d for %q, column %q: %w", i, name, cols[del.badCol].Name, del.bad)
		default:
			script.deltas = append(script.deltas, source.Delta{At: del.at, Sign: del.sign, Row: vals[start:len(vals):len(vals)]})
			return nil
		}
		vals = vals[:start]
		return nil
	})
	return script, err
}

// scannedDelta is one script element as read: its stamp, its sign, how
// many values its row has (0 without a row or with a null one), and the
// first of them that did not convert.
type scannedDelta struct {
	at     float64
	sign   int
	width  int
	bad    error
	badCol int
}

// delta reads the script element at the scanner, converting its row by
// cols onto the end of vals; values past the last column are only counted.
// A key that is not a DeltaSpec field, or a value of a JSON type the
// field does not take, is an error.
func (sc *deltaScanner) delta(cols []types.Column, vals []types.Value) (scannedDelta, []types.Value, error) {
	var d scannedDelta
	start := len(vals)
	switch sc.ws() {
	case 'n':
		sc.skip()
		return d, vals, nil
	case '{':
	default:
		return d, vals, errUnread
	}
	err := sc.each(func(key string) error {
		var err error
		switch {
		case strings.EqualFold(key, "at"):
			if raw := sc.skip(); raw != "null" {
				d.at, err = strconv.ParseFloat(raw, 64)
			}
		case strings.EqualFold(key, "sign"):
			if raw := sc.skip(); raw != "null" {
				var x int64
				x, err = strconv.ParseInt(raw, 10, strconv.IntSize)
				d.sign = int(x)
			}
		case strings.EqualFold(key, "row"):
			vals, d.width, d.bad = vals[:start], 0, nil
			switch sc.ws() {
			case 'n':
				sc.skip()
			case '[':
				err = sc.each(func(string) error {
					j := d.width
					d.width++
					if j >= len(cols) {
						sc.skip()
						return nil
					}
					v, err := sc.value(cols[j].Kind)
					if err != nil && d.bad == nil {
						d.bad, d.badCol = err, j
					}
					vals = append(vals, v)
					return nil
				})
			default:
				err = errUnread
			}
		default:
			err = errUnread
		}
		return err
	})
	return d, vals, err
}

// deltaScanner walks the JSON text of a deltas member. The text has passed
// encoding/json's syntax check before UnmarshalJSON sees it, so the scanner
// only finds where each value ends; on bytes that are not JSON it stops
// with an error rather than misread them.
type deltaScanner struct {
	src string
	i   int
}

// errUnread stops the scan at what it will not read — bytes that are not
// JSON, a value of the wrong JSON type, an unknown key — for refusal to
// word.
var errUnread = errors.New("json: deltas member not of type map[string][]server.DeltaSpec")

// ws skips white space and returns the byte after it, 0 at the end.
func (sc *deltaScanner) ws() byte {
	for ; sc.i < len(sc.src); sc.i++ {
		switch c := sc.src[sc.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// each calls f at every element of the array, or every member of the
// object, at the scanner — with the member's key — and moves past its end.
// f reads the value.
func (sc *deltaScanner) each(f func(key string) error) error {
	obj, end := sc.src[sc.i] == '{', byte(']')
	if obj {
		end = '}'
	}
	sc.i++
	if sc.ws() == end {
		sc.i++
		return nil
	}
	for {
		var key string
		if obj {
			if sc.ws() != '"' {
				return errUnread
			}
			var err error
			if key, err = unquote(sc.literal()); err != nil {
				return err
			}
			if sc.ws() != ':' {
				return errUnread
			}
			sc.i++
		}
		if sc.ws() == 0 {
			return errUnread
		}
		if err := f(key); err != nil {
			return err
		}
		switch sc.ws() {
		case ',':
			sc.i++
		case end:
			sc.i++
			return nil
		default:
			return errUnread
		}
	}
}

// skip passes over the value at the scanner and returns its text.
func (sc *deltaScanner) skip() string {
	start, depth := sc.i, 0
	for {
		switch sc.ws() {
		case 0:
			return sc.src[start:sc.i]
		case '[', '{':
			depth++
			sc.i++
		case ']', '}':
			depth--
			sc.i++
		case ',', ':':
			sc.i++
		default:
			sc.literal()
		}
		if depth <= 0 {
			return sc.src[start:sc.i]
		}
	}
}

// literal passes over the string, number, true, false or null at the
// scanner and returns its text.
func (sc *deltaScanner) literal() string {
	start := sc.i
	if sc.src[start] == '"' {
		for sc.i++; sc.i < len(sc.src); sc.i++ {
			switch sc.src[sc.i] {
			case '\\':
				sc.i++
			case '"':
				sc.i++
				return sc.src[start:sc.i]
			}
		}
		sc.i = len(sc.src)
		return sc.src[start:]
	}
	for ; sc.i < len(sc.src); sc.i++ {
		switch sc.src[sc.i] {
		case ' ', '\t', '\n', '\r', ',', ':', ']', '}':
			return sc.src[start:sc.i]
		}
	}
	return sc.src[start:]
}

// value converts the row value at the scanner to a value of column kind k.
// null, a number for a numeric column and a string with nothing to undo
// for a string column are read off the text; anything else — an escape, a
// number out of range or with a fraction for an int column, a value of the
// wrong JSON type — goes through decodeValue, which words the refusals.
func (sc *deltaScanner) value(k types.Kind) (types.Value, error) {
	raw := sc.skip()
	switch {
	case raw == "null":
		return types.Null(), nil
	case k == types.KindString && raw[0] == '"':
		if s, err := unquote(raw); err == nil {
			return types.Str(s), nil
		}
	case (k == types.KindInt || k == types.KindFloat) && isNumber(raw):
		if n, ok := smallInt(raw); ok {
			switch {
			case k == types.KindInt:
				return types.Int(n), nil
			case n != 0: // a zero is left to ParseFloat, which keeps "-0"'s sign
				return types.Float(float64(n)), nil
			}
		}
		x, err := strconv.ParseFloat(raw, 64)
		switch {
		case err != nil:
		case k == types.KindFloat:
			return types.Float(x), nil
		case x == math.Trunc(x) && math.Abs(x) < 1<<53:
			return types.Int(int64(x)), nil
		}
	}
	return decodeValue(raw, k)
}

// decodeValue converts one JSON value to a value of column kind k through
// encoding/json.
func decodeValue(raw string, k types.Kind) (types.Value, error) {
	var v any
	if err := json.Unmarshal([]byte(raw), &v); err != nil {
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

// unquote returns the text a JSON string literal stands for: a substring
// of lit when there is nothing to unescape or repair, else what
// encoding/json makes of it.
func unquote(lit string) (string, error) {
	if n := len(lit); n >= 2 && lit[n-1] == '"' && strings.IndexByte(lit, '\\') < 0 && utf8.ValidString(lit) {
		return lit[1 : n-1], nil
	}
	var s string
	err := json.Unmarshal([]byte(lit), &s)
	return s, err
}

// smallInt reads a JSON number written as an integer of at most 15 digits,
// which a float64 holds exactly.
func smallInt(raw string) (int64, bool) {
	digits := strings.TrimPrefix(raw, "-")
	if len(digits) == 0 || len(digits) > 15 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(digits); i++ {
		c := digits[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = 10*n + int64(c)
	}
	if len(digits) < len(raw) {
		n = -n
	}
	return n, true
}

// isNumber reports whether a JSON value's text is a number.
func isNumber(raw string) bool { return raw[0] == '-' || '0' <= raw[0] && raw[0] <= '9' }
