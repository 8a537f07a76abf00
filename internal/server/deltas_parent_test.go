package server

// This file keeps, as the reference the one-pass decode is measured against,
// the standing-body decoder that checked the whole body with json.Valid
// before scanning it, allocated its value slabs and delta chunks anew for
// every request and joined the chunks at the end. Only its names differ from
// the code it was (a parent prefix); it shares decodeValue, decodeBody and
// errUnread, which did not change. BenchmarkStandingDecode/parent runs it.

import (
	"encoding/json"
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

// decodeStandingParent reads a standing body's text as the parent decoder
// did, and resolves its scripts.
func decodeStandingParent(s *Server, body string) (d decodedBody) {
	b := &parentStandingBody{deltas: parentDeltaScripts{s: s}}
	if d.bodyErr = b.decode(body); d.bodyErr != nil {
		return d
	}
	d.query, d.options = b.query, b.options
	d.deltas, d.scriptErr = b.deltas.resolve()
	return d
}

// parentStandingBody is a POST /v1/standing body as the handler reads it: its
// query and options, and its deltas member's scripts.
type parentStandingBody struct {
	query   QuerySpec
	options RunOptions
	deltas  parentDeltaScripts
}

// decode reads a standing body in one pass over its text, which the delta
// rows' plain strings alias, after json.Valid checks the first value's
// syntax (bytes after it are ignored, as a Decoder ignored them). Keys match
// as encoding/json matches them, and it accepts what decoding into a
// StandingRequest accepted; a refused body is decoded whole into one, only
// to word the refusal. The refusals buildDeltas made wait in their script
// until resolve, which reports them after the query and options, as before.
func (b *parentStandingBody) decode(body string) error {
	sc := &parentScanner{src: body}
	obj, err := sc.ws() == '{', errUnread
	if start := sc.i; obj && json.Valid([]byte(sc.skip())) {
		sc.i = start
		err = sc.each(func(key string) error {
			switch {
			case strings.EqualFold(key, "query"):
				return decodeBody(sc.skip(), &b.query)
			case strings.EqualFold(key, "options"):
				return decodeBody(sc.skip(), &b.options)
			case strings.EqualFold(key, "deltas"):
				return b.deltas.read(sc)
			}
			return errUnread
		})
	}
	if err == nil {
		return nil
	}
	// Worded by encoding/json; the one non-object it takes is null, the empty request.
	if werr := decodeBody(body, new(StandingRequest)); werr != nil || !obj {
		return werr
	}
	return err
}

// parentDeltaScripts is the deltas member of a standing request body: each
// relation's script read by its column kinds, its rows converted straight
// into slabs of values. It accepts what decoding into
// map[string][]DeltaSpec and then buildDeltas accepted, and yields the same
// deltas.
type parentDeltaScripts struct {
	s       *Server
	scripts map[string]*parentDeltaScript
}

// parentDeltaScript is one relation's script: its deltas, or the refusal
// buildDeltas made of the first bad one.
type parentDeltaScript struct {
	deltas []source.Delta
	err    error
}

// parentSlabRows is how many rows one slab of converted values holds.
const parentSlabRows = 1024

// read reads one occurrence of the deltas member at the scanner. Like a
// map, the member takes the scripts of every occurrence, a later script for
// a relation replacing an earlier one, and null empties it.
func (d *parentDeltaScripts) read(sc *parentScanner) error {
	switch sc.ws() {
	case 'n':
		sc.skip()
		d.scripts = nil
		return nil
	case '{':
		if d.scripts == nil {
			d.scripts = map[string]*parentDeltaScript{}
		}
		return sc.each(func(name string) error {
			script, err := d.readScript(sc, name)
			d.scripts[name] = script
			return err
		})
	}
	return errUnread
}

// resolve returns the decoded scripts, or the refusal of the first bad
// script by relation name, so a body with several is refused with the same
// message every time.
func (d *parentDeltaScripts) resolve() (map[string][]source.Delta, error) {
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

// readScript reads the script for relation name at the scanner. A script
// for a relation the engine does not have is refused, but still read
// through. A row takes a slab slot past its values, for its sign, so that
// the delta source reads it in place (source.Delta).
func (d *parentDeltaScripts) readScript(sc *parentScanner, name string) (*parentDeltaScript, error) {
	script := &parentDeltaScript{}
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
	var vals []types.Value      // the slab rows convert into
	var chunks [][]source.Delta // the deltas, a chunk to a slab
	n := 0
	err := sc.each(func(string) error {
		i := n
		n++
		if cap(vals)-len(vals) <= w {
			vals = make([]types.Value, 0, parentSlabRows*(w+1))
			chunks = append(chunks, make([]source.Delta, 0, parentSlabRows))
		}
		start := len(vals)
		var (
			del parentScannedDelta
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
			vals = append(vals, types.Int(int64(del.sign)))
			c := len(chunks) - 1
			chunks[c] = append(chunks[c], source.Delta{At: del.at, Sign: del.sign, Row: vals[start : start+w : start+w+1]})
			return nil
		}
		vals = vals[:start]
		return nil
	})
	script.deltas = slices.Concat(chunks...)
	return script, err
}

// parentScannedDelta is one script element as read: its stamp, its sign, how
// many values its row has (0 without a row or with a null one), and the
// first of them that did not convert.
type parentScannedDelta struct {
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
func (sc *parentScanner) delta(cols []types.Column, vals []types.Value) (parentScannedDelta, []types.Value, error) {
	var d parentScannedDelta
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

// parentScanner walks the JSON text of a standing body, which has passed
// json.Valid, so it only finds where each value ends; on bytes that are not
// JSON it stops with an error rather than misread them.
type parentScanner struct {
	src string
	i   int
}

// ws skips white space and returns the byte after it, 0 at the end.
func (sc *parentScanner) ws() byte {
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
func (sc *parentScanner) each(f func(key string) error) error {
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
			if key, err = parentUnquote(sc.literal()); err != nil {
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
func (sc *parentScanner) skip() string {
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
func (sc *parentScanner) literal() string {
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
func (sc *parentScanner) value(k types.Kind) (types.Value, error) {
	raw := sc.skip()
	switch {
	case raw == "null":
		return types.Null(), nil
	case k == types.KindString && raw[0] == '"':
		if s, err := parentUnquote(raw); err == nil {
			return types.Str(s), nil
		}
	case (k == types.KindInt || k == types.KindFloat) && parentIsNumber(raw):
		if n, ok := parentSmallInt(raw); ok {
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

// parentUnquote returns the text a JSON string literal stands for: a substring
// of lit when there is nothing to unescape or repair, else what
// encoding/json makes of it.
func parentUnquote(lit string) (string, error) {
	if n := len(lit); n >= 2 && lit[n-1] == '"' && strings.IndexByte(lit, '\\') < 0 && utf8.ValidString(lit) {
		return lit[1 : n-1], nil
	}
	var s string
	err := json.Unmarshal([]byte(lit), &s)
	return s, err
}

// parentSmallInt reads a JSON number written as an integer of at most 15 digits,
// which a float64 holds exactly.
func parentSmallInt(raw string) (int64, bool) {
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

// parentIsNumber reports whether a JSON value's text is a number.
func parentIsNumber(raw string) bool { return raw[0] == '-' || '0' <= raw[0] && raw[0] <= '9' }
