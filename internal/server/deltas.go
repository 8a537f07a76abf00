package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// standingBody is a POST /v1/standing body as the handler reads it: the
// buffer its text is read into, its query and options, and its deltas
// member's scripts. It is also the storage of one request: the handler takes
// one from Server.bodies and gives it back once the run that reads its rows
// has ended, and the next request reads and decodes over what this one left.
type standingBody struct {
	body    []byte
	query   QuerySpec
	options RunOptions
	deltas  deltaScripts
	text    strings.Reader // the member decodeSkipped decodes, read by dec
	dec     *json.Decoder
}

// decode reads a standing body in one pass over its text, which the delta
// rows' plain strings alias, checking the first value's syntax as it goes
// (bytes after it are ignored, as a Decoder ignored them). Keys match as
// encoding/json matches them, and it accepts what decoding into a
// StandingRequest accepted; a refused body is decoded whole into one, only
// to word the refusal. The refusals buildDeltas made wait in their script
// until resolve, which reports them after the query and options, as before.
func (b *standingBody) decode(body string) error {
	b.query, b.options = QuerySpec{}, RunOptions{}
	b.deltas.reset()
	sc := &deltaScanner{src: body}
	obj, err := sc.ws() == '{', errUnread
	if obj {
		err = sc.each(func(key string) error {
			switch {
			case isKey(key, "query"):
				return b.decodeSkipped(sc, &b.query)
			case isKey(key, "options"):
				return b.decodeSkipped(sc, &b.options)
			case isKey(key, "deltas"):
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

// decodeSkipped passes over the value at the scanner and decodes its text
// into v through encoding/json, as decodeBody does, but with the decoder b
// keeps: the text is the whole value, so a decode leaves nothing buffered
// for the next. A decoder that failed is dropped, since it keeps failing.
func (b *standingBody) decodeSkipped(sc *deltaScanner, v any) error {
	raw, err := sc.skip()
	if err != nil {
		return err
	}
	b.text.Reset(raw)
	if b.dec == nil {
		b.dec = json.NewDecoder(&b.text)
		b.dec.DisallowUnknownFields()
	}
	if err = b.dec.Decode(v); err != nil {
		b.dec = nil
	}
	return err
}

// deltaScripts is the deltas member of a standing request body: each
// relation's script read by its column kinds, its rows converted straight
// into slabs of values. It accepts what decoding into
// map[string][]DeltaSpec and then buildDeltas accepted, and yields the same
// deltas. Its slabs, scripts and maps outlive a decode: the next decode
// writes over them, and reads no slot it did not write.
type deltaScripts struct {
	s       *Server
	scripts map[string]*deltaScript // by relation name
	pool    []*deltaScript          // every script read so far; the first used are this body's
	used    int
	slabs   [][]types.Value // every slab so far; the first nslab hold this body's rows
	nslab   int
	out     map[string][]source.Delta // resolve's result
}

// deltaScript is one relation's script: its deltas, or the refusal
// buildDeltas made of the first bad one.
type deltaScript struct {
	name   string // the engine's name of the relation, else the body's
	deltas []source.Delta
	err    error
}

// slabRows is how many rows a new slab of converted values holds.
const slabRows = 1024

// reset readies the scripts for a new body.
func (d *deltaScripts) reset() {
	clear(d.scripts)
	d.used, d.nslab = 0, 0
}

// script returns a script named name to read into, empty: the one it
// replaces, if any, else one not used yet.
func (d *deltaScripts) script(name string) *deltaScript {
	script := d.scripts[name]
	if script == nil {
		if d.used == len(d.pool) {
			d.pool = append(d.pool, new(deltaScript))
		}
		script = d.pool[d.used]
		d.used++
	}
	script.name, script.deltas, script.err = name, script.deltas[:0], nil
	return script
}

// slab returns an empty slab with room for at least one row of w values and
// its sign.
func (d *deltaScripts) slab(w int) []types.Value {
	if d.nslab == len(d.slabs) {
		d.slabs = append(d.slabs, nil)
	}
	if cap(d.slabs[d.nslab]) <= w {
		d.slabs[d.nslab] = make([]types.Value, 0, slabRows*(w+1))
	}
	d.nslab++
	return d.slabs[d.nslab-1][:0]
}

// read reads one occurrence of the deltas member at the scanner. Like a
// map, the member takes the scripts of every occurrence, a later script for
// a relation replacing an earlier one, and null empties it. A script takes
// the storage of the one it replaces, and after null every script's, so a
// body holds storage for at most one script a relation.
func (d *deltaScripts) read(sc *deltaScanner) error {
	switch sc.ws() {
	case 'n':
		d.reset()
		return sc.word("null")
	case '{':
		if d.scripts == nil {
			d.scripts = map[string]*deltaScript{}
		}
		return sc.each(func(name string) error {
			script, err := d.readScript(sc, name)
			if err == nil {
				d.scripts[script.name] = script
			}
			return err
		})
	}
	return errUnread
}

// resolve returns the decoded scripts, or the refusal of the first bad
// script by relation name, so a body with several is refused with the same
// message every time. The map is the scripts' own, until the next decode.
func (d *deltaScripts) resolve() (map[string][]source.Delta, error) {
	var bad *deltaScript
	for _, script := range d.scripts {
		if script.err != nil && (bad == nil || script.name < bad.name) {
			bad = script
		}
	}
	if bad != nil {
		return nil, bad.err
	}
	if d.out == nil {
		d.out = make(map[string][]source.Delta, len(d.scripts))
	}
	clear(d.out)
	for name, script := range d.scripts {
		d.out[name] = script.deltas
	}
	return d.out, nil
}

// readScript reads the script for relation name at the scanner. A script
// for a relation the engine does not have is refused, but still read
// through. A row takes a slab slot past its values, for its sign, so that
// the delta source reads it in place (source.Delta). A known relation's
// script is named by the engine's string, which outlives the body. The
// deltas grow, when full, by what the rest of the body holds at the rate
// read so far (rest), so that new storage sizes its one slice for a body
// of one script in a few steps.
func (d *deltaScripts) readScript(sc *deltaScanner, name string) (*deltaScript, error) {
	rel, ok := d.s.eng.Relation(name)
	if ok {
		name = rel.Name
	}
	script := d.script(name)
	var cols []types.Column
	if ok {
		cols = rel.Schema.Cols
	} else {
		script.err = fmt.Errorf("deltas for unknown relation %q", name)
	}
	switch sc.ws() {
	case 'n':
		return script, sc.word("null")
	case '[':
	default:
		return nil, errUnread
	}
	w, first := len(cols), sc.i
	var vals []types.Value // the slab rows convert into
	n := 0
	err := sc.each(func(string) error {
		i := n
		n++
		if cap(vals)-len(vals) <= w {
			vals = d.slab(w)
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
			vals = append(vals, types.Int(int64(del.sign)))
			if len(script.deltas) == cap(script.deltas) {
				script.deltas = slices.Grow(script.deltas, sc.rest(len(script.deltas), first))
			}
			script.deltas = append(script.deltas, source.Delta{At: del.at, Sign: del.sign, Row: vals[start : start+w : start+w+1]})
			return nil
		}
		vals = vals[:start]
		return nil
	})
	return script, err
}

// rest is how many more elements to make room for past n elements read
// from offset from: as many again up to 256, then what the text past the
// scanner holds at the rate they filled it, and an eighth more.
func (sc *deltaScanner) rest(n, from int) int {
	if n < 256 {
		return max(n, 16)
	}
	return max(16, n*(len(sc.src)-sc.i)/(sc.i-from)*9/8)
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
// cols onto the end of vals; values past the last column are only checked
// and counted. A key that is not a DeltaSpec field, or a value of a JSON
// type the field does not take, is an error.
func (sc *deltaScanner) delta(cols []types.Column, vals []types.Value) (scannedDelta, []types.Value, error) {
	var d scannedDelta
	start := len(vals)
	switch sc.ws() {
	case 'n':
		return d, vals, sc.word("null")
	case '{':
	default:
		return d, vals, errUnread
	}
	err := sc.each(func(key string) error {
		switch {
		case isKey(key, "at"):
			var n jsonNumber
			text, err := sc.nullOrNumber(&n)
			if err == nil && text != "" {
				d.at, err = n.float(text)
			}
			return err
		case isKey(key, "sign"):
			var n jsonNumber
			text, err := sc.nullOrNumber(&n)
			if err == nil && text != "" {
				d.sign, err = n.int(text)
			}
			return err
		case isKey(key, "row"):
			vals, d.width, d.bad = vals[:start], 0, nil
			switch sc.ws() {
			case 'n':
				return sc.word("null")
			case '[':
				return sc.each(func(string) error {
					j := d.width
					d.width++
					if j >= len(cols) {
						_, err := sc.skip()
						return err
					}
					vals = append(vals, types.Value{})
					bad, err := sc.value(cols[j].Kind, &vals[len(vals)-1])
					if bad != nil && d.bad == nil {
						d.bad, d.badCol = bad, j
					}
					return err
				})
			}
		}
		return errUnread
	})
	return d, vals, err
}

// nullOrNumber reads the null, which leaves a field as it was, or the
// number at the scanner into n, and returns the number's text ("" for null).
func (sc *deltaScanner) nullOrNumber(n *jsonNumber) (string, error) {
	switch c := sc.ws(); {
	case c == 'n':
		return "", sc.word("null")
	case c == '-' || isDigit(c):
		start := sc.i
		err := sc.number(n)
		return sc.src[start:sc.i], err
	}
	return "", errUnread
}

// maxDepth is how deeply encoding/json lets arrays and objects nest.
const maxDepth = 10000

// deltaScanner walks the JSON text of a standing body and checks its syntax
// as it goes: at a byte that cannot continue the value, the end of the text
// included, it stops with errUnread.
type deltaScanner struct {
	src   string
	i     int
	depth int // the arrays and objects open at the scanner
}

// errUnread stops the scan at what it will not read — text that is not
// JSON, a value of the wrong JSON type, an unknown key — for the decode
// into a StandingRequest to word.
var errUnread = errors.New("json: body not of type server.StandingRequest")

// ws skips white space and returns the byte after it, 0 at the end.
func (sc *deltaScanner) ws() byte {
	for ; sc.i < len(sc.src); sc.i++ {
		if c := sc.src[sc.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// each calls f at every element of the array, or every member of the
// object, at the scanner — with the member's key — and moves past its end.
// f reads the value, white space before it included.
func (sc *deltaScanner) each(f func(key string) error) error {
	obj, end := sc.src[sc.i] == '{', byte(']')
	if obj {
		end = '}'
	}
	if sc.depth++; sc.depth > maxDepth {
		return errUnread
	}
	sc.i++
	if sc.ws() == end {
		sc.i++
		sc.depth--
		return nil
	}
	for {
		var key string
		if obj {
			if sc.ws() != '"' {
				return errUnread
			}
			var err error
			if key, err = sc.str(); err != nil {
				return err
			}
			if sc.ws() != ':' {
				return errUnread
			}
			sc.i++
		}
		if err := f(key); err != nil {
			return err
		}
		switch sc.ws() {
		case ',':
			sc.i++
		case end:
			sc.i++
			sc.depth--
			return nil
		default:
			return errUnread
		}
	}
}

// skip passes over the value at the scanner and returns its text.
func (sc *deltaScanner) skip() (string, error) {
	start := sc.i
	var err error
	switch c := sc.ws(); {
	case c == '{' || c == '[':
		err = sc.each(func(string) error {
			_, err := sc.skip()
			return err
		})
	case c == '"':
		_, err = sc.str()
	case c == '-' || isDigit(c):
		err = sc.number(new(jsonNumber))
	case c == 't':
		err = sc.word("true")
	case c == 'f':
		err = sc.word("false")
	case c == 'n':
		err = sc.word("null")
	default:
		err = errUnread
	}
	return sc.src[start:sc.i], err
}

// word passes over the literal w at the scanner.
func (sc *deltaScanner) word(w string) error {
	if !strings.HasPrefix(sc.src[sc.i:], w) {
		return errUnread
	}
	sc.i += len(w)
	return nil
}

// str passes over the string literal at the scanner and returns the text
// it stands for: a substring of the literal when it has no escape and is
// valid UTF-8, else what encoding/json makes of it, its escapes undone and
// its broken UTF-8 repaired.
func (sc *deltaScanner) str() (string, error) {
	src, start := sc.src, sc.i
	plain, ascii := true, true
	for i := start + 1; i < len(src); i++ {
		switch c := src[i]; {
		case c == '"':
			sc.i = i + 1
			lit := src[start:sc.i]
			if plain && (ascii || utf8.ValidString(lit)) {
				return lit[1 : len(lit)-1], nil
			}
			var s string
			json.Unmarshal([]byte(lit), &s) // the literal is checked: it decodes
			return s, nil
		case c == '\\':
			plain = false
			if i++; i == len(src) {
				return "", errUnread
			}
			switch src[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(src) || !isHex(src[i+1]) || !isHex(src[i+2]) || !isHex(src[i+3]) || !isHex(src[i+4]) {
					return "", errUnread
				}
				i += 4
			default:
				return "", errUnread
			}
		case c < ' ':
			return "", errUnread
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", errUnread
}

// jsonNumber is a number as number read it: while it has at most 19
// digits, the integer they make and the power of ten that scales it.
type jsonNumber struct {
	mant   uint64
	exp    int
	digits int // the digits in mant; past 19, mant holds only the first 19
	neg    bool
	frac   bool // written with a fraction or an exponent
}

// number passes over the number at the scanner, converting its digits into
// n as it reads them.
func (sc *deltaScanner) number(n *jsonNumber) error {
	src, i := sc.src, sc.i
	if n.neg = src[i] == '-'; n.neg {
		i++
	}
	switch {
	case i == len(src) || !isDigit(src[i]):
		return errUnread
	case src[i] == '0':
		i++
	default:
		for ; i < len(src) && isDigit(src[i]); i++ {
			n.digit(src[i])
		}
	}
	if i < len(src) && src[i] == '.' {
		n.frac = true
		d := i + 1
		for i = d; i < len(src) && isDigit(src[i]); i++ {
			n.digit(src[i])
			n.exp--
		}
		if i == d {
			return errUnread
		}
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		n.frac = true
		i++
		neg := i < len(src) && src[i] == '-'
		if i < len(src) && (src[i] == '-' || src[i] == '+') {
			i++
		}
		d, e := i, 0
		for ; i < len(src) && isDigit(src[i]); i++ {
			e = min(10*e+int(src[i]-'0'), 1<<20) // past any float64's exponent
		}
		if i == d {
			return errUnread
		}
		if neg {
			e = -e
		}
		n.exp += e
	}
	sc.i = i
	return nil
}

// digit appends one digit to the number's integer, which past 19 digits
// only counts them.
func (n *jsonNumber) digit(c byte) {
	if n.digits++; n.digits <= 19 {
		n.mant = 10*n.mant + uint64(c-'0')
	}
}

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float returns the float64 nearest the number, whose text is text, as
// strconv.ParseFloat does. An integer of at most 53 bits scaled by an exact
// power of ten is one correctly rounded product or quotient; any other
// number is ParseFloat's.
func (n *jsonNumber) float(text string) (float64, error) {
	if n.digits > 19 || n.mant > 1<<53 || n.exp < -22 || n.exp > 22 {
		return strconv.ParseFloat(text, 64)
	}
	f := float64(n.mant)
	if n.exp < 0 {
		f /= pow10[-n.exp]
	} else {
		f *= pow10[n.exp]
	}
	if n.neg {
		f = -f
	}
	return f, nil
}

// int returns the number, whose text is text, as an int, as
// strconv.ParseInt does: a fraction or an exponent, or a value past the int
// range, is an error.
func (n *jsonNumber) int(text string) (int, error) {
	if !n.frac && n.digits <= 18 {
		if n.neg {
			return -int(n.mant), nil
		}
		return int(n.mant), nil
	}
	x, err := strconv.ParseInt(text, 10, strconv.IntSize)
	return int(x), err
}

// value converts the row value at the scanner to *v, a value of column
// kind k. null, a number for a numeric column and a string for a string
// column are converted as they are read; anything else — a number out of
// range or with a fraction for an int column, a value of the wrong JSON type
// — goes through decodeValue, which words the refusal, bad. err is the
// scan's.
func (sc *deltaScanner) value(k types.Kind, v *types.Value) (bad, err error) {
	c := sc.ws()
	start := sc.i
	switch {
	case c == 'n':
		*v = types.Null()
		return nil, sc.word("null")
	case c == '"' && k == types.KindString:
		s, err := sc.str()
		if err == nil {
			*v = types.Str(s)
		}
		return nil, err
	case c == '-' || isDigit(c):
		var n jsonNumber
		if err := sc.number(&n); err != nil {
			return nil, err
		}
		if k != types.KindInt && k != types.KindFloat {
			break
		}
		x, ferr := n.float(sc.src[start:sc.i])
		switch {
		case ferr != nil:
		case k == types.KindFloat:
			*v = types.Float(x)
			return nil, nil
		case x == math.Trunc(x) && math.Abs(x) < 1<<53:
			*v = types.Int(int64(x))
			return nil, nil
		}
	default:
		if _, err := sc.skip(); err != nil {
			return nil, err
		}
	}
	*v, bad = decodeValue(sc.src[start:sc.i], k)
	return bad, nil
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

// isKey reports whether a member's key names field, as encoding/json
// matches keys to fields: exactly, else by case folding.
func isKey(key, field string) bool { return key == field || strings.EqualFold(key, field) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c|0x20 && c|0x20 <= 'f' }
