package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// buildDeltasRef is buildDeltas as commit e11d2be had it, converting values
// with valueForKindRef, to which FuzzValueForKind held that commit's
// valueForKind, error text included.
func (s *Server) buildDeltasRef(specs map[string][]DeltaSpec) (map[string][]source.Delta, error) {
	out := make(map[string][]source.Delta, len(specs))
	for _, name := range slices.Sorted(maps.Keys(specs)) {
		script := specs[name]
		rel, ok := s.eng.Relation(name)
		if !ok {
			return nil, fmt.Errorf("deltas for unknown relation %q", name)
		}
		ds := make([]source.Delta, 0, len(script))
		for i, d := range script {
			if d.Sign != 1 && d.Sign != -1 {
				return nil, fmt.Errorf("delta %d for %q: sign must be 1 or -1", i, name)
			}
			if len(d.Row) != rel.Schema.Len() {
				return nil, fmt.Errorf("delta %d for %q: %d values, schema has %d columns",
					i, name, len(d.Row), rel.Schema.Len())
			}
			row := make(types.Tuple, len(d.Row))
			for j, raw := range d.Row {
				v, err := valueForKindRef(raw, rel.Schema.Cols[j].Kind)
				if err != nil {
					return nil, fmt.Errorf("delta %d for %q, column %q: %w",
						i, name, rel.Schema.Cols[j].Name, err)
				}
				row[j] = v
			}
			ds = append(ds, source.Delta{At: d.At, Sign: d.Sign, Row: row})
		}
		out[name] = ds
	}
	return out, nil
}

// decodedBody is what a standing body decodes to: its query, options and
// deltas, or a refusal of the body or of one of its scripts. The two
// refusals come apart, for the handler reports the one before the query's
// and the other after.
type decodedBody struct {
	query              QuerySpec
	options            RunOptions
	deltas             map[string][]source.Delta
	bodyErr, scriptErr error
}

// decodeStandingRef reads a standing body as commit e11d2be did: the body
// into a StandingRequest, unknown fields refused, then buildDeltas.
func decodeStandingRef(s *Server, body []byte) (d decodedBody) {
	var req StandingRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if d.bodyErr = dec.Decode(&req); d.bodyErr != nil {
		return d
	}
	d.query, d.options = req.Query, req.Options
	d.deltas, d.scriptErr = s.buildDeltasRef(req.Deltas)
	return d
}

// decodeStanding reads a standing body's text as the handler does.
func decodeStanding(s *Server, body string) (d decodedBody) {
	b := &standingBody{deltas: deltaScripts{s: s}}
	if d.bodyErr = b.decode(body); d.bodyErr != nil {
		return d
	}
	d.query, d.options = b.query, b.options
	d.deltas, d.scriptErr = b.deltas.resolve()
	return d
}

// diffBodies describes the first difference between two bodies' decodes
// ("" if none): the same refusals, word for word, and — for what both
// accept — equal queries and options and the same deltas (diffDeltas).
func diffBodies(got, want decodedBody) string {
	switch {
	case fmt.Sprint(got.bodyErr) != fmt.Sprint(want.bodyErr):
		return fmt.Sprintf("refusal of the body %v, want %v", got.bodyErr, want.bodyErr)
	case want.bodyErr != nil:
		return ""
	case !reflect.DeepEqual(got.query, want.query) || !reflect.DeepEqual(got.options, want.options):
		return fmt.Sprintf("query %+v options %+v, want %+v %+v", got.query, got.options, want.query, want.options)
	case fmt.Sprint(got.scriptErr) != fmt.Sprint(want.scriptErr):
		return fmt.Sprintf("refusal of a script %v, want %v", got.scriptErr, want.scriptErr)
	case want.scriptErr != nil:
		return ""
	}
	return diffDeltas(got.deltas, want.deltas)
}

// diffDeltas describes the first difference between two decoded bodies'
// deltas ("" if none): values compare by StrictEqual and the sign bit,
// stamps bit for bit.
func diffDeltas(got, want map[string][]source.Delta) string {
	if !slices.Equal(slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want))) {
		return fmt.Sprintf("relations %v, want %v", slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
	for name, ws := range want {
		gs := got[name]
		if len(gs) != len(ws) {
			return fmt.Sprintf("%s: %d deltas, want %d", name, len(gs), len(ws))
		}
		for i, w := range ws {
			g := gs[i]
			if math.Float64bits(g.At) != math.Float64bits(w.At) || g.Sign != w.Sign || len(g.Row) != len(w.Row) {
				return fmt.Sprintf("%s delta %d: %+v, want %+v", name, i, g, w)
			}
			for j := range w.Row {
				if !types.StrictEqual(g.Row[j], w.Row[j]) || math.Signbit(g.Row[j].F) != math.Signbit(w.Row[j].F) {
					return fmt.Sprintf("%s delta %d value %d: %#v, want %#v", name, i, j, g.Row[j], w.Row[j])
				}
			}
		}
	}
	return ""
}

// standingDeltasSeeds are bodies over the spjEngine fixture (orders: int,
// int, float; cust: int, string): the standing tests' and the wire
// protocol's, and bodies with what the decode has to get right besides.
func standingDeltasSeeds() []string {
	q := `{"relations":["orders"],"select":["orders.id"]}`
	body := func(deltas string) string { return `{"query":` + q + `,"deltas":` + deltas + `}` }
	orders := func(ds ...string) string { return body(`{"orders":[` + strings.Join(ds, ",") + `]}`) }
	seeds := []string{
		standingRequest(`{"strategy":"static","poll_every":2}`),
		standingRequest(`{"strategy":"planpart"}`),
		`{"query":{"name":"spend-by-customer","relations":["cust","orders"],"joins":[{"left":"orders.cust","right":"cust.id"}],
		  "group_by":["cust.name"],"aggs":[{"fn":"sum","arg":"orders.total","as":"spend"}]},
		  "deltas":{"orders":[{"at": 0.5, "sign": 1, "row": [106, 3, 30]},{"at": 1.0, "sign": -1, "row": [101, 2, 80]}]},
		  "options":{"strategy":"static","poll_every":1}}`,
		`{"query": {"relations": ["orders"], "select": ["orders.id"]}, "deltas": {}, "options": {"strategy": "planpart"}}`,
		orders(`{"at":0.01,"sign":2,"row":[1,1,1.0]}`),
		orders(`{"at":0.01,"sign":1,"row":[1,1]}`),
		body(`{"ghost":[{"at":0.01,"sign":1,"row":[1]}]}`),
		orders(`{"at":0.01,"sign":1,"row":["x",1,1.0]}`),
		body(`{"orders":[{"at":0.01,"sign":2,"row":[1,1,1.0]}],"cust":[{"at":0.01,"sign":1,"row":[1]}],"ghost":[{"at":0.01,"sign":1,"row":[1]}]}`),
		body(`{"cust":[{"at":0,"sign":1,"row":[1,"x"]}],"orders":[{"at":0,"sign":1,"row":[1,2,"3"]}],"ghost":null}`),
		// Keys by case folding, duplicates, unknown keys, nulls.
		orders(`{"AT":0.5,"Sign":1,"ROW":[1,2,3.5]}`, `{"ſign":-1,"rOw":[1,2,3.5],"aT":1}`),
		orders(`{"at":1,"at":null,"sign":1,"sign":-1,"row":[1,2,3],"row":[4,5,6]}`),
		orders(`{"at":1,"sign":1,"row":[1,2,3],"row":null}`),
		orders(`{"at":1,"sign":1,"row":[1,2,3],"extra":true}`),
		orders(`{"at":null,"sign":1,"row":[1,2,3]}`, `{"at":1,"sign":null,"row":[1,2,3]}`, `{"at":1,"sign":1,"row":null}`, `null`),
		body(`{"orders":[{"at":1,"sign":1,"row":[1,2,3]}],"orders":[{"at":2,"sign":-1,"row":[1,2,3]}]}`),
		`{"query":` + q + `,"deltas":{"orders":[{"at":1,"sign":1,"row":[1,2,3]}]},"Deltas":{"cust":[{"at":2,"sign":1,"row":[1,"a"]}]}}`,
		`{"query":` + q + `,"deltas":{"orders":[{"at":1,"sign":1,"row":[1,2,3]}]},"deltas":null}`,
		`{"query":` + q + `,"deltas":null,"DELTAS":{"orders":null}}`,
		// Escapes and broken UTF-8 in a string column and in names.
		body(`{"cust":[{"at":0,"sign":1,"row":[1,"A\"b\\\n😀\ud800"]},{"at":0,"sign":1,"row":[2,"plain é"]}]}`),
		body("{\"cust\":[{\"at\":0,\"sign\":1,\"row\":[1,\"\xff\xfe\"]}],\"c\\u0075st\":[]}"),
		body(`{"cust":[{"at":0,"sign":1,"row":[1,"a"]}]}`),
		// Numbers: integral floats and exponents in int columns, the 2^53
		// bound, negative zero, out of range, wrong JSON types.
		orders(`{"at":0,"sign":1,"row":[1.0,1e3,2.5]}`, `{"at":1E-3,"sign":-1,"row":[-0,-0.0,-0]}`),
		orders(`{"at":0,"sign":1,"row":[9007199254740991,-9007199254740991,9007199254740993]}`),
		orders(`{"at":0,"sign":1,"row":[9007199254740992,1,1]}`),
		orders(`{"at":0,"sign":1,"row":[1.5,1,1]}`),
		orders(`{"at":0,"sign":1,"row":[1e400,1,1]}`),
		orders(`{"at":0,"sign":1,"row":[[1e400],1,1]}`, `{"at":0,"sign":1,"row":[{"a":1},true,null]}`),
		orders(`{"at":1e400,"sign":1,"row":[1,1,1]}`),
		orders(`{"at":"0","sign":1,"row":[1,1,1]}`),
		orders(`{"at":0,"sign":1.0,"row":[1,1,1]}`),
		orders(`{"at":0,"sign":1e0,"row":[1,1,1]}`),
		orders(`{"at":0,"sign":"1","row":[1,1,1]}`),
		orders(`{"at":0,"sign":0,"row":[1,1,1]}`),
		orders(`{"at":0,"sign":-0,"row":[1,1,1]}`),
		orders(`{"at":0,"sign":99999999999999999999,"row":[1,1,1]}`),
		orders(`{"at":0,"sign":1,"row":[1,1,1,1]}`),
		orders(`{"at":0,"sign":1,"row":{}}`),
		orders(`{"at":0,"sign":1,"row":"abc"}`),
		orders(`5`, `[]`),
		body(`{"orders":{}}`),
		body(`[]`),
		body(`"x"`),
		// Space, trailing bytes, a broken body.
		"{\"query\":" + q + ",\n\t\"deltas\" : { \"orders\" : [ { \"at\" : 0 , \"sign\" : 1 , \"row\" : [ 1 , 2 , 3 ] } ] } }",
		orders(`{"at":0,"sign":1,"row":[1,2,3]}`) + ` trailing`,
		orders(`{"at":0,"sign":1,"row":[1,2,3]}`) + `}]`,
		orders(`{"at":0,"sign":1,"row":[1,2,3]`),
		// The envelope: keys by case folding, a repeated query or options
		// merging into the earlier, an unknown key, a type error in the query
		// before a syntax error in the deltas, bodies that are not objects.
		`{"QUERY":` + q + `,"Deltas":{"orders":[{"at":1,"sign":1,"row":[1,2,3]}]},"OptionS":{"strategy":"static"}}`,
		`{"query":{"relations":["orders"]},"deltas":{},"query":{"select":["orders.id"]},"query":null}`,
		`{"query":` + q + `,"options":{"strategy":"static","poll_every":2},"deltas":{},"options":{"poll_every":3}}`,
		`{"query":` + q + `,"deltas":{},"extra":1}`,
		`{"query":{"relations":"orders"},"deltas":{"orders":[{"at":0,"sign":1,"row":[1,2,3]}]}}`,
		`{"query":{"relations":"orders"},"deltas":{"orders":[{"at":0,"sign":1,"row":[1,2,3],]}]}}`,
		`{"query":{"relation":["orders"]},"deltas":{}}`,
		`{"query":` + q + `,"deltas":{},"options":{"strategy":1}}`,
		`{"query":` + q + `,"deltas":{"orders":[]},"deltas":5}`,
		`null`, `nullx`, ` [1]`, `5`, `"x"`, ``, ` `, `{`, `{}`, `{}x`,
		// Syntax errors inside values, which only the syntax check finds.
		orders(`{"at":0,"sign":1,"row":[1,2,3.]}`),
		orders(`{"at":01,"sign":1,"row":[1,2,3]}`),
		orders(`{"at":0,"sign":1,"row":[1,2,+3]}`),
		orders(`{"at":0,"sign":1,"row":[1,2,nul]}`),
		body("{\"cust\":[{\"at\":0,\"sign\":1,\"row\":[1,\"a\tb\"]}]}"),
		body(`{"cust":[{"at":0,"sign":1,"row":[1,"\x"]}]}`),
		orders(`{"at":0,"sign":1,"row":[1,2,3]}`, ``),
		body(`{"orders":[],}`),
		`{"query":` + q + `,"deltas":{},}`,
	}
	return append(seeds, syntaxSeeds(q)...)
}

// syntaxSeeds are bodies with a flaw only a syntax check finds — a trailing
// comma, a malformed number, a raw control character in a string, a bad
// escape — or one encoding/json repairs rather than refuses — broken UTF-8,
// a lone surrogate — in every place the decode reads or skips: a value of
// a float and of a string column, at, sign, a key of a delta and a relation
// name, the query, the options and an unknown member. Each place also holds
// arrays nested to encoding/json's depth limit and one past it.
func syntaxSeeds(q string) []string {
	flaws := []string{`[1,]`, `{"a":1,}`, `01`, `1.`, `.5`, `+1`, `-`, `1e`,
		"\"a\x01b\"", "\"a\nb\"", "\"\xff\xfe\"", `"\ud800"`, `"\u12"`, `"\u12x4"`}
	deltas := func(d string) string { return `{"query":` + q + `,"deltas":` + d + `}` }
	var seeds []string
	for _, place := range []struct {
		depth int // of the value at the place
		body  func(x string) string
	}{
		{5, func(x string) string { return deltas(`{"orders":[{"at":0,"sign":1,"row":[1,2,` + x + `]}]}`) }},
		{5, func(x string) string { return deltas(`{"cust":[{"at":0,"sign":1,"row":[1,` + x + `]}]}`) }},
		{4, func(x string) string { return deltas(`{"orders":[{"at":` + x + `,"sign":1,"row":[1,2,3]}]}`) }},
		{4, func(x string) string { return deltas(`{"orders":[{"at":0,"sign":` + x + `,"row":[1,2,3]}]}`) }},
		{4, func(x string) string { return deltas(`{"orders":[{` + x + `:0,"sign":1,"row":[1,2,3]}]}`) }},
		{2, func(x string) string { return deltas(`{` + x + `:[]}`) }},
		{2, func(x string) string {
			return `{"query":{"relations":["orders"],"select":["orders.id"],"name":` + x + `},"deltas":{}}`
		}},
		{2, func(x string) string { return `{"query":` + q + `,"deltas":{},"options":{"poll_every":` + x + `}}` }},
		{1, func(x string) string { return `{"query":` + q + `,"deltas":{},"extra":` + x + `}` }},
	} {
		for _, x := range flaws {
			seeds = append(seeds, place.body(x))
		}
		for _, n := range []int{maxDepth - place.depth, maxDepth - place.depth + 1} {
			seeds = append(seeds, place.body(strings.Repeat("[", n)+strings.Repeat("]", n)))
		}
	}
	return seeds
}

// FuzzStandingDeltas: over any body, the handler's one-pass read accepts
// exactly what decoding into a StandingRequest and then buildDeltas
// accepted, at the same stage: a refusal of the body (reported before the
// query's) or of a script (after it), word for word. What both accept
// decodes to the same query, options and deltas, value for value and stamp
// for stamp, and what the handler refuses it answers with 400
// invalid_request.
func FuzzStandingDeltas(f *testing.F) {
	for _, b := range standingDeltasSeeds() {
		f.Add([]byte(b))
	}
	eng, _ := spjEngine(200)
	s := New(eng, Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		want := decodeStandingRef(s, body)
		got := decodeStanding(s, string(body))
		if d := diffBodies(got, want); d != "" {
			t.Fatalf("body %q: %s", body, d)
		}
		if want.bodyErr == nil && want.scriptErr == nil {
			return
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/standing", bytes.NewReader(body)))
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusBadRequest || eb.Error.Code != CodeInvalidRequest {
			t.Fatalf("body %q: answered %d %s, want 400 invalid_request", body, rec.Code, rec.Body)
		}
	})
}

// TestStandingDeltasSeeds: every fuzz seed decodes as the encoding/json
// decode did — refused, if at all, in its words — and the seeds exercise
// every outcome.
func TestStandingDeltasSeeds(t *testing.T) {
	eng, _ := spjEngine(200)
	s := New(eng, Config{})
	var accepted, bodies, scripts int
	for _, b := range standingDeltasSeeds() {
		got := decodeStanding(s, b)
		if d := diffBodies(got, decodeStandingRef(s, []byte(b))); d != "" {
			t.Errorf("body %s: %s", b, d)
		}
		switch {
		case got.bodyErr != nil:
			bodies++
		case got.scriptErr != nil:
			scripts++
		default:
			accepted++
		}
	}
	if accepted < 10 || bodies < 10 || scripts < 10 {
		t.Fatalf("seeds: %d accepted, %d refused bodies, %d refused scripts; want 10 of each", accepted, bodies, scripts)
	}
}

// decodeInto reads a standing body's text as the handler does, into st,
// storage an earlier body was decoded into.
func decodeInto(st *standingBody, body string) (d decodedBody) {
	if d.bodyErr = st.decode(body); d.bodyErr != nil {
		return d
	}
	d.query, d.options = st.query, st.options
	d.deltas, d.scriptErr = st.deltas.resolve()
	return d
}

// TestStandingDecodePrefixes: every prefix of a body — cut inside a key, a
// string with escapes, a number, a literal, between members — is refused
// as the encoding/json decode refused it, in its words, without the scan
// reading past the end of the text; the whole body is accepted. The prefixes
// decode one after another into one store.
func TestStandingDecodePrefixes(t *testing.T) {
	eng, _ := spjEngine(200)
	s := New(eng, Config{})
	body := `{"query":{"relations":["cust","orders"],"joins":[{"left":"orders.cust","right":"cust.id"}],"select":["cust.name"]},` +
		`"deltas":{"cust":[{"at":1.5e-3,"sign":1,"row":[7,"a\"b\u00e9"]},{"at":2,"sign":-1,"row":[1,"c01"]},null],` +
		`"orders":[{"at":0.25,"sign":-1,"row":[-12,7,-0.5E+2]}],"ghost":null},"options":{"strategy":"static","partial_results":false}}`
	st := s.bodies.Get()
	defer s.bodies.Put(st)
	for i := 0; i <= len(body); i++ {
		want := decodeStandingRef(s, []byte(body[:i]))
		if (want.bodyErr == nil) != (i == len(body)) {
			t.Fatalf("the fixture's prefix %q is refused: %v", body[:i], want.bodyErr)
		}
		if d := diffBodies(decodeInto(st, body[:i]), want); d != "" {
			t.Errorf("prefix %q: %s", body[:i], d)
		}
	}
}

// TestStandingDecodeRecycled: every seed decodes as the encoding/json decode
// did into storage that a larger body, and then every seed before it, left
// behind — slabs, scripts and maps written over, never cleared.
func TestStandingDecodeRecycled(t *testing.T) {
	churn, eng := churnBody(t, 3000)
	s := New(eng, Config{})
	spj, _ := spjEngine(200)
	seeds := New(spj, Config{})
	st := s.bodies.Get()
	if d := decodeInto(st, string(churn)); d.bodyErr != nil || d.scriptErr != nil {
		t.Fatalf("refused: %v %v", d.bodyErr, d.scriptErr)
	}
	st.deltas.s = seeds // the store, full of lineitem rows, now decodes over the seeds' engine
	for _, b := range standingDeltasSeeds() {
		if d := diffBodies(decodeInto(st, b), decodeStandingRef(seeds, []byte(b))); d != "" {
			t.Errorf("body %.300s: %s", b, d)
		}
	}
}

// churnBody is a standing_churn-shaped POST /v1/standing body: Q3A over
// TPC-H SF 0.005 and n lineitem deltas in thirds — an insert of a copy of a
// base row, a retraction of a base row, a retraction of an earlier insert —
// rendered as JSON numbers and quoted strings. It returns the body and the
// engine over the data.
func churnBody(tb testing.TB, n int) ([]byte, *engine.Engine) {
	data := datagen.Generate(datagen.Config{ScaleFactor: 0.005, Seed: 42})
	eng := engine.New()
	for _, rel := range data.Relations() {
		eng.Register(rel)
	}
	rng := rand.New(rand.NewSource(42))
	base := data.Lineitem.Rows
	var inserted []types.Tuple
	specs := make([]DeltaSpec, n)
	for i := range specs {
		d := DeltaSpec{At: float64(i) * 1e-4, Sign: -1}
		var row types.Tuple
		switch i % 3 {
		case 0:
			d.Sign, row = 1, base[rng.Intn(len(base))]
			inserted = append(inserted, row)
		case 1:
			row = base[rng.Intn(len(base))]
		default:
			j := rng.Intn(len(inserted))
			row = inserted[j]
			inserted[j] = inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
		}
		for _, v := range row {
			switch v.K {
			case types.KindInt:
				d.Row = append(d.Row, strconv.AppendInt(nil, v.I, 10))
			case types.KindFloat:
				d.Row = append(d.Row, strconv.AppendFloat(nil, v.F, 'g', -1, 64))
			default:
				d.Row = append(d.Row, strconv.AppendQuote(nil, v.S))
			}
		}
		specs[i] = d
	}
	body, err := json.Marshal(StandingRequest{
		Query:   QuerySpec{Prepared: "Q3A"},
		Deltas:  map[string][]DeltaSpec{"lineitem": specs},
		Options: RunOptions{Strategy: "static", PollEvery: 256},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body, eng
}

// BenchmarkStandingDecode is the standing handler's read of a
// standing_churn-shaped body (9 000 lineitem deltas, about 0.65 MB) from
// its text: "decode" is the body's decode into new storage and the scripts'
// resolution, "provider" goes on to build the lineitem delta source over
// the deltas, "recycled" decodes into the storage an earlier request gave
// back to the server, as a request does, and "parent" is the decode the
// one-pass scan replaced (decodeStandingParent).
func BenchmarkStandingDecode(b *testing.B) {
	body, eng := churnBody(b, 9000)
	s := New(eng, Config{})
	text := string(body)
	rel, _ := eng.Relation("lineitem")
	check := func(b *testing.B, d decodedBody) {
		if d.bodyErr != nil || d.scriptErr != nil || len(d.deltas["lineitem"]) != 9000 {
			b.Fatalf("decoded %d deltas: %v, %v", len(d.deltas["lineitem"]), d.bodyErr, d.scriptErr)
		}
	}
	recycled := func() decodedBody {
		st := s.bodies.Get()
		defer s.bodies.Put(st)
		var d decodedBody
		if d.bodyErr = st.decode(text); d.bodyErr == nil {
			d.deltas, d.scriptErr = st.deltas.resolve()
		}
		return d
	}
	for _, leg := range []string{"decode", "provider", "recycled", "parent"} {
		b.Run(leg, func(b *testing.B) {
			if leg == "recycled" {
				check(b, recycled()) // the storage a first request leaves
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				switch leg {
				case "decode", "provider":
					d := decodeStanding(s, text)
					check(b, d)
					if leg == "provider" {
						if _, err := source.NewDeltaProvider(source.NewProvider(rel, nil), d.deltas["lineitem"]); err != nil {
							b.Fatal(err)
						}
					}
				case "recycled":
					check(b, recycled())
				case "parent":
					check(b, decodeStandingParent(s, text))
				}
			}
		})
	}
}

// TestStandingDecodeChurn: the benchmark's body decodes to what the
// encoding/json decode made of it.
func TestStandingDecodeChurn(t *testing.T) {
	body, eng := churnBody(t, 3000)
	s := New(eng, Config{})
	want := decodeStandingRef(s, body)
	if want.bodyErr != nil || want.scriptErr != nil {
		t.Fatalf("refused: %v %v", want.bodyErr, want.scriptErr)
	}
	if d := diffBodies(decodeStanding(s, string(body)), want); d != "" {
		t.Fatal(d)
	}
}
