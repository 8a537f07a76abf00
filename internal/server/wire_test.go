package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// TestAppendRowFrame pins the hot-path row encoder against encoding/json
// on adversarial values: quotes, control characters, invalid UTF-8,
// NULLs, and non-finite floats (which encode as null, JSON having no
// NaN/Inf). Every frame it encodes, and rows of every kind with exact and
// computed floats, must also be the parent encoder's bytes.
func TestAppendRowFrame(t *testing.T) {
	cases := []struct {
		tup  types.Tuple
		want []any // what a JSON decoder must read back from values
	}{
		{types.Tuple{types.Int(-42), types.Float(1.5), types.Str("plain")},
			[]any{float64(-42), 1.5, "plain"}},
		{types.Tuple{types.Str(`quote " backslash \ tab	end`)},
			[]any{`quote " backslash \ tab	end`}},
		{types.Tuple{types.Str("ctrl\x01\x1f\nnewline")},
			[]any{"ctrl\x01\x1f\nnewline"}},
		{types.Tuple{types.Str("utf8 ⋈ née 中")},
			[]any{"utf8 ⋈ née 中"}},
		{types.Tuple{types.Str("bad\xffbyte")},
			[]any{"bad�byte"}},
		{types.Tuple{types.Null(), types.Float(math.NaN()), types.Float(math.Inf(1))},
			[]any{nil, nil, nil}},
		{types.Tuple{}, []any{}},
	}
	for i, tc := range cases {
		got := AppendRowFrame(nil, tc.tup)
		checkParentBytes(t, tc.tup)
		if !bytes.HasSuffix(got, []byte("]}\n")) {
			t.Fatalf("case %d: frame not terminated: %q", i, got)
		}
		var frame struct {
			Type   string `json:"type"`
			Values []any  `json:"values"`
		}
		if err := json.Unmarshal(got, &frame); err != nil {
			t.Fatalf("case %d: encoder produced invalid JSON %q: %v", i, got, err)
		}
		if frame.Type != "row" {
			t.Fatalf("case %d: type %q", i, frame.Type)
		}
		if len(frame.Values) != len(tc.want) {
			t.Fatalf("case %d: %d values, want %d", i, len(frame.Values), len(tc.want))
		}
		for j := range tc.want {
			if !reflect.DeepEqual(frame.Values[j], tc.want[j]) {
				t.Fatalf("case %d value %d: %#v, want %#v", i, j, frame.Values[j], tc.want[j])
			}
		}
	}

	// Rows of every kind, shaped like spj_wide_out's, plus the float edges:
	// the frames must be the parent encoder's bytes.
	for _, f := range floatSeeds() {
		checkParentBytes(t, types.Tuple{types.Float(f), types.Float(-f)})
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		qty, price, total := datagenFloats(rng)
		checkParentBytes(t, types.Tuple{
			types.Int(rng.Int63n(3000)), types.Str(fmt.Sprintf("Customer#%06d", i)), types.Str("BUILDING"),
			types.Int(int64(i)), types.Int(int64(8000 + rng.Intn(2500))), types.Float(total),
			types.Int(int64(1 + rng.Intn(7))), types.Float(qty), types.Float(price), types.Str("N"),
			types.Null(), types.Float(math.NaN()), types.Float(math.Inf(-1)), types.Str("q\"\x01\xff"),
		})
	}
}

// checkParentBytes holds a tuple's row and update frames to the bytes the
// parent encoder (appendTupleValuesParent) gives.
func checkParentBytes(t *testing.T, tup types.Tuple) {
	t.Helper()
	vals := appendTupleValuesParent(nil, tup)
	want := append(append([]byte(rowFramePrefix), vals...), rowFrameSuffix...)
	if got := AppendRowFrame([]byte("prefix"), tup); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("row frame of %v:\n got %q\nwant %q", tup, got[len("prefix"):], want)
	}
	want = append(append([]byte(updateFramePrefix+`-1,"values":[`), vals...), rowFrameSuffix...)
	if got := AppendUpdateFrame(nil, tup, -1); !bytes.Equal(got, want) {
		t.Fatalf("update frame of %v:\n got %q\nwant %q", tup, got, want)
	}
}

// datagenFloats draws floats the way internal/datagen builds lineitem and
// orders: a whole quantity, an extended price qty × (900 + cents/100), and
// an order total summing 1..7 such prices.
func datagenFloats(rng *rand.Rand) (qty, price, total float64) {
	for lines := 1 + rng.Intn(7); lines > 0; lines-- {
		qty = float64(rng.Intn(50) + 1)
		price = qty * (900 + float64(rng.Intn(100000))/100)
		total += price
	}
	return qty, price, total
}

// floatSeeds are the values FuzzAppendFloat starts from: n/100 prices,
// qty × price products and 7-line sums as datagen builds them, ±0, the
// edges of the fast path's range and their neighbours, subnormals and
// MaxFloat64.
func floatSeeds() []float64 {
	out := []float64{
		0, math.Copysign(0, -1), 1, 0.5, 80, 12.5, 63.75, 48032.1634, 0.07,
		1e-4, math.Nextafter(1e-4, 0), math.Nextafter(1e-4, 1),
		999999.99999999, 999999.999999995, 1e6, math.Nextafter(1e6, 0), math.Nextafter(1e6, 2e6),
		123456.78901234, 0.00012345678, 1e-8, 1e21, 1e-7,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), math.MaxFloat64,
		math.Inf(1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		_, price, total := datagenFloats(rng)
		out = append(out, float64(rng.Intn(1000000))/100, price, total)
	}
	return out
}

// FuzzAppendFloat holds appendFloat to strconv.AppendFloat(dst, f, 'g', -1,
// 64), byte for byte, for arbitrary bit patterns.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range floatSeeds() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		want := strconv.AppendFloat([]byte("["), x, 'g', -1, 64)
		if got := appendFloat([]byte("["), x); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%#016x) = %q, strconv gives %q", bits, got, want)
		}
	})
}

// ---- docs/wire-protocol.md round-trip ------------------------------------

// docFixture is the deterministic engine the documented wire examples
// run against: a three-customer, six-order join fixture whose every
// frame — including virtual timings — is reproducible.
func docFixture() (*Server, *algebra.Query) {
	cSchema := types.NewSchema(
		types.Column{Name: "cust.id", Kind: types.KindInt},
		types.Column{Name: "cust.name", Kind: types.KindString},
	)
	oSchema := types.NewSchema(
		types.Column{Name: "orders.id", Kind: types.KindInt},
		types.Column{Name: "orders.cust", Kind: types.KindInt},
		types.Column{Name: "orders.total", Kind: types.KindFloat},
	)
	cRows := []types.Tuple{
		{types.Int(1), types.Str("alice")},
		{types.Int(2), types.Str("bob")},
		{types.Int(3), types.Str("carol")},
	}
	oRows := []types.Tuple{
		{types.Int(100), types.Int(1), types.Float(12.5)},
		{types.Int(101), types.Int(2), types.Float(80)},
		{types.Int(102), types.Int(1), types.Float(7.25)},
		{types.Int(103), types.Int(3), types.Float(44)},
		{types.Int(104), types.Int(2), types.Float(19)},
		{types.Int(105), types.Int(1), types.Float(63.75)},
	}
	eng := engine.New()
	eng.Register(source.NewRelation("cust", cSchema, cRows))
	eng.Register(source.NewRelation("orders", oSchema, oRows))
	svc := New(eng, Config{MaxConcurrent: 2})
	q := &algebra.Query{
		Name:      "orders-by-customer",
		Relations: []algebra.RelRef{{Name: "cust", Schema: cSchema}, {Name: "orders", Schema: oSchema}},
		Joins:     []algebra.JoinPred{{LeftRel: "orders", LeftCol: "cust", RightRel: "cust", RightCol: "id"}},
		Project:   []string{"orders.id", "cust.name", "orders.total"},
	}
	return svc, q
}

// docBlock is one fenced example in docs/wire-protocol.md tagged for the
// round-trip test: the fence info string carries `wire:<kind>=<name>`
// where kind is request (POST body), response (expected NDJSON frames),
// error (expected non-2xx envelope, with status=NNN), or sse (expected
// SSE replay of the preceding request's query). Request fences may add
// `endpoint=standing` to post against /v1/standing instead of /v1/query.
type docBlock struct {
	kind, name string
	status     int
	endpoint   string
	text       string
}

var fenceRe = regexp.MustCompile("^```[a-z]*\\s+wire:(request|response|error|sse)=([a-z0-9-]+)(?:\\s+status=([0-9]+))?(?:\\s+endpoint=([a-z]+))?\\s*$")

func parseDocBlocks(t *testing.T, path string) []docBlock {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("wire-protocol doc missing: %v", err)
	}
	var (
		blocks []docBlock
		cur    *docBlock
		body   []string
	)
	for _, line := range strings.Split(string(raw), "\n") {
		if cur != nil {
			if strings.HasPrefix(line, "```") {
				cur.text = strings.Join(body, "\n")
				blocks = append(blocks, *cur)
				cur, body = nil, nil
				continue
			}
			body = append(body, line)
			continue
		}
		if m := fenceRe.FindStringSubmatch(line); m != nil {
			cur = &docBlock{kind: m[1], name: m[2], endpoint: "query"}
			if m[3] != "" {
				fmt.Sscanf(m[3], "%d", &cur.status)
			}
			if m[4] != "" {
				cur.endpoint = m[4]
			}
		}
	}
	if cur != nil {
		t.Fatal("unterminated tagged fence in wire-protocol doc")
	}
	return blocks
}

// normalizeJSONLine parses one frame and zeroes the fields that vary
// run-to-run (real wall-clock timings); everything else — including
// virtual timings, plans, and row payloads — must match exactly.
func normalizeJSONLine(t *testing.T, line string) any {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(line), &v); err != nil {
		t.Fatalf("invalid JSON line %q: %v", line, err)
	}
	var scrub func(any)
	scrub = func(n any) {
		switch x := n.(type) {
		case map[string]any:
			for k, vv := range x {
				if k == "real_seconds" {
					x[k] = float64(0)
					continue
				}
				scrub(vv)
			}
		case []any:
			for _, vv := range x {
				scrub(vv)
			}
		}
	}
	scrub(v)
	return v
}

func compareJSONLines(t *testing.T, name, got, want string) {
	t.Helper()
	gotLines := nonEmptyLines(got)
	wantLines := nonEmptyLines(want)
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines served, doc shows %d\nserved:\n%s", name, len(gotLines), len(wantLines), got)
	}
	for i := range wantLines {
		g := normalizeJSONLine(t, gotLines[i])
		w := normalizeJSONLine(t, wantLines[i])
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s line %d diverges from the doc:\nserved %s\ndoc    %s", name, i, gotLines[i], wantLines[i])
		}
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// TestWireProtocolDocExamples keeps docs/wire-protocol.md honest: every
// tagged example in the doc is replayed against a live server over the
// documented fixture, and the served bytes must match the documented
// ones (modulo wall-clock timings). Run with -run Doc -v and
// ADP_PRINT_DOC_EXAMPLES=1 to print regenerated blocks after a protocol
// change.
func TestWireProtocolDocExamples(t *testing.T) {
	svc, _ := docFixture()
	ts := httptest.NewServer(svc)
	defer ts.Close()

	blocks := parseDocBlocks(t, "../../docs/wire-protocol.md")
	if os.Getenv("ADP_PRINT_DOC_EXAMPLES") != "" {
		printDocExamples(t, ts, blocks)
		return
	}
	if len(blocks) == 0 {
		t.Fatal("no tagged wire examples found in docs/wire-protocol.md")
	}

	responses := map[string]docBlock{}
	var order []docBlock
	for _, b := range blocks {
		switch b.kind {
		case "request":
			order = append(order, b)
		default:
			responses[b.kind+":"+b.name] = b
		}
	}
	if len(order) == 0 {
		t.Fatal("no wire:request examples in docs/wire-protocol.md")
	}

	for _, req := range order {
		resp, err := ts.Client().Post(ts.URL+"/v1/"+req.endpoint, "application/json", strings.NewReader(req.text))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("Adp-Query-Id")

		if errBlock, ok := responses["error:"+req.name]; ok {
			if resp.StatusCode != errBlock.status {
				t.Errorf("%s: status %d, doc says %d", req.name, resp.StatusCode, errBlock.status)
			}
			compareJSONLines(t, req.name, string(raw), errBlock.text)
			continue
		}
		want, ok := responses["response:"+req.name]
		if !ok {
			t.Fatalf("request %q has no paired response/error block", req.name)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d\n%s", req.name, resp.StatusCode, raw)
		}
		compareJSONLines(t, req.name, string(raw), want.text)

		if sse, ok := responses["sse:"+req.name]; ok {
			ev, err := ts.Client().Get(ts.URL + "/v1/query/" + id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			evRaw, _ := io.ReadAll(ev.Body)
			ev.Body.Close()
			compareSSE(t, req.name, string(evRaw), sse.text)
		}
	}
}

// compareSSE checks an SSE transcript against the documented one:
// event names must match in order, data payloads via JSON comparison.
func compareSSE(t *testing.T, name, got, want string) {
	t.Helper()
	type evt struct{ name, data string }
	parse := func(s string) []evt {
		var out []evt
		sc := bufio.NewScanner(strings.NewReader(s))
		var cur evt
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "event: "); ok {
				cur.name = rest
			} else if rest, ok := strings.CutPrefix(line, "data: "); ok {
				cur.data = rest
				out = append(out, cur)
				cur = evt{}
			}
		}
		return out
	}
	g, w := parse(got), parse(want)
	if len(g) != len(w) {
		t.Fatalf("%s sse: %d events served, doc shows %d\nserved:\n%s", name, len(g), len(w), got)
	}
	for i := range w {
		if g[i].name != w[i].name {
			t.Errorf("%s sse event %d: %q, doc says %q", name, i, g[i].name, w[i].name)
			continue
		}
		if !reflect.DeepEqual(normalizeJSONLine(t, g[i].data), normalizeJSONLine(t, w[i].data)) {
			t.Errorf("%s sse event %d data diverges:\nserved %s\ndoc    %s", name, i, g[i].data, w[i].data)
		}
	}
}

// printDocExamples regenerates the tagged blocks from the live fixture —
// the editing aid for protocol changes (output is pasted into the doc).
func printDocExamples(t *testing.T, ts *httptest.Server, blocks []docBlock) {
	for _, b := range blocks {
		if b.kind != "request" {
			continue
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/"+b.endpoint, "application/json", strings.NewReader(b.text))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		id := resp.Header.Get("Adp-Query-Id")
		resp.Body.Close()
		fmt.Printf("--- %s (status %d)\n%s", b.name, resp.StatusCode, raw)
		if resp.StatusCode == 200 {
			ev, err := ts.Client().Get(ts.URL + "/v1/query/" + id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			evRaw, _ := io.ReadAll(ev.Body)
			ev.Body.Close()
			fmt.Printf("--- %s sse\n%s", b.name, evRaw)
		}
	}
}
