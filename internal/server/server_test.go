package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// spjEngine builds a deterministic two-relation join fixture: nOrders
// orders spread over 50 customers, joined on the customer key. Every
// order matches, so a full run delivers exactly nOrders result rows.
func spjEngine(nOrders int) (*engine.Engine, *algebra.Query) {
	oSchema := types.NewSchema(
		types.Column{Name: "orders.id", Kind: types.KindInt},
		types.Column{Name: "orders.cust", Kind: types.KindInt},
		types.Column{Name: "orders.total", Kind: types.KindFloat},
	)
	cSchema := types.NewSchema(
		types.Column{Name: "cust.id", Kind: types.KindInt},
		types.Column{Name: "cust.name", Kind: types.KindString},
	)
	oRows := make([]types.Tuple, nOrders)
	for i := range oRows {
		oRows[i] = types.Tuple{
			types.Int(int64(i)), types.Int(int64(i % 50)), types.Float(float64(i) / 8),
		}
	}
	cRows := make([]types.Tuple, 50)
	for i := range cRows {
		cRows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("c%02d", i))}
	}
	e := engine.New()
	e.Register(source.NewRelation("orders", oSchema, oRows))
	e.Register(source.NewRelation("cust", cSchema, cRows))
	q := &algebra.Query{
		Name:      "spj",
		Relations: []algebra.RelRef{{Name: "cust", Schema: cSchema}, {Name: "orders", Schema: oSchema}},
		Joins:     []algebra.JoinPred{{LeftRel: "orders", LeftCol: "cust", RightRel: "cust", RightCol: "id"}},
		Project:   []string{"orders.id", "cust.name", "orders.total"},
	}
	return e, q
}

// newTestServer boots the service over the fixture engine behind an
// httptest server, with the fixture query prepared as "spj".
func newTestServer(t *testing.T, nOrders int, cfg Config) (*Server, *httptest.Server, *engine.Engine, *algebra.Query) {
	t.Helper()
	eng, q := spjEngine(nOrders)
	svc := New(eng, cfg)
	svc.RegisterPrepared("spj", q)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts, eng, q
}

// spjRequest is the wire form of the fixture query (inline, not
// prepared), so the spec-building path is exercised too.
func spjRequest(options string) string {
	return `{"query":{"name":"spj","relations":["cust","orders"],
		"joins":[{"left":"orders.cust","right":"cust.id"}],
		"select":["orders.id","cust.name","orders.total"]},
		"options":` + options + `}`
}

func postQuery(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// frames splits an NDJSON response body into its frame lines.
func frames(t *testing.T, r io.Reader) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func frameType(line string) string {
	var f struct {
		Type string `json:"type"`
	}
	json.Unmarshal([]byte(line), &f)
	return f.Type
}

func decodeError(t *testing.T, line string) WireError {
	t.Helper()
	var f errorFrame
	if err := json.Unmarshal([]byte(line), &f); err != nil {
		t.Fatalf("bad error frame %.120q: %v", line, err)
	}
	return f.Error
}

// TestServeQueryStreamShape pins the NDJSON contract on the happy path:
// one schema frame first, then row frames matching the schema arity,
// then exactly one terminal report frame agreeing with the row count.
func TestServeQueryStreamShape(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 500, Config{})
	resp := postQuery(t, ts, spjRequest(`{"strategy":"corrective","partitions":2}`))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("content type %q", got)
	}
	if resp.Header.Get("Adp-Query-Id") == "" {
		t.Fatal("missing Adp-Query-Id header")
	}
	lines := frames(t, resp.Body)
	if len(lines) < 3 {
		t.Fatalf("only %d frames", len(lines))
	}
	if frameType(lines[0]) != "schema" {
		t.Fatalf("first frame %q, want schema", lines[0])
	}
	rows := 0
	for _, l := range lines[1 : len(lines)-1] {
		if frameType(l) != "row" {
			t.Fatalf("mid-stream frame of type %q", frameType(l))
		}
		rows++
	}
	var rf reportFrame
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rf); err != nil || rf.Type != "report" {
		t.Fatalf("terminal frame not a report: %.120q", lines[len(lines)-1])
	}
	if rows != 500 || rf.Report.Rows != 500 {
		t.Fatalf("rows: streamed %d, report %d, want 500", rows, rf.Report.Rows)
	}
	if rf.Report.PlanCache != "miss" {
		t.Fatalf("first run plan_cache %q, want miss", rf.Report.PlanCache)
	}
}

// TestAdmissionRejection saturates a one-slot, zero-queue server with a
// client that stalls mid-stream (TCP backpressure keeps the handler in
// flight) and requires the next query to be shed with 429 and the
// admission_rejected code — then, once the slot frees, admitted again.
func TestAdmissionRejection(t *testing.T) {
	svc, ts, _, _ := newTestServer(t, 400_000, Config{MaxConcurrent: 1, QueueDepth: -1})

	// Client A: read only the schema frame, then stall. The handler
	// blocks writing ~10MB into a full TCP window and holds its slot.
	respA := postQuery(t, ts, spjRequest(`{"strategy":"static"}`))
	defer respA.Body.Close()
	brA := bufio.NewReader(respA.Body)
	if _, err := brA.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "query in flight", func() bool { return svc.sched.Inflight() == 1 })

	// Client B is rejected immediately: slot busy, no queue.
	respB := postQuery(t, ts, spjRequest(`{"strategy":"static"}`))
	if respB.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d, want 429", respB.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(respB.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	respB.Body.Close()
	if body.Error.Code != CodeAdmissionRejected {
		t.Fatalf("code %q, want %q", body.Error.Code, CodeAdmissionRejected)
	}

	// Drain client A; the stream must still be complete and well-formed.
	lines := frames(t, brA)
	if frameType(lines[len(lines)-1]) != "report" {
		t.Fatalf("client A stream did not finish with a report: %.120q", lines[len(lines)-1])
	}

	// Slot freed: the same query is admitted now.
	respC := postQuery(t, ts, spjRequest(`{"strategy":"static"}`))
	defer respC.Body.Close()
	if respC.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status %d, want 200", respC.StatusCode)
	}
	io.Copy(io.Discard, respC.Body)
}

// TestDeadlineExceededMidStream runs a large query under a deadline far
// below its real runtime and far above plan time: the stream must open
// normally (schema frame) and then terminate with a well-formed error
// frame carrying the deadline_exceeded code.
func TestDeadlineExceededMidStream(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 600_000, Config{})
	resp := postQuery(t, ts, spjRequest(`{"strategy":"static","deadline_ms":20}`))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (stream opened before the deadline)", resp.StatusCode)
	}
	lines := frames(t, resp.Body)
	if frameType(lines[0]) != "schema" {
		t.Fatalf("first frame %q, want schema", frameType(lines[0]))
	}
	last := lines[len(lines)-1]
	if frameType(last) != "error" {
		t.Fatalf("terminal frame of type %q, want error", frameType(last))
	}
	we := decodeError(t, last)
	if we.Code != CodeDeadlineExceeded {
		t.Fatalf("code %q, want %q", we.Code, CodeDeadlineExceeded)
	}
	if we.HTTPStatus != http.StatusGatewayTimeout {
		t.Fatalf("advisory status %d, want 504", we.HTTPStatus)
	}
	if int(we.RowsDelivered) != len(lines)-2 {
		t.Fatalf("rows_delivered %d, streamed %d row frames", we.RowsDelivered, len(lines)-2)
	}
}

// TestGracefulDrainZeroLoss starts several queries, stalls their clients
// mid-stream, and drains the server: drain must reject new work (healthz
// 503, draining error code) while every in-flight stream runs to
// completion with its full row count — zero rows lost.
func TestGracefulDrainZeroLoss(t *testing.T) {
	const clients, rows = 4, 100_000
	svc, ts, _, _ := newTestServer(t, rows, Config{MaxConcurrent: clients})

	release := make(chan struct{})
	results := make(chan int, clients) // row frames seen per client
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postQuery(t, ts, spjRequest(`{"strategy":"static"}`))
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			br.ReadString('\n') // schema frame
			<-release           // stall: the handler keeps streaming into TCP backpressure
			n, sawReport := 0, false
			sc := bufio.NewScanner(br)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
			for sc.Scan() {
				switch frameType(sc.Text()) {
				case "row":
					n++
				case "report":
					sawReport = true
				}
			}
			if !sawReport {
				n = -1 // poison: stream ended without its terminal report
			}
			results <- n
		}()
	}
	waitFor(t, "all queries in flight", func() bool {
		return svc.sched.Inflight() == clients
	})

	drainDone := make(chan error, 1)
	go func() { drainDone <- svc.Drain(context.Background()) }()
	waitFor(t, "draining flag", svc.Draining)

	// While draining: not healthy, and new queries are refused.
	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", hz.StatusCode)
	}
	rej := postQuery(t, ts, spjRequest(`{}`))
	var body errorBody
	json.NewDecoder(rej.Body).Decode(&body)
	rej.Body.Close()
	if rej.StatusCode != http.StatusServiceUnavailable || body.Error.Code != CodeDraining {
		t.Fatalf("draining rejection = %d/%q, want 503/%q", rej.StatusCode, body.Error.Code, CodeDraining)
	}

	// Release the stalled clients; drain must now complete, and every
	// client must hold the complete result.
	close(release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(results)
	for n := range results {
		if n != rows {
			t.Fatalf("a drained client saw %d row frames, want %d", n, rows)
		}
	}
}

// TestPlanCacheHitByteIdentical runs the same query cold and warm: the
// second run must hit the plan cache and stream byte-identical schema
// and row frames (ids and report timings are the only run-varying data).
func TestPlanCacheHitByteIdentical(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 2_000, Config{})
	run := func() (rows []string, rep WireReport) {
		resp := postQuery(t, ts, spjRequest(`{"strategy":"corrective"}`))
		defer resp.Body.Close()
		lines := frames(t, resp.Body)
		var rf reportFrame
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rf); err != nil || rf.Type != "report" {
			t.Fatalf("terminal frame not a report: %.120q", lines[len(lines)-1])
		}
		return lines[1 : len(lines)-1], rf.Report
	}
	coldRows, coldRep := run()
	warmRows, warmRep := run()
	if coldRep.PlanCache != "miss" || warmRep.PlanCache != "hit" {
		t.Fatalf("plan_cache = %q then %q, want miss then hit", coldRep.PlanCache, warmRep.PlanCache)
	}
	if len(coldRows) != len(warmRows) {
		t.Fatalf("row counts differ: %d vs %d", len(coldRows), len(warmRows))
	}
	for i := range coldRows {
		if coldRows[i] != warmRows[i] {
			t.Fatalf("row %d differs:\ncold %s\nwarm %s", i, coldRows[i], warmRows[i])
		}
	}
	if coldRep.VirtualSeconds != warmRep.VirtualSeconds || coldRep.Switches != warmRep.Switches {
		t.Fatalf("warm run diverged: virtual %g/%g, switches %d/%d",
			coldRep.VirtualSeconds, warmRep.VirtualSeconds, coldRep.Switches, warmRep.Switches)
	}
}

// TestRowBudgetExhausted pins the per-query row budget: the stream stops
// at the budget and terminates with a resource_exhausted error frame
// carrying the delivered count.
func TestRowBudgetExhausted(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 5_000, Config{MaxRowsPerQuery: 10})
	resp := postQuery(t, ts, spjRequest(`{"strategy":"static"}`))
	defer resp.Body.Close()
	lines := frames(t, resp.Body)
	last := lines[len(lines)-1]
	we := decodeError(t, last)
	if we.Code != CodeResourceExhausted {
		t.Fatalf("code %q, want %q", we.Code, CodeResourceExhausted)
	}
	if we.RowsDelivered != 10 || len(lines) != 12 { // schema + 10 rows + error
		t.Fatalf("delivered %d rows over %d frames, want exactly the budget of 10",
			we.RowsDelivered, len(lines))
	}
}

// TestRowBudgetExactFit: the budget is a bound, not a tripwire — a result
// of exactly MaxRowsPerQuery rows fits and ends in its report frame (the
// query fails only when row budget+1 arrives).
// TestServeStandingRowBudgetExactFit is the update-frame counterpart.
func TestRowBudgetExactFit(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 37, Config{MaxRowsPerQuery: 37})
	resp := postQuery(t, ts, spjRequest(`{"strategy":"static"}`))
	defer resp.Body.Close()
	lines := frames(t, resp.Body)
	if len(lines) != 39 || frameType(lines[len(lines)-1]) != "report" { // schema + 37 rows + report
		t.Fatalf("%d frames ending in %s, want schema + 37 rows + report", len(lines), lines[len(lines)-1])
	}
	var rep struct {
		Report WireReport `json:"report"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || rep.Report.Rows != 37 {
		t.Fatalf("report counts %d rows (%v), want 37", rep.Report.Rows, err)
	}

	// One row over: exactly the budget is delivered, then the error.
	_, ts, _, _ = newTestServer(t, 38, Config{MaxRowsPerQuery: 37})
	resp = postQuery(t, ts, spjRequest(`{"strategy":"static"}`))
	defer resp.Body.Close()
	lines = frames(t, resp.Body)
	if we := decodeError(t, lines[len(lines)-1]); we.Code != CodeResourceExhausted || we.RowsDelivered != 37 || len(lines) != 39 {
		t.Fatalf("38 rows against a budget of 37: %+v over %d frames", we, len(lines))
	}
}

// TestRequestValidation pins the pre-stream rejection envelope for the
// ways a request can be malformed.
func TestRequestValidation(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 10, Config{})
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"bad json", `{`, 400, CodeInvalidRequest},
		{"unknown field", `{"query":{"prepared":"spj"},"nope":1}`, 400, CodeInvalidRequest},
		{"unknown prepared", `{"query":{"prepared":"QX"}}`, 400, CodeInvalidRequest},
		{"unknown relation", `{"query":{"relations":["nope"]}}`, 400, CodeInvalidRequest},
		{"bad strategy", spjRequest(`{"strategy":"psychic"}`), 400, CodeInvalidRequest},
		{"negative option", spjRequest(`{"partitions":-1}`), 400, CodeInvalidRequest},
		{"empty query", `{"query":{}}`, 400, CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postQuery(t, ts, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if body.Error.Code != tc.code {
				t.Fatalf("code %q, want %q", body.Error.Code, tc.code)
			}
		})
	}

	// Unknown query id on the events endpoint.
	resp, err := ts.Client().Get(ts.URL + "/v1/query/q-999/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events status %d, want 404", resp.StatusCode)
	}
}

// TestEventsReplayAfterCompletion exercises the SSE endpoint on a
// finished query: the full adaptive-execution log replays from the
// start, ending with the RowsDelivered tail.
func TestEventsReplayAfterCompletion(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 500, Config{})
	resp := postQuery(t, ts, spjRequest(`{"strategy":"corrective"}`))
	id := resp.Header.Get("Adp-Query-Id")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ev, err := ts.Client().Get(ts.URL + "/v1/query/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	if ct := ev.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	raw, _ := io.ReadAll(ev.Body)
	var names []string
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := strings.CutPrefix(string(line), "event: "); ok {
			names = append(names, rest)
		}
	}
	if len(names) == 0 || names[0] != "PhaseStarted" {
		t.Fatalf("event replay = %v, want to start with PhaseStarted", names)
	}
	if names[len(names)-1] != "RowsDelivered" {
		t.Fatalf("event replay = %v, want to end with RowsDelivered", names)
	}
}

// TestMetricsEndpoint checks the Prometheus text rendering and a few
// counters after a known sequence of outcomes.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 200, Config{MaxRowsPerQuery: 50})
	// One budget-killed query, one rejected-at-validation (not counted
	// as admitted).
	resp := postQuery(t, ts, spjRequest(`{"strategy":"static"}`))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp = postQuery(t, ts, `{"query":{"prepared":"QX"}}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	raw, _ := io.ReadAll(mr.Body)
	for _, want := range []string{
		"adp_queries_total 1",
		"adp_queries_failed_total 1",
		"adp_rows_delivered_total 50",
		"adp_row_budget_exhausted_total 1",
		"adp_plan_cache_misses_total 1",
		"adp_queries_inflight 0",
		"adp_draining 0",
		"# TYPE adp_queries_total counter",
		"# TYPE adp_query_first_row_micros gauge",
	} {
		if !strings.Contains(string(raw), want+"\n") {
			t.Errorf("metrics missing %q\n%s", want, raw)
		}
	}
	// The budget-killed query delivered rows, so the first-row gauge must
	// have been observed (zero would mean it was never stored).
	if strings.Contains(string(raw), "adp_query_first_row_micros 0\n") {
		t.Errorf("first-row gauge never observed\n%s", raw)
	}
}

// waitFor polls cond with a bounded deadline — used where the assertion
// is about state another goroutine reaches (admission, drain flags).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
