package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// standingRequest builds a /v1/standing body over the spjEngine fixture:
// a grouped spend view with a small churn script against orders.
func standingRequest(options string) string {
	return `{"query":{"name":"spend","relations":["cust","orders"],
		"joins":[{"left":"orders.cust","right":"cust.id"}],
		"group_by":["cust.name"],
		"aggs":[{"fn":"sum","arg":"orders.total","as":"spend"}]},
		"deltas":{"orders":[
			{"at":0.01,"sign":1,"row":[9000,3,125.5]},
			{"at":0.02,"sign":-1,"row":[3,3,0.375]},
			{"at":0.03,"sign":1,"row":[9001,7,50]},
			{"at":0.04,"sign":-1,"row":[9001,7,50]}
		]},
		"options":` + options + `}`
}

func postStanding(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/standing", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeStandingStreamShape pins the standing NDJSON contract: one
// schema frame, update frames grouped into watermark-terminated windows
// (baseline first), and a terminal report frame whose counters match the
// stream.
func TestServeStandingStreamShape(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 200, Config{})
	resp := postStanding(t, ts, standingRequest(`{"strategy":"static","poll_every":2}`))
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("content type %q", got)
	}
	lines := frames(t, resp.Body)
	if frameType(lines[0]) != "schema" {
		t.Fatalf("first frame %q", lines[0])
	}
	if frameType(lines[len(lines)-1]) != "report" {
		t.Fatalf("last frame %q", lines[len(lines)-1])
	}

	var (
		updates    int
		marks      []watermarkFrame
		sinceMark  int
		signedSum  = map[int]int{}
		updatesPer []int
	)
	for _, line := range lines[1 : len(lines)-1] {
		switch frameType(line) {
		case "update":
			var f struct {
				Sign   int   `json:"sign"`
				Values []any `json:"values"`
			}
			if err := json.Unmarshal([]byte(line), &f); err != nil {
				t.Fatalf("bad update frame %q: %v", line, err)
			}
			if f.Sign != 1 && f.Sign != -1 {
				t.Fatalf("update sign %d", f.Sign)
			}
			if len(f.Values) != 2 {
				t.Fatalf("update width %d, want 2 (cust.name, spend)", len(f.Values))
			}
			signedSum[f.Sign]++
			updates++
			sinceMark++
		case "watermark":
			var f watermarkFrame
			if err := json.Unmarshal([]byte(line), &f); err != nil {
				t.Fatalf("bad watermark frame %q: %v", line, err)
			}
			if f.Updates != sinceMark {
				t.Fatalf("watermark seq %d claims %d updates, window had %d", f.Seq, f.Updates, sinceMark)
			}
			marks = append(marks, f)
			updatesPer = append(updatesPer, sinceMark)
			sinceMark = 0
		default:
			t.Fatalf("unexpected frame type %q", frameType(line))
		}
	}
	if len(marks) < 2 {
		t.Fatalf("watermarks = %d, want baseline + delta windows", len(marks))
	}
	if marks[0].Seq != 0 {
		t.Fatalf("first watermark seq = %d, want 0", marks[0].Seq)
	}
	if updatesPer[0] != 50 {
		t.Fatalf("baseline window = %d updates, want 50 groups", updatesPer[0])
	}
	// The last script pair cancels inside its window, so its watermark is
	// suppressed; the last emitted one covers the first two delta rows.
	if marks[len(marks)-1].DeltaRows < 2 {
		t.Fatalf("final watermark delta_rows = %d, want >= 2", marks[len(marks)-1].DeltaRows)
	}

	var rf reportFrame
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rf); err != nil {
		t.Fatal(err)
	}
	if rf.Report.Updates != int64(updates) {
		t.Fatalf("report updates = %d, stream delivered %d", rf.Report.Updates, updates)
	}
	if rf.Report.DeltaRows != 4 {
		t.Fatalf("report delta_rows = %d, want 4", rf.Report.DeltaRows)
	}
	if rf.Report.MaintainedRows != 50 {
		t.Fatalf("maintained_rows = %d, want 50 groups", rf.Report.MaintainedRows)
	}
}

// TestServeStandingRowBudgetExactFit: a standing query whose update stream
// is exactly MaxRowsPerQuery frames long fits its budget and ends in a
// report; one frame fewer in the budget and it ends, after exactly budget
// update frames, in resource_exhausted.
func TestServeStandingRowBudgetExactFit(t *testing.T) {
	countUpdates := func(lines []string) (n int) {
		for _, line := range lines {
			if frameType(line) == "update" {
				n++
			}
		}
		return n
	}
	body := standingRequest(`{"strategy":"static","poll_every":2}`)
	_, ts, _, _ := newTestServer(t, 200, Config{})
	resp := postStanding(t, ts, body)
	total := countUpdates(frames(t, resp.Body))
	resp.Body.Close()
	if total < 51 {
		t.Fatalf("unbudgeted run delivered %d update frames, want the 50-group baseline and revisions", total)
	}

	_, ts, _, _ = newTestServer(t, 200, Config{MaxRowsPerQuery: int64(total)})
	resp = postStanding(t, ts, body)
	lines := frames(t, resp.Body)
	resp.Body.Close()
	if got := countUpdates(lines); got != total || frameType(lines[len(lines)-1]) != "report" {
		t.Fatalf("budget %d: %d update frames ending in %s, want all of them and a report", total, got, lines[len(lines)-1])
	}

	_, ts, _, _ = newTestServer(t, 200, Config{MaxRowsPerQuery: int64(total - 1)})
	resp = postStanding(t, ts, body)
	lines = frames(t, resp.Body)
	resp.Body.Close()
	we := decodeError(t, lines[len(lines)-1])
	if got := countUpdates(lines); we.Code != CodeResourceExhausted || got != total-1 || we.RowsDelivered != int64(total-1) {
		t.Fatalf("budget %d: %d update frames, terminal %+v; want exactly the budget, then resource_exhausted", total-1, got, we)
	}
}

// TestServeStandingEventsSSE replays the standing run's lifecycle over
// the events endpoint: MaintenanceStarted and UpdateWatermark must
// appear alongside the usual phase narrative.
func TestServeStandingEventsSSE(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 200, Config{})
	resp := postStanding(t, ts, standingRequest(`{"strategy":"static","poll_every":2}`))
	id := resp.Header.Get("Adp-Query-Id")
	frames(t, resp.Body) // drain to completion
	resp.Body.Close()

	ev, err := ts.Client().Get(ts.URL + "/v1/query/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	body := string(readAll(t, ev.Body))
	if !strings.Contains(body, "event: MaintenanceStarted") {
		t.Error("SSE missing MaintenanceStarted")
	}
	if !strings.Contains(body, "event: UpdateWatermark") {
		t.Error("SSE missing UpdateWatermark")
	}
}

// TestServeStandingValidation pins the 400 paths: bad sign, bad width,
// unknown relation, wrong value type, a relation the query does not read,
// and the planpart rejection.
func TestServeStandingValidation(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 50, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"planpart", standingRequest(`{"strategy":"planpart"}`)},
		{"bad-sign", `{"query":{"relations":["orders"],"select":["orders.id"]},
			"deltas":{"orders":[{"at":0.01,"sign":2,"row":[1,1,1.0]}]}}`},
		{"bad-width", `{"query":{"relations":["orders"],"select":["orders.id"]},
			"deltas":{"orders":[{"at":0.01,"sign":1,"row":[1,1]}]}}`},
		{"unknown-rel", `{"query":{"relations":["orders"],"select":["orders.id"]},
			"deltas":{"ghost":[{"at":0.01,"sign":1,"row":[1]}]}}`},
		{"bad-type", `{"query":{"relations":["orders"],"select":["orders.id"]},
			"deltas":{"orders":[{"at":0.01,"sign":1,"row":["x",1,1.0]}]}}`},
		{"outside-query", `{"query":{"relations":["orders"],"select":["orders.id"]},
			"deltas":{"cust":[{"at":0.01,"sign":1,"row":[1,"x"]}]}}`},
	}
	for _, tc := range cases {
		resp := postStanding(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestServeStandingRejectionIsStable: a body whose delta scripts are bad
// for two relations is refused with the same bytes on every request — the
// relation named is the first by name, not whichever the request's map
// yielded first.
func TestServeStandingRejectionIsStable(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 50, Config{})
	body := `{"query":{"relations":["orders"],"select":["orders.id"]},
		"deltas":{"orders":[{"at":0.01,"sign":2,"row":[1,1,1.0]}],
			"cust":[{"at":0.01,"sign":1,"row":[1]}],
			"ghost":[{"at":0.01,"sign":1,"row":[1]}]}}`
	var first []byte
	for i := 0; i < 50; i++ {
		resp := postStanding(t, ts, body)
		got := readAll(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400", i, resp.StatusCode)
		}
		if i == 0 {
			first = got
			if !strings.Contains(string(first), `for \"cust\"`) {
				t.Fatalf("rejection names %s, want the first relation by name (cust)", first)
			}
			continue
		}
		if string(got) != string(first) {
			t.Fatalf("request %d rejected with %s, request 0 with %s", i, got, first)
		}
	}
}

// TestServeStandingMetrics checks the standing counters surface on
// /metrics after a completed standing query.
func TestServeStandingMetrics(t *testing.T) {
	_, ts, _, _ := newTestServer(t, 100, Config{})
	resp := postStanding(t, ts, standingRequest(`{"strategy":"static"}`))
	frames(t, resp.Body)
	resp.Body.Close()

	met, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer met.Body.Close()
	body := string(readAll(t, met.Body))
	if !strings.Contains(body, "adp_delta_rows_total 4") {
		t.Errorf("metrics missing delta row count:\n%s", body)
	}
	if !strings.Contains(body, "adp_standing_queries 0") {
		t.Errorf("metrics missing standing gauge:\n%s", body)
	}
}
