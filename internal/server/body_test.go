package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// padTo pads a JSON object body with spaces before its closing brace to
// exactly n bytes, so the whole body has to be read to decode it.
func padTo(body string, n int) string {
	return body[:len(body)-1] + strings.Repeat(" ", n-len(body)) + "}"
}

// boundBodies are, per streaming endpoint, bodies on either side of
// maxRequestBytes: one of exactly the bound, one a byte past it, one far
// past it whose JSON is well formed up to the bound, and a well-formed body
// followed by more than the bound's worth of trailing bytes.
func boundBodies() map[string]map[string]string {
	var script strings.Builder
	for script.Len() < maxRequestBytes+maxRequestBytes/4 {
		script.WriteString(`{"at":0.01,"sign":1,"row":[9000,3,125.5]},`)
	}
	return map[string]map[string]string{
		"/v1/query": {
			"fit":      padTo(spjRequest(`{"strategy":"static"}`), maxRequestBytes),
			"over":     padTo(spjRequest(`{"strategy":"static"}`), maxRequestBytes+1),
			"far":      `{"query":{"name":"` + strings.Repeat("x", maxRequestBytes+maxRequestBytes/4) + `"}}`,
			"trailing": spjRequest(`{"strategy":"static"}`) + strings.Repeat(" ", maxRequestBytes+1),
		},
		"/v1/standing": {
			"fit":      padTo(standingRequest(`{"strategy":"static"}`), maxRequestBytes),
			"over":     padTo(standingRequest(`{"strategy":"static"}`), maxRequestBytes+1),
			"far":      `{"query":{"relations":["orders"],"select":["orders.id"]},"deltas":{"orders":[` + script.String() + `]}}`,
			"trailing": standingRequest(`{"strategy":"static"}`) + strings.Repeat(" ", maxRequestBytes+1),
		},
	}
}

// checkBound checks one response to a boundBodies body: a body that fits
// — or whose first value ends inside the bound — streams to its terminal
// report; one whose first value runs past the bound is refused as too large.
func checkBound(t *testing.T, what, kind string, status int, body []byte) {
	t.Helper()
	if kind == "fit" || kind == "trailing" {
		if status != http.StatusOK || !strings.Contains(string(body), `"type":"report"`) {
			t.Errorf("%s: %d %.200s, want a stream ending in its report", what, status, body)
		}
		return
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || status != http.StatusBadRequest ||
		eb.Error.Code != CodeInvalidRequest || eb.Error.Message != "bad request body: http: request body too large" {
		t.Errorf("%s: %d %.200s, want 400 invalid_request, request body too large", what, status, body)
	}
}

// TestRequestBodyBound: both streaming endpoints bound a body at
// maxRequestBytes the same way, whether its length comes with a
// Content-Length or it is chunked over a socket, and whether a declared
// length understates or overstates it (in process, where the handler sees
// the declared length beside the whole body).
func TestRequestBodyBound(t *testing.T) {
	s, ts, _, _ := newTestServer(t, 200, Config{})
	for path, bodies := range boundBodies() {
		for kind, body := range bodies {
			for _, chunked := range []bool{false, true} {
				var r io.Reader = strings.NewReader(body)
				if chunked {
					r = io.MultiReader(r) // of no known length: sent chunked
				}
				resp, err := ts.Client().Post(ts.URL+path, "application/json", r)
				if err != nil {
					t.Fatalf("%s %s chunked=%v: %v", path, kind, chunked, err)
				}
				got := readAll(t, resp.Body)
				resp.Body.Close()
				checkBound(t, path+" "+kind+" over a socket", kind, resp.StatusCode, got)
			}
			for _, declared := range []int64{-1, 64, int64(len(body)) / 2, 2 * int64(len(body))} {
				req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
				req.ContentLength = declared
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				checkBound(t, path+" "+kind+" in process", kind, rec.Code, rec.Body.Bytes())
			}
		}
	}
}

// TestRequestBodyLengthNotTrusted: a Content-Length far beyond the bound
// never sizes the body's buffer beyond it.
func TestRequestBodyLengthNotTrusted(t *testing.T) {
	s, _, _, _ := newTestServer(t, 50, Config{})
	for _, path := range []string{"/v1/query", "/v1/standing"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"query":{}}`))
		req.ContentLength = 64 * maxRequestBytes
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", path, rec.Code, rec.Body)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 2*maxRequestBytes {
			t.Errorf("%s: %d bytes allocated for a %d-byte body, want at most %d", path, n, 12, 2*maxRequestBytes)
		}
	}
}
