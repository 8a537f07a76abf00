package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/types"
)

// writeRecorder is a flushing http.ResponseWriter that keeps every Write
// as its own slice, so a test sees where the stream's writes fell.
type writeRecorder struct {
	header  http.Header
	writes  [][]byte
	flushes int
}

func (r *writeRecorder) Header() http.Header {
	if r.header == nil {
		r.header = http.Header{}
	}
	return r.header
}

func (r *writeRecorder) WriteHeader(int) {}

func (r *writeRecorder) Write(b []byte) (int, error) {
	r.writes = append(r.writes, bytes.Clone(b))
	return len(b), nil
}

func (r *writeRecorder) Flush() { r.flushes++ }

// finishedRun is a run that has announced its schema and ended cleanly:
// all begin, end and done ask of one.
type finishedRun struct{ schema *types.Schema }

func (r finishedRun) Events() <-chan core.Event {
	ch := make(chan core.Event)
	close(ch)
	return ch
}
func (r finishedRun) Schema() *types.Schema         { return r.schema }
func (r finishedRun) Err() error                    { return nil }
func (r finishedRun) Report() (*core.Report, error) { return &core.Report{}, nil }
func (r finishedRun) Close() error                  { return nil }

// TestSendWritesEachBatch pins the write cadence of a row stream against a
// recorder. When send returns, every frame of its batch is on the wire — a
// 5-row batch included — followed by its tail. A stream's first write goes
// out at the first frame boundary past firstWriteBytes, later ones at batch
// ends or past writeBytes, every write ends on a frame boundary and is
// flushed, and a batch cut short by the row budget writes what fit, without
// its tail.
func TestSendWritesEachBatch(t *testing.T) {
	var cols []types.Column
	for i, v := range wideRow(0) {
		cols = append(cols, types.Column{Name: fmt.Sprintf("c%d", i), Kind: v.K})
	}
	schema := types.NewSchema(cols...)
	watermark := []byte(`{"type":"watermark"}` + "\n")
	for _, tc := range []struct {
		name    string
		batches []int
		tail    []byte
		budget  int64
	}{
		{name: "small-first", batches: []int{5, 3000, 1, 80, 700}},
		{name: "large-first", batches: []int{3000, 5, 700, 1}},
		{name: "windows", batches: []int{0, 5, 3000, 0, 1}, tail: watermark},
		{name: "budget", batches: []int{5, 3000}, tail: watermark, budget: 900},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &writeRecorder{}
			svc := New(engine.New(), Config{MaxRowsPerQuery: tc.budget})
			nw, ok := svc.begin(rec, "q", finishedRun{schema}, nil, "query")
			if !ok {
				t.Fatal("begin refused a run with a schema")
			}
			defer nw.done()
			if len(rec.writes) != 1 || frameType(string(rec.writes[0])) != "schema" {
				t.Fatalf("begin wrote %q, want the schema frame alone", rec.writes)
			}
			first, next, sent := true, 0, 0
			for bi, n := range tc.batches {
				rows := make([]types.Tuple, n)
				for i := range rows {
					rows[i] = wideRow(next + i)
				}
				next += n
				fit := n
				if tc.budget > 0 && int64(sent+n) > tc.budget {
					fit = int(tc.budget) - sent
				}
				var want [][]byte
				for _, r := range rows[:fit] {
					want = append(want, AppendRowFrame(nil, r))
				}
				if fit == n && tc.tail != nil {
					want = append(want, tc.tail)
				}
				before := len(rec.writes)
				over := nw.send(n, func(buf []byte, i int) []byte { return AppendRowFrame(buf, rows[i]) }, tc.tail)
				if over != (fit < n) {
					t.Fatalf("batch %d: over = %v with %d of %d rows in the budget", bi, over, fit, n)
				}
				first = checkBatchWrites(t, bi, rec.writes[before:], want, first)
				sent += fit
				if over {
					break
				}
			}
			if rec.flushes != len(rec.writes) {
				t.Fatalf("%d writes, %d flushes", len(rec.writes), rec.flushes)
			}
		})
	}
}

// checkBatchWrites checks the writes one send made against the frames of
// its batch, first telling whether the stream had written no rows before;
// it returns whether that is still so.
func checkBatchWrites(t *testing.T, batch int, writes, frames [][]byte, first bool) bool {
	t.Helper()
	if len(frames) > 0 && len(writes) == 0 {
		t.Fatalf("batch %d: none of its %d frames written when send returned", batch, len(frames))
	}
	for wi, w := range writes {
		limit := writeBytes
		if first {
			limit = firstWriteBytes
		}
		var last []byte
		for rest := w; len(rest) > 0; rest = rest[len(last):] {
			if len(frames) == 0 || !bytes.HasPrefix(rest, frames[0]) {
				t.Fatalf("batch %d write %d: %.80q is not the batch's next frame", batch, wi, rest)
			}
			last, frames = frames[0], frames[1:]
		}
		if len(w)-len(last) >= limit {
			t.Fatalf("batch %d write %d: %d bytes were buffered past %d before its last frame", batch, wi, len(w)-len(last), limit)
		}
		if wi < len(writes)-1 && len(w) < limit {
			t.Fatalf("batch %d write %d: %d bytes written mid-batch, under %d", batch, wi, len(w), limit)
		}
		first = false
	}
	if len(frames) > 0 {
		t.Fatalf("batch %d: %d frames not written when send returned", batch, len(frames))
	}
	return first
}
