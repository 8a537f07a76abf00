package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// wideRow is a row of spj_wide_out's ten column kinds (customer key, name
// and segment; order key, date and total; line number, quantity, extended
// price and return flag). The quantity and the price are short decimals;
// the total, a sum of two prices, is a computed float whose shortest form
// has 16 digits.
func wideRow(i int) types.Tuple {
	return types.Tuple{
		types.Int(int64(i % 3000)), types.Str(fmt.Sprintf("Customer#%06d", i%3000)), types.Str("BUILDING"),
		types.Int(int64(i)), types.Int(int64(8036 + i%2400)), types.Float(74999.01000000001),
		types.Int(int64(1 + i%7)), types.Float(36), types.Float(57600.36), types.Str("N"),
	}
}

// BenchmarkRowEncode pins the per-row NDJSON encode hot path: appending
// one row frame into a reused buffer must not allocate
// (scripts/check_allocs.sh holds both rows at 0 allocs/op, and wide at 0
// B/op). mixed is a short int/float/string row; wide is wideRow.
func BenchmarkRowEncode(b *testing.B) {
	for _, bc := range []struct {
		name string
		tup  types.Tuple
	}{
		{"mixed", types.Tuple{types.Int(1234567), types.Str("BUILDING"), types.Float(48032.1634), types.Int(3)}},
		{"wide", wideRow(1234)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendRowFrame(buf[:0], bc.tup)
			}
			if len(buf) == 0 {
				b.Fatal("no output")
			}
		})
	}
}

// BenchmarkServeQuery measures one end-to-end wire query — admission,
// plan-cache hit, streaming execution, NDJSON encode, HTTP transport —
// against the in-process fixture. allocs/op here is whole-query, not
// per-row; the per-row budget is BenchmarkRowEncode's.
func BenchmarkServeQuery(b *testing.B) {
	eng, q := spjEngine(2_000)
	svc := New(eng, Config{MaxConcurrent: 4})
	svc.RegisterPrepared("spj", q)
	ts := httptest.NewServer(svc)
	defer ts.Close()
	body := `{"query":{"prepared":"spj"},"options":{"strategy":"corrective"}}`

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			if frameType(sc.Text()) == "row" {
				rows++
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if rows != 2_000 {
			b.Fatalf("streamed %d rows, want 2000", rows)
		}
	}
	b.ReportMetric(2_000, "rows/op")
}
