package engine

import (
	"context"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/types"
)

// BenchmarkStreamDelivery measures steady-state cursor delivery: one op
// is one row pulled through the cursor over a batched SPJ root (build
// side loaded, probe side streaming). The whole pipeline — driver batch
// delivery, join push, the root sink writing into a lent batch, channel
// hand-off, release — is on the clock and in the allocation count,
// including everything the run goroutine allocates. The budgets pinned in
// scripts/check_allocs.sh: reading lent batches (NextBatch, what the
// server does) allocates nothing per row; Next pays exactly its clone.
// Stream re-opens amortize over rowsPerStream and are counted too.
func BenchmarkStreamDelivery(b *testing.B) {
	const rowsPerStream = 1 << 15
	// PollEvery 256 gives ~128 flushed batches per stream, far beyond the
	// lender's window, so the producer stays paced by the consumer and its
	// work is measured rather than racing ahead between iterations.
	open := func(b *testing.B, e *Engine, q *algebra.Query) *Stream {
		s, err := e.Stream(context.Background(), q, WithStrategy(core.Static), WithPollEvery(256))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("next", func(b *testing.B) {
		e, q := spjEngine(rowsPerStream, nil)
		b.ReportAllocs()
		b.ResetTimer()
		var s *Stream
		remaining := 0
		for i := 0; i < b.N; i++ {
			if remaining == 0 {
				if s != nil {
					s.Close()
				}
				s, remaining = open(b, e, q), rowsPerStream
			}
			if _, ok := s.Next(); !ok {
				b.Fatal("stream exhausted early")
			}
			remaining--
		}
		b.StopTimer()
		if s != nil {
			s.Close()
		}
	})
	b.Run("batch", func(b *testing.B) {
		e, q := spjEngine(rowsPerStream, nil)
		b.ReportAllocs()
		b.ResetTimer()
		var s *Stream
		var batch []types.Tuple
		var sum int64
		for i := 0; i < b.N; i++ {
			if len(batch) == 0 {
				var ok bool
				if s != nil {
					batch, ok = s.NextBatch()
				}
				if !ok {
					if s != nil {
						s.Close()
					}
					s = open(b, e, q)
					if batch, ok = s.NextBatch(); !ok {
						b.Fatal("stream delivered no rows")
					}
				}
			}
			sum += batch[0][0].I
			batch = batch[1:]
		}
		b.StopTimer()
		if s != nil {
			s.Close()
		}
		_ = sum
	})
}

// BenchmarkFirstRow measures time-to-first-row: one op opens a stream
// over the SPJ fixture, pulls exactly one row through the cursor, and
// closes. The serial variant flushes at monitor polls (PR 5); the
// parallel variant exercises the order-releasing partition merge (PR 9),
// which streams the watermark partition's prefix at every quiesced poll
// instead of holding all rows to the phase barrier.
func BenchmarkFirstRow(b *testing.B) {
	run := func(b *testing.B, opts ...Option) {
		e, q := spjEngine(1<<15, nil)
		opts = append([]Option{WithStrategy(core.Static), WithPollEvery(256)}, opts...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := e.Stream(context.Background(), q, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := s.Next(); !ok {
				b.Fatal("no first row")
			}
			s.Close()
		}
	}
	b.Run("serial", func(b *testing.B) { run(b) })
	b.Run("P=4", func(b *testing.B) { run(b, WithPartitions(4)) })
}
