package core

import (
	"context"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// countSink is a consumer that reads every row and keeps none, as both of
// a run's stitch-up sinks do.
type countSink struct{ rows int }

func (s *countSink) CopiesInput() {}

func (s *countSink) Push(ts []types.Tuple, _ int) { s.rows += len(ts) }

// BenchmarkStitchUp is one stitch-up of three relations cut into three
// phases, every phase having materialized A⋈B for reuse: 24 combinations
// over nine partition indexes. What an op allocates is those indexes and
// little else — prefixes travel by reference in chunks every combination
// reuses, result rows in one arena (budget in scripts/check_allocs.sh).
func BenchmarkStitchUp(b *testing.B) {
	f := newStitchFixture(3, 3000, 6000, 3000, 1500)
	recs := f.partition(3, 4)
	abKey := algebra.CanonKey([]string{"A", "B"})
	for _, rec := range recs {
		ab := state.NewList(f.schemas["A"].Concat(f.schemas["B"]))
		byKey := map[int64][]types.Tuple{}
		rec.BaseParts["B"].Scan(func(t types.Tuple) bool { byKey[t[0].I] = append(byKey[t[0].I], t); return true })
		rec.BaseParts["A"].Scan(func(a types.Tuple) bool {
			for _, t := range byKey[a[0].I] {
				ab.Insert(a.Concat(t))
			}
			return true
		})
		rec.Interm[abKey] = ab
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &countSink{}
		s, err := NewStitchUp(exec.NewContext(), f.q, recs, sink)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		if sink.rows == 0 || s.Reused == 0 {
			b.Fatalf("stitch-up emitted %d rows and reused %d", sink.rows, s.Reused)
		}
	}
}
