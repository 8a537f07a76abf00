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
// over nine partition indexes. What an op allocates is those indexes, the
// prefixes' row chunks and indexes, and the result rows' arena, all taken
// from its context's spare (budgets in scripts/check_allocs.sh). A "cold"
// op runs on a fresh empty spare (exec.NewContext), so it allocates all of
// them. A "recycled" op takes the pooled spare the op before it returned and
// returns it (exec.NewRunContext, Context.Release), as a run does, after one
// warm-up op.
func BenchmarkStitchUp(b *testing.B) {
	f := newStitchFixture(3, 3000, 6000, 3000, 1500)
	recs := f.partition(3, 4)
	abKey := algebra.CanonKey([]string{"A", "B"})
	for _, rec := range recs {
		ab := state.NewList(f.schemas["A"].Concat(f.schemas["B"]), new(state.Spare))
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
	op := func(b *testing.B, ctx *exec.Context) {
		sink := &countSink{}
		s, err := NewStitchUp(ctx, f.q, recs, sink)
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
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op(b, exec.NewContext())
		}
	})
	b.Run("recycled", func(b *testing.B) {
		recycled := func() {
			ctx := exec.NewRunContext(exec.DefaultCosts())
			op(b, ctx)
			ctx.Release()
		}
		recycled()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recycled()
		}
	})
}
