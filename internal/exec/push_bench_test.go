package exec

import (
	"fmt"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/types"
)

// BenchmarkPipelinedJoinPush pushes batches through a symmetric pipelined
// hash join — the engine's innermost loop — and through the join's columnar
// shims, which transpose each batch once and push it as rows. allocs/op is
// the headline metric: a batch amortizes probe-key, probe-index, and
// join-result allocations.
func BenchmarkPipelinedJoinPush(b *testing.B) {
	const batch = 64
	mkRows := func(n int) ([]types.Tuple, []types.Tuple) {
		dom := int64(max(n/4, 4))
		return randTuples(n, dom, 7, rRow), randTuples(n, dom, 8, sRow)
	}
	b.Run("batch", func(b *testing.B) {
		ls, rs := mkRows(b.N)
		j := NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, Discard)
		left, right := j.LeftSink(), j.RightSink()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			end := min(i+batch, b.N)
			left.Push(ls[i:end], 0)
			right.Push(rs[i:end], 0)
		}
	})
	b.Run("columnar", func(b *testing.B) {
		ls, rs := mkRows(b.N)
		lbs := toColBatches(ls, batch)
		rbs := toColBatches(rs, batch)
		j := NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range lbs {
			j.PushLeftColBatch(lbs[i])
			j.PushRightColBatch(rbs[i])
		}
	})

	// Wide-schema variants (12 columns per side, 24-column join output):
	// the regime where layout matters most. Every emit pays one
	// arena-backed 24-slot concat.
	wl, wr := wideSchemas(wideCols)
	mkWide := func(n int) ([]types.Tuple, []types.Tuple) {
		dom := int64(max(n/4, 4))
		return randTuples(n, dom, 7, wideRow), randTuples(n, dom, 8, wideRow)
	}
	b.Run("batch-wide", func(b *testing.B) {
		ls, rs := mkWide(b.N)
		j := NewHashJoin(NewContext(), Pipelined, wl, wr, []int{0}, []int{0}, Discard)
		left, right := j.LeftSink(), j.RightSink()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			end := min(i+batch, b.N)
			left.Push(ls[i:end], 0)
			right.Push(rs[i:end], 0)
		}
	})
	b.Run("columnar-wide", func(b *testing.B) {
		ls, rs := mkWide(b.N)
		lbs := toColBatches(ls, batch)
		rbs := toColBatches(rs, batch)
		j := NewHashJoin(NewContext(), Pipelined, wl, wr, []int{0}, []int{0}, Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range lbs {
			j.PushLeftColBatch(lbs[i])
			j.PushRightColBatch(rbs[i])
		}
	})

	// Copying consumer: a join whose sink is an InputCopier (the root sink
	// of a query, an aggregate) rewinds its emit arena after every
	// delivery. One op here is one left tuple that hits 256 build rows —
	// 256 24-column results, a slab and a half — delivered to a consumer
	// that reads and drops them. Once the arena has grown to one delivery
	// the steady state allocates nothing (budget 0 in check_allocs.sh);
	// through Discard, which promises nothing, the same op costs a slab
	// or two.
	b.Run("batch-wide-recycled", func(b *testing.B) {
		const keys, fan = 4, 256
		rs := make([]types.Tuple, 0, keys*fan)
		for k := 0; k < keys; k++ {
			for i := 0; i < fan; i++ {
				rs = append(rs, wideRow(int64(k), int64(i)))
			}
		}
		ls := make([]types.Tuple, 1024)
		for i := range ls {
			ls[i] = wideRow(int64(i%keys), int64(i))
		}
		sink := &readSink{}
		j := NewHashJoin(NewContext(), Pipelined, wl, wr, []int{0}, []int{0}, sink)
		left, right := j.LeftSink(), j.RightSink()
		right.Push(rs, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(ls)
			left.Push(ls[k:k+1], 0)
		}
		b.StopTimer()
		if sink.rows != fan*b.N {
			b.Fatalf("consumer read %d rows, want %d", sink.rows, fan*b.N)
		}
	})
}

// readSink is an InputCopier consumer that reads every row and keeps none.
type readSink struct {
	rows int
	sum  int64
}

func (s *readSink) CopiesInput() {}

func (s *readSink) Push(ts []types.Tuple, _ int) {
	for _, t := range ts {
		s.rows++
		s.sum += t[len(t)-1].I
	}
}

// wideCols is the wide-schema width per join side (≥12 columns — the
// payload-heavy regime the columnar layout targets).
const wideCols = 12

// wideSchemas builds two wideCols-column schemas (key first, then
// payload columns).
func wideSchemas(w int) (*types.Schema, *types.Schema) {
	mk := func(prefix string) *types.Schema {
		cols := make([]types.Column, w)
		cols[0] = types.Column{Name: prefix + ".k", Kind: types.KindInt}
		for i := 1; i < w; i++ {
			cols[i] = types.Column{Name: fmt.Sprintf("%s.p%d", prefix, i), Kind: types.KindInt}
		}
		return types.NewSchema(cols...)
	}
	return mk("wl"), mk("wr")
}

// wideRow builds a wideCols-column tuple: join key then payload values.
func wideRow(k, v int64) types.Tuple {
	t := make(types.Tuple, wideCols)
	t[0] = types.Int(k)
	for i := 1; i < wideCols; i++ {
		t[i] = types.Int(v + int64(i))
	}
	return t
}

// toColBatches transposes rows into columnar batches of the given size
// (bench setup; the driver does this transposition per same-source run).
func toColBatches(rows []types.Tuple, batch int) []*types.ColBatch {
	if len(rows) == 0 {
		return nil
	}
	var out []*types.ColBatch
	for i := 0; i < len(rows); i += batch {
		out = append(out, types.FromRows(rows[i:min(i+batch, len(rows))], len(rows[0])))
	}
	return out
}

// BenchmarkHashKeys tracks the vectorized key-hash kernel itself: one
// op hashes a whole batch's key columns into a reused hash vector
// (column-at-a-time over struct-of-arrays storage; 0 allocs/op).
func BenchmarkHashKeys(b *testing.B) {
	const rows = 1024
	ts := randTuples(rows, 256, 12, rRow)
	cb := types.FromRows(ts, 2)
	cols := []int{0, 1}
	vec := types.HashKeys(nil, cb, cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec = types.HashKeys(vec, cb, cols)
	}
	_ = vec
}

// BenchmarkMergeJoinPush pushes batches through the ordered merge join —
// the hot path of the complementary pair when source data arrives (mostly)
// sorted: one hash per insert, emit allocations amortized in the arena.
func BenchmarkMergeJoinPush(b *testing.B) {
	const batch = 64
	b.Run("batch", func(b *testing.B) {
		// Ascending unique keys both sides: every push closes a group and
		// the join streams 1:1 matches.
		ls := make([]types.Tuple, b.N)
		rs := make([]types.Tuple, b.N)
		for i := 0; i < b.N; i++ {
			ls[i] = rRow(int64(i), int64(i))
			rs[i] = sRow(int64(i), int64(i))
		}
		m := NewMergeJoin(NewContext(), rSchema, sSchema, []int{0}, []int{0}, Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			end := min(i+batch, b.N)
			if err := m.push(true, ls[i:end]); err != nil {
				b.Fatal(err)
			}
			if err := m.push(false, rs[i:end]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAggTableAbsorb tracks the group-by absorption hot path (the
// group values' hash, then the group store's chain; zero steady-state
// allocations once all groups exist).
func BenchmarkAggTableAbsorb(b *testing.B) {
	rows := randTuples(1<<14, 512, 9, rRow)
	agg, err := NewAggTable(NewContext(), rSchema, []string{"r.k"},
		[]algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.AbsorbRaw(rows[i&(1<<14-1)])
	}
}

// BenchmarkDeltaPropagation tracks the standing-query maintenance hot
// paths (PR 10): the z-set join re-probe (a signed batch builds into
// its side's delta state and probes the opposite side's live + negative
// tables) and the signed aggregate revision cycle (signed Push absorb +
// EmitRevisionsTo retraction/assertion batches). Both alternate signs so
// assertion and retraction orderings are exercised every pair of
// batches. Budgets in scripts/check_allocs.sh: <= 2 allocs/op each,
// an op being one delta row.
func BenchmarkDeltaPropagation(b *testing.B) {
	const batch = 64
	b.Run("join", func(b *testing.B) {
		dom := int64(max(b.N/4, 4))
		ls, rs := randTuples(b.N, dom, 7, rRow), randTuples(b.N, dom, 8, sRow)
		j := NewHashJoin(NewContext(), Pipelined, rSchema, sSchema, []int{0}, []int{0}, Discard)
		left, right := j.LeftSink(), j.RightSink()
		b.ReportAllocs()
		b.ResetTimer()
		sign := 1
		for i := 0; i < b.N; i += batch {
			end := min(i+batch, b.N)
			left.Push(ls[i:end], sign)
			right.Push(rs[i:end], sign)
			sign = -sign
		}
	})
	b.Run("agg", func(b *testing.B) {
		rows := randTuples(1<<12, 512, 9, rRow)
		agg, err := NewAggTable(NewContext(), rSchema, []string{"r.k"},
			[]algebra.AggSpec{
				{Kind: algebra.AggSum, Arg: expr.Column("r.a"), As: "sm"},
				{Kind: algebra.AggCount, As: "n"},
			})
		if err != nil {
			b.Fatal(err)
		}
		agg.EnableMaintenance()
		sink := discardSink{}
		// Warm every group so the steady state revises rather than creates.
		agg.Push(rows, 1)
		agg.EmitRevisionsTo(sink)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 2 * batch {
			k := (i / (2 * batch)) % (len(rows) / batch)
			chunk := rows[k*batch : (k+1)*batch]
			agg.Push(chunk, 1)
			agg.EmitRevisionsTo(sink)
			agg.Push(chunk, -1)
			agg.EmitRevisionsTo(sink)
		}
	})
}
