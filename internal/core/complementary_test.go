package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

var (
	lSchema = types.NewSchema(
		types.Column{Name: "l.k", Kind: types.KindInt},
		types.Column{Name: "l.v", Kind: types.KindInt},
	)
	oSchema = types.NewSchema(
		types.Column{Name: "o.k", Kind: types.KindInt},
		types.Column{Name: "o.v", Kind: types.KindInt},
	)
)

// mkSortedFK builds a key-side relation (unique sorted keys 0..nKeys-1)
// and an FK side with fanout lines per key, sorted by key.
func mkSortedFK(nKeys, fanout int) (keys, fks []types.Tuple) {
	for k := 0; k < nKeys; k++ {
		keys = append(keys, types.Tuple{types.Int(int64(k)), types.Int(int64(k))})
		for l := 0; l < fanout; l++ {
			fks = append(fks, types.Tuple{types.Int(int64(k)), types.Int(int64(l))})
		}
	}
	return
}

func reorder(rows []types.Tuple, frac float64, seed int64) []types.Tuple {
	out := append([]types.Tuple(nil), rows...)
	rng := rand.New(rand.NewSource(seed))
	swaps := int(frac * float64(len(out)) / 2)
	for i := 0; i < swaps; i++ {
		a, b := rng.Intn(len(out)), rng.Intn(len(out))
		out[a], out[b] = out[b], out[a]
	}
	return out
}

// runPair feeds both inputs interleaved into a complementary join and
// returns the number of output tuples plus the stats.
func runPair(t *testing.T, ls, rs []types.Tuple, pqCap int) (int, CompJoinStats) {
	t.Helper()
	ctx := exec.NewContext()
	n := 0
	cj := NewComplementaryJoin(ctx, lSchema, oSchema, []int{0}, []int{0}, pqCap,
		exec.SinkFunc(func(ts []types.Tuple, _ int) { n += len(ts) }))
	i, k := 0, 0
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			cj.PushLeftBatch(ls[i : i+1])
			i++
		}
		if k < len(rs) {
			cj.PushRightBatch(rs[k : k+1])
			k++
		}
	}
	cj.Finish()
	cj.Finish() // idempotent
	return n, cj.Stats
}

func refJoinCount(ls, rs []types.Tuple) int {
	byKey := map[int64]int{}
	for _, r := range rs {
		byKey[r[0].I]++
	}
	n := 0
	for _, l := range ls {
		n += byKey[l[0].I]
	}
	return n
}

func TestComplementaryJoinSortedAllMerge(t *testing.T) {
	keys, fks := mkSortedFK(300, 4)
	want := refJoinCount(fks, keys)
	got, st := runPair(t, fks, keys, 0)
	if got != want {
		t.Fatalf("output = %d, want %d", got, want)
	}
	if st.HashRoutedLeft+st.HashRoutedRight != 0 {
		t.Errorf("sorted input should route everything to merge: %+v", st)
	}
	if st.MergeOut != int64(want) || st.StitchOut != 0 || st.HashOut != 0 {
		t.Errorf("sorted input join distribution wrong: %+v", st)
	}
}

func TestComplementaryJoinEquivalenceUnderReordering(t *testing.T) {
	keys, fks := mkSortedFK(250, 3)
	want := refJoinCount(fks, keys)
	for _, frac := range []float64{0, 0.01, 0.1, 0.5, 1.0} {
		for _, pq := range []int{0, 64, DefaultPQCap} {
			ls := reorder(fks, frac, 42)
			rs := reorder(keys, frac, 43)
			got, st := runPair(t, ls, rs, pq)
			if got != want {
				t.Fatalf("frac=%g pq=%d: output = %d, want %d (stats %+v)", frac, pq, got, want, st)
			}
			total := st.MergeOut + st.HashOut + st.StitchOut
			if total != int64(want) {
				t.Fatalf("frac=%g pq=%d: component outputs %d != total %d", frac, pq, total, want)
			}
		}
	}
}

func TestPriorityQueueKeepsMergeUseful(t *testing.T) {
	// At 1% reordering, the naive router collapses to hash after the
	// first out-of-order tuple poisons the watermark; the priority queue
	// should keep the merge join dominant (§5, Table 3).
	keys, fks := mkSortedFK(2000, 3)
	ls := reorder(fks, 0.01, 7)
	rs := reorder(keys, 0.01, 8)

	_, naive := runPair(t, ls, rs, 0)
	_, pq := runPair(t, append([]types.Tuple(nil), ls...), append([]types.Tuple(nil), rs...), DefaultPQCap)

	naiveMergeFrac := float64(naive.MergeRoutedLeft+naive.MergeRoutedRight) /
		float64(naive.MergeRoutedLeft+naive.MergeRoutedRight+naive.HashRoutedLeft+naive.HashRoutedRight)
	pqMergeFrac := float64(pq.MergeRoutedLeft+pq.MergeRoutedRight) /
		float64(pq.MergeRoutedLeft+pq.MergeRoutedRight+pq.HashRoutedLeft+pq.HashRoutedRight)
	if pqMergeFrac <= naiveMergeFrac {
		t.Errorf("pq merge fraction %.3f should exceed naive %.3f", pqMergeFrac, naiveMergeFrac)
	}
	if pqMergeFrac < 0.9 {
		t.Errorf("pq should keep >90%% of 1%%-reordered data in merge, got %.3f", pqMergeFrac)
	}
}

func TestComplementaryFasterThanHashOnSorted(t *testing.T) {
	// Virtual-time comparison on fully sorted data: the pair should beat
	// a plain pipelined hash join (merge comparisons < hash operations).
	keys, fks := mkSortedFK(3000, 3)

	hashCtx := exec.NewContext()
	hj := exec.NewHashJoin(hashCtx, exec.Pipelined, lSchema, oSchema, []int{0}, []int{0}, exec.Discard)
	i, k := 0, 0
	for i < len(fks) || k < len(keys) {
		if i < len(fks) {
			hj.LeftSink().Push(fks[i:i+1], 0)
			i++
		}
		if k < len(keys) {
			hj.RightSink().Push(keys[k:k+1], 0)
			k++
		}
	}
	hj.FinishLeft()
	hj.FinishRight()

	pairCtx := exec.NewContext()
	cj := NewComplementaryJoin(pairCtx, lSchema, oSchema, []int{0}, []int{0}, 0, exec.Discard)
	i, k = 0, 0
	for i < len(fks) || k < len(keys) {
		if i < len(fks) {
			cj.PushLeftBatch(fks[i : i+1])
			i++
		}
		if k < len(keys) {
			cj.PushRightBatch(keys[k : k+1])
			k++
		}
	}
	cj.Finish()

	if pairCtx.Clock.CPU >= hashCtx.Clock.CPU {
		t.Errorf("complementary pair CPU %d ns should beat hash join %d ns on sorted data",
			pairCtx.Clock.CPU, hashCtx.Clock.CPU)
	}
}

func TestComplementaryViaProviders(t *testing.T) {
	// Drive the pair through source providers with bursty schedules, as
	// the Figure 5 experiment does.
	keys, fks := mkSortedFK(500, 2)
	lRel := source.NewRelation("l", lSchema, fks)
	oRel := source.NewRelation("o", oSchema, keys)
	lp := source.NewProvider(lRel, source.NewBursty(len(fks), 10000, 100, 0.01, 1))
	op := source.NewProvider(oRel, source.NewBursty(len(keys), 10000, 100, 0.01, 2))

	ctx := exec.NewContext()
	n := 0
	cj := NewComplementaryJoin(ctx, lSchema, oSchema, []int{0}, []int{0}, DefaultPQCap,
		exec.SinkFunc(func(ts []types.Tuple, _ int) { n += len(ts) }))
	d := exec.NewDriver(ctx,
		&exec.Leaf{Provider: lp, PushBatch: cj.PushLeftBatch},
		&exec.Leaf{Provider: op, PushBatch: cj.PushRightBatch},
	)
	d.Run(0, nil)
	cj.Finish()
	if n != refJoinCount(fks, keys) {
		t.Fatalf("output = %d, want %d", n, refJoinCount(fks, keys))
	}
	if ctx.Clock.Now <= 0 {
		t.Error("no virtual time elapsed")
	}
}

// rowSink collects tuples in arrival order (tuples may be retained, the
// batch slice is not).
type rowSink struct {
	rows []types.Tuple
}

func (s *rowSink) Push(ts []types.Tuple, _ int) { s.rows = append(s.rows, ts...) }

// feedPair delivers both inputs in alternating per-side chunks, each chunk
// as batches of batch rows — the same arrival order whatever batch.
func feedPair(cj *ComplementaryJoin, ls, rs []types.Tuple, chunk, batch int) {
	deliver := func(push func([]types.Tuple), ts []types.Tuple) {
		for len(ts) > 0 {
			n := min(batch, len(ts))
			push(ts[:n])
			ts = ts[n:]
		}
	}
	i, k := 0, 0
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			end := min(i+chunk, len(ls))
			deliver(cj.PushLeftBatch, ls[i:end])
			i = end
		}
		if k < len(rs) {
			end := min(k+chunk, len(rs))
			deliver(cj.PushRightBatch, rs[k:end])
			k = end
		}
	}
	cj.Finish()
}

// TestComplementaryBatchSizeInvariant verifies that how the router's input
// is cut into batches does not show, across reorder fractions and both
// router configurations: batches of one and whole chunks give a
// byte-identical output sequence (ordered delivery), identical routing
// statistics, and identical virtual-clock totals.
func TestComplementaryBatchSizeInvariant(t *testing.T) {
	keys, fks := mkSortedFK(300, 3)
	for _, frac := range []float64{0, 0.02, 0.3, 1.0} {
		for _, pq := range []int{0, 64, DefaultPQCap} {
			for _, chunk := range []int{17, 64} {
				ls := reorder(fks, frac, 21)
				rs := reorder(keys, frac, 22)

				ctx1 := exec.NewContext()
				out1 := &rowSink{}
				cj1 := NewComplementaryJoin(ctx1, lSchema, oSchema, []int{0}, []int{0}, pq, out1)
				feedPair(cj1, ls, rs, chunk, 1)

				ctx2 := exec.NewContext()
				out2 := &rowSink{}
				cj2 := NewComplementaryJoin(ctx2, lSchema, oSchema, []int{0}, []int{0}, pq, out2)
				feedPair(cj2, ls, rs, chunk, chunk)

				if len(out1.rows) == 0 || len(out1.rows) != len(out2.rows) {
					t.Fatalf("frac=%g pq=%d chunk=%d: %d vs %d outputs",
						frac, pq, chunk, len(out1.rows), len(out2.rows))
				}
				for i := range out1.rows {
					if out1.rows[i].String() != out2.rows[i].String() {
						t.Fatalf("frac=%g pq=%d chunk=%d: output %d differs: %v vs %v",
							frac, pq, chunk, i, out1.rows[i], out2.rows[i])
					}
				}
				if cj1.Stats != cj2.Stats {
					t.Fatalf("frac=%g pq=%d chunk=%d: stats differ: %+v vs %+v",
						frac, pq, chunk, cj1.Stats, cj2.Stats)
				}
				if ctx1.Clock.CPU != ctx2.Clock.CPU {
					t.Fatalf("frac=%g pq=%d chunk=%d: clocks differ: %v vs %v",
						frac, pq, chunk, ctx1.Clock.CPU, ctx2.Clock.CPU)
				}
			}
		}
	}
}

// TestComplementaryBatchSortedOrderedDelivery checks that on fully sorted
// input the pair delivers merge output in ascending key order —
// the ordered-delivery property downstream merge consumers rely on.
func TestComplementaryBatchSortedOrderedDelivery(t *testing.T) {
	keys, fks := mkSortedFK(500, 2)
	out := &rowSink{}
	cj := NewComplementaryJoin(exec.NewContext(), lSchema, oSchema, []int{0}, []int{0}, 0, out)
	feedPair(cj, fks, keys, 64, 64)
	if cj.Stats.HashRoutedLeft+cj.Stats.HashRoutedRight != 0 {
		t.Fatalf("sorted input routed to hash: %+v", cj.Stats)
	}
	if len(out.rows) != refJoinCount(fks, keys) {
		t.Fatalf("output = %d, want %d", len(out.rows), refJoinCount(fks, keys))
	}
	for i := 1; i < len(out.rows); i++ {
		if out.rows[i][0].I < out.rows[i-1][0].I {
			t.Fatalf("output not key-ordered at %d: %v after %v", i, out.rows[i], out.rows[i-1])
		}
	}
}

func TestTupleHeapOrdering(t *testing.T) {
	h := newTupleHeap([]int{0}, 4)
	seq := []int64{5, 1, 9, 3, 7, 2}
	var evicted []int64
	for _, k := range seq {
		if ev, ok := h.offer(types.Tuple{types.Int(k)}); ok {
			evicted = append(evicted, ev[0].I)
		}
	}
	var drained []int64
	h.drain(func(t types.Tuple) { drained = append(drained, t[0].I) })
	if !sort.SliceIsSorted(drained, func(i, j int) bool { return drained[i] < drained[j] }) {
		t.Errorf("drain not sorted: %v", drained)
	}
	all := append(evicted, drained...)
	if len(all) != len(seq) {
		t.Errorf("lost tuples: %v", all)
	}
}
