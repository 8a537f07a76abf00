package exec

import (
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// sortedPair builds two key-ascending inputs: a unique-key side and a
// fanout side (several rows per key), the shape the complementary pair's
// router feeds the merge join.
func sortedPair(nKeys, fanout int) (ls, rs []types.Tuple) {
	for k := 0; k < nKeys; k++ {
		rs = append(rs, sRow(int64(k), int64(k)))
		for f := 0; f < fanout; f++ {
			ls = append(ls, rRow(int64(k), int64(f)))
		}
	}
	return
}

// feedMergeJoin pushes ls/rs in alternating chunks of chunkSize per side,
// each chunk as batches of batch rows, mirroring feedJoin so any output
// difference isolates how the input was cut.
func feedMergeJoin(t *testing.T, m *MergeJoin, ls, rs []types.Tuple, chunkSize, batch int) {
	t.Helper()
	deliver := func(left bool, chunk []types.Tuple) {
		for len(chunk) > 0 {
			n := min(batch, len(chunk))
			if err := m.push(left, chunk[:n]); err != nil {
				t.Fatal(err)
			}
			chunk = chunk[n:]
		}
	}
	i, k := 0, 0
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			end := min(i+chunkSize, len(ls))
			deliver(true, ls[i:end])
			i = end
		}
		if k < len(rs) {
			end := min(k+chunkSize, len(rs))
			deliver(false, rs[k:end])
			k = end
		}
	}
	m.FinishLeft()
	m.FinishRight()
}

// TestMergeJoinBatchSizeInvariant verifies that how the merge join's input
// is cut into batches does not show: batches of one and whole chunks give
// the same outputs in the same (key-ascending) order, the same counters,
// the same virtual-clock charges.
func TestMergeJoinBatchSizeInvariant(t *testing.T) {
	ls, rs := sortedPair(400, 3)
	for _, chunk := range []int{7, 64, 1000} {
		ctx1, ctx2 := NewContext(), NewContext()
		out1, out2 := &collectSink{}, &collectSink{}
		m1 := NewMergeJoin(ctx1, rSchema, sSchema, []int{0}, []int{0}, out1)
		m2 := NewMergeJoin(ctx2, rSchema, sSchema, []int{0}, []int{0}, out2)
		feedMergeJoin(t, m1, ls, rs, chunk, 1)
		feedMergeJoin(t, m2, ls, rs, chunk, chunk)
		if len(out1.rows) == 0 || len(out1.rows) != len(out2.rows) {
			t.Fatalf("chunk %d: %d vs %d output tuples", chunk, len(out1.rows), len(out2.rows))
		}
		for i := range out1.rows {
			if out1.rows[i].String() != out2.rows[i].String() {
				t.Fatalf("chunk %d: output %d differs: %v vs %v", chunk, i, out1.rows[i], out2.rows[i])
			}
		}
		// Ordered delivery: merge-join output must ascend on the join key.
		for i := 1; i < len(out2.rows); i++ {
			if out2.rows[i][0].I < out2.rows[i-1][0].I {
				t.Fatalf("chunk %d: batched output not key-ordered at %d: %v after %v",
					chunk, i, out2.rows[i], out2.rows[i-1])
			}
		}
		if c1, c2 := m1.Counters(), m2.Counters(); *c1 != *c2 {
			t.Fatalf("chunk %d: counters differ: %+v vs %+v", chunk, c1, c2)
		}
		if ctx1.Clock.Now != ctx2.Clock.Now || ctx1.Clock.CPU != ctx2.Clock.CPU {
			t.Fatalf("chunk %d: clocks differ: (%v, %v) vs (%v, %v)",
				chunk, ctx1.Clock.Now, ctx1.Clock.CPU, ctx2.Clock.Now, ctx2.Clock.CPU)
		}
		// The local stitch-up tables must be identical too.
		l1, r1 := m1.Tables()
		l2, r2 := m2.Tables()
		if l1.Len() != l2.Len() || r1.Len() != r2.Len() {
			t.Fatalf("chunk %d: table sizes differ", chunk)
		}
	}
}

// TestMergeJoinBatchOutOfOrder verifies what a batch does on a routing
// bug: the offending tuple is rejected individually (the first error is
// returned), the rest of the batch still flows, and the resulting outputs,
// counters, and clock match pushing the tuples one by one exactly.
func TestMergeJoinBatchOutOfOrder(t *testing.T) {
	ls := []types.Tuple{rRow(5, 0), rRow(3, 0), rRow(7, 0)} // 3 is out of order
	rs := []types.Tuple{sRow(5, 0), sRow(7, 0)}

	ctx1, out1 := NewContext(), &collectSink{}
	m1 := NewMergeJoin(ctx1, rSchema, sSchema, []int{0}, []int{0}, out1)
	tupleErrs := 0
	for _, tp := range ls {
		if err := m1.push(true, one(tp)); err != nil {
			tupleErrs++
		}
	}
	for _, tp := range rs {
		if err := m1.push(false, one(tp)); err != nil {
			t.Fatal(err)
		}
	}
	m1.FinishLeft()
	m1.FinishRight()

	ctx2, out2 := NewContext(), &collectSink{}
	m2 := NewMergeJoin(ctx2, rSchema, sSchema, []int{0}, []int{0}, out2)
	if err := m2.push(true, ls); err == nil {
		t.Fatal("out-of-order batch push did not error")
	}
	if err := m2.push(false, rs); err != nil {
		t.Fatal(err)
	}
	m2.FinishLeft()
	m2.FinishRight()

	if tupleErrs != 1 {
		t.Fatalf("one-row pushes rejected %d tuples, want 1", tupleErrs)
	}
	if len(out1.rows) != 2 || len(out2.rows) != len(out1.rows) {
		t.Fatalf("outputs: tuple %d, batch %d, want 2 each", len(out1.rows), len(out2.rows))
	}
	for i := range out1.rows {
		if out1.rows[i].String() != out2.rows[i].String() {
			t.Fatalf("output %d differs: %v vs %v", i, out1.rows[i], out2.rows[i])
		}
	}
	if c1, c2 := m1.Counters(), m2.Counters(); *c1 != *c2 {
		t.Fatalf("counters differ: %+v vs %+v", c1, c2)
	}
	if ctx1.Clock.CPU != ctx2.Clock.CPU {
		t.Fatalf("clocks differ: %v vs %v", ctx1.Clock.CPU, ctx2.Clock.CPU)
	}
}

// TestMergeJoinSinks wires batches through LeftSink/RightSink, the path
// plan wiring uses.
func TestMergeJoinSinks(t *testing.T) {
	ls, rs := sortedPair(50, 2)
	out := &collectSink{}
	m := NewMergeJoin(NewContext(), rSchema, sSchema, []int{0}, []int{0}, out)
	m.LeftSink().Push(ls, 0)
	m.RightSink().Push(rs, 0)
	m.FinishLeft()
	m.FinishRight()
	if len(out.rows) != len(ls) {
		t.Fatalf("got %d outputs, want %d", len(out.rows), len(ls))
	}
}

// TestMergeJoinSinkPanicsOnDisorder: the sink adapters have no error
// channel, so a contract violation must fail loudly instead of silently
// dropping rows.
func TestMergeJoinSinkPanicsOnDisorder(t *testing.T) {
	m := NewMergeJoin(NewContext(), rSchema, sSchema, []int{0}, []int{0}, Discard)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order push through the sink did not panic")
		}
	}()
	m.LeftSink().Push([]types.Tuple{rRow(5, 0), rRow(3, 0)}, 0)
}
