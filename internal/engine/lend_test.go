package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// producerParked waits until the run can make no further delivery without
// the cursor giving a batch back — the whole window is lent: one batch in
// the consumer's hands, the rest queued — or the run has ended.
func producerParked(s *Stream) {
	for len(s.rowsCh) < streamRowBuffer-1 {
		select {
		case <-s.done:
			return
		default:
			runtime.Gosched()
		}
	}
}

func cloneRows(rows []types.Tuple) []types.Tuple {
	out := make([]types.Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

func sameRows(a, b []types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// TestLentBatchStableWhileHeld is the lending contract under the race
// detector: a consumer that holds a lent batch while the run goes on — as
// far as it can, until every other batch of the window is out too — reads
// it unmodified, and every row still arrives exactly once, in Execute's
// order. A lender that handed a held batch out again would show up both as
// a data race and as a changed row.
func TestLentBatchStableWhileHeld(t *testing.T) {
	e, q := spjEngine(40000, nil)
	ref, err := e.Execute(q, core.Options{Strategy: core.Static, PollEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Stream(context.Background(), q, WithStrategy(core.Static), WithPollEvery(512))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got []types.Tuple
	for held := 0; ; held++ {
		batch, ok := s.NextBatch()
		if !ok {
			break
		}
		if len(batch) == 0 {
			t.Fatal("empty batch delivered")
		}
		snapshot := cloneRows(batch)
		if held < 24 { // past one full turn of the 16-batch window
			producerParked(s)
		}
		if !sameRows(batch, snapshot) {
			t.Fatalf("batch %d changed while the cursor held it", held)
		}
		got = append(got, snapshot...)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !sameRows(got, ref.Rows) {
		t.Fatalf("lent batches delivered %d rows that differ from Execute's %d", len(got), len(ref.Rows))
	}
}

// TestCloseWithLentBatchesOutstanding: closing (or canceling) a stream
// while the cursor holds a batch and the rest of the window is queued
// leaks no goroutine, serial or partitioned — and the held batch is still
// intact afterwards: Close releases nothing, so the canceled run never
// writes into it.
func TestCloseWithLentBatchesOutstanding(t *testing.T) {
	for _, parts := range []int{1, 4} {
		for _, how := range []string{"close", "cancel"} {
			t.Run(fmt.Sprintf("partitions=%d/%s", parts, how), func(t *testing.T) {
				base := runtime.NumGoroutine()
				e, q := spjEngine(40000, nil)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				s, err := e.Stream(ctx, q, WithStrategy(core.Static), WithPollEvery(512), WithPartitions(parts))
				if err != nil {
					t.Fatal(err)
				}
				batch, ok := s.NextBatch()
				if !ok {
					t.Fatalf("no first batch: %v", s.Err())
				}
				snapshot := cloneRows(batch)
				producerParked(s)
				if how == "cancel" {
					cancel()
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if !sameRows(batch, snapshot) {
					t.Error("held batch changed across Close")
				}
				waitForGoroutines(t, base)
			})
		}
	}
}

// switchingEngine is core's misestimation fixture as an SPJ over
// equal-bandwidth links: the optimizer starts on the multiplicative join
// A⋈B, the corrective monitor switches, and the stitch-up contributes
// about half of the 240·n result rows — every kind of root sink a run has
// (phase, post-switch phase, stitch-up) writes into the lent batches.
func switchingEngine(n int) (*Engine, *algebra.Query) {
	aS := types.NewSchema(types.Column{Name: "A.k", Kind: types.KindInt}, types.Column{Name: "A.fk", Kind: types.KindInt})
	bS := types.NewSchema(types.Column{Name: "B.k", Kind: types.KindInt})
	cS := types.NewSchema(types.Column{Name: "C.k", Kind: types.KindInt})
	aRows := make([]types.Tuple, n)
	cRows := make([]types.Tuple, n)
	for i := range aRows {
		aRows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 5))}
		cRows[i] = types.Tuple{types.Int(int64(i))}
	}
	bRows := make([]types.Tuple, 1200)
	for i := range bRows {
		bRows[i] = types.Tuple{types.Int(int64(i % 5))}
	}
	e := New()
	for _, rel := range []*source.Relation{
		source.NewRelation("A", aS, aRows), source.NewRelation("B", bS, bRows), source.NewRelation("C", cS, cRows),
	} {
		e.RegisterRemote(rel, source.Bandwidth{TuplesPerSec: 1e5})
	}
	q := &algebra.Query{
		Name: "mis",
		Relations: []algebra.RelRef{
			{Name: "A", Schema: aS}, {Name: "B", Schema: bS}, {Name: "C", Schema: cS},
		},
		Joins: []algebra.JoinPred{
			{LeftRel: "A", LeftCol: "fk", RightRel: "B", RightCol: "k"},
			{LeftRel: "A", LeftCol: "k", RightRel: "C", RightCol: "k"},
		},
		Project: []string{"C.k", "A.fk"},
	}
	return e, q
}

// TestStreamedRowsEqualExecute: for every strategy at P ∈ {1, 4}, what the
// cursor delivers on lent batches is Execute's Report.Rows byte for byte —
// the same sequence serially, the same multiset partitioned (where
// delivery order is scheduling-dependent by contract) — with the streamed
// report counting the rows and retaining none. The corrective legs switch
// plans and stitch up.
func TestStreamedRowsEqualExecute(t *testing.T) {
	render := func(rows []types.Tuple, sorted bool) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		if sorted {
			sort.Strings(out)
		}
		return out
	}
	for _, strat := range []core.Strategy{core.Static, core.Corrective, core.PlanPartition} {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/partitions=%d", strat, parts), func(t *testing.T) {
				e, q := switchingEngine(300)
				o := core.Options{Strategy: strat, PollEvery: 200, MaxPhases: 4, Partitions: parts, MaterializeAfterJoins: 1}
				ref, err := e.Execute(q, o)
				if err != nil {
					t.Fatal(err)
				}
				if len(ref.Rows) != 300*240 {
					t.Fatalf("Execute returned %d rows, want %d", len(ref.Rows), 300*240)
				}
				if strat == core.Corrective && parts == 1 && ref.StitchCombos == 0 {
					t.Fatal("fixture no longer switches; the stitch-up's root sink is untested")
				}
				s, err := e.Stream(context.Background(), q, WithOptions(o))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				rows, rep, err := readAll(s)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Rows != nil || rep.RowCount != int64(len(ref.Rows)) || ref.RowCount != rep.RowCount {
					t.Fatalf("streamed report retains %d rows and counts %d; Execute counts %d of %d",
						len(rep.Rows), rep.RowCount, ref.RowCount, len(ref.Rows))
				}
				got, want := render(rows, parts > 1), render(ref.Rows, parts > 1)
				if len(got) != len(want) {
					t.Fatalf("streamed %d rows, Execute %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("row %d: streamed %s, Execute %s", i, got[i], want[i])
					}
				}
				if parts == 1 && (rep.VirtualSeconds != ref.VirtualSeconds || rep.Reused != ref.Reused ||
					rep.Discarded != ref.Discarded || rep.StitchCombos != ref.StitchCombos) {
					t.Errorf("streamed report %+v diverges from Execute's %+v", rep, ref)
				}
			})
		}
	}
}
