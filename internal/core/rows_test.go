package core

import (
	"context"
	"runtime"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// TestLentBatchesBoundStreamMemory streams 120 000 rows through a 16-batch
// lender and pins the two bounds lending exists for: the stream allocates
// at most one slab per batch of the window, however many batches it
// delivers, and the live heap after the first turns of the window is the
// live heap near the end of the result. The fixture is the misestimation
// data as a static SPJ with exact cardinalities: the optimizer joins A
// with C first, so the root join fans each of n rows out 240-fold over a
// few thousand rows of join state — what the run holds on to is then the
// output path's doing, not the hash tables'.
func TestLentBatchesBoundStreamMemory(t *testing.T) {
	const n, window = 500, 16
	q, cat := misestimationFixture(n)
	q.GroupBy, q.Aggs = nil, nil
	q.Project = []string{"C.k", "A.fk"}
	o := Options{Strategy: Static, Known: map[string]float64{"A": n, "B": 1200, "C": n}}

	lender := NewRowLender(window)
	batches := make(chan []types.Tuple, window) // a lent batch is never a blocked send
	type reading struct {
		rows int
		heap uint64
	}
	readings := make(chan reading, 2)
	consumed := make(chan int)
	go func() {
		rows := 0
		heapAt := func() uint64 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		marks := []int{2 * window * lentBatchRows, 110_000}
		for batch := range batches {
			rows += len(batch)
			if len(marks) > 0 && rows >= marks[0] {
				readings <- reading{rows, heapAt()}
				marks = marks[1:]
			}
			lender.Release()
		}
		consumed <- rows
	}()
	rep, err := RunStream(context.Background(), cat(), q, o, RunHooks{
		OnRows: func(rows []types.Tuple) { batches <- rows },
		Lender: lender,
	})
	close(batches)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-consumed; got != 240*n || rep.RowCount != 240*n {
		t.Fatalf("consumer read %d rows, report counts %d, want %d", got, rep.RowCount, 240*n)
	}
	if lender.slabs > window {
		t.Errorf("stream allocated %d slabs for a %d-batch window", lender.slabs, window)
	}
	early, late := <-readings, <-readings
	t.Logf("%d slabs; live heap %d B at row %d, %d B at row %d (plan %s)",
		lender.slabs, early.heap, early.rows, late.heap, late.rows, rep.Phases[0].Plan)
	// One slab is lentBatchRows rows of two 40-byte values: a stream that
	// retained its rows would have grown by ~6 MB between the readings.
	if late.heap > early.heap+1<<20 {
		t.Errorf("live heap grew from %d B at row %d to %d B at row %d", early.heap, early.rows, late.heap, late.rows)
	}
}

// TestPhaseStateKeptOnlyForAReader: a phase captures its base partitions
// and join intermediates only when something can read them afterwards — a
// stitch-up (corrective) or a maintenance stage (standing). A static
// one-shot run, and either plan-partitioning stage, keeps neither.
func TestPhaseStateKeptOnlyForAReader(t *testing.T) {
	cases := []struct {
		name           string
		strat          Strategy
		standing       bool
		base, intermed bool
	}{
		{"static", Static, false, false, false},
		{"plan-partitioning", PlanPartition, false, false, false},
		{"static standing", Static, true, true, false},
		{"corrective", Corrective, false, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, cat := misestimationFixture(300)
			ex, finish, err := prepareRun(context.Background(), cat(), q, Options{Strategy: c.strat, PollEvery: 200}, RunHooks{})
			if err != nil {
				t.Fatal(err)
			}
			ex.standing = c.standing
			if err := ex.execute(); err != nil {
				t.Fatal(err)
			}
			if _, err := finish(); err != nil {
				t.Fatal(err)
			}
			if len(ex.phases) == 0 {
				t.Fatal("run recorded no phase")
			}
			rec := ex.phases[0]
			if got := len(rec.BaseParts) > 0; got != c.base {
				t.Errorf("base partitions captured = %v, want %v", got, c.base)
			}
			if got := len(rec.Interm) > 0; got != c.intermed {
				t.Errorf("join intermediates captured = %v, want %v", got, c.intermed)
			}
		})
	}
}
