package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/types"
)

// rowsExact renders a row sequence order-sensitively (byte-identical
// comparison of delivered order, not just the multiset).
func rowsExact(rows []types.Tuple) string {
	var sb strings.Builder
	for _, t := range rows {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// spjFlightsQuery is the flights query as a pure select-project-join.
func spjFlightsQuery() *algebra.Query {
	q := flightsQuery()
	q.GroupBy, q.Aggs = nil, nil
	q.Project = []string{"F.fid", "C.num"}
	return q
}

// TestColumnarRowBatchEquivalence pins the tentpole's core invariant: the
// columnar layout is an execution detail, never a semantic one. Every
// strategy × partition width must produce byte-identical results with
// columnar delivery enabled and disabled — identical row sequences,
// counters, and virtual clocks serially (clock charges accumulate in the
// same float summation order on both layouts), and identical row
// multisets at P=4 (where delivery order is scheduling-dependent by
// contract, columnar or not).
//
// Which legs exercise the switch: the P=4 ones (exchanges and the
// partition merge carry columnar frames) and PlanPartition at P=1 (both
// stages wire Tree.EntryCol). Serial Static and Corrective phases run row
// batches either way — wireLeaf wires Push/PushBatch only, because a hash
// build re-materialises every columnar input row (docs/architecture.md
// has the measured cost) — so those two P=1 legs compare the row path with
// itself and are kept only so the matrix stays complete.
func TestColumnarRowBatchEquivalence(t *testing.T) {
	queries := map[string]*algebra.Query{
		"spj": spjFlightsQuery(),
		"agg": flightsQuery(),
	}
	run := func(q *algebra.Query, strat Strategy, parts int, rowBatchOnly bool) *Report {
		f, tr, c := flightsData(80, 200, 150, 11)
		disableColumnar = rowBatchOnly
		defer func() { disableColumnar = false }()
		rep, err := Run(catalogOf(f, tr, c), q, Options{
			Strategy: strat, PollEvery: 30, SwitchFactor: 0.99, MaxPhases: 4,
			Partitions: parts,
		})
		if err != nil {
			t.Fatalf("%v P=%d rowBatchOnly=%v: %v", strat, parts, rowBatchOnly, err)
		}
		return rep
	}
	for qname, q := range queries {
		for _, strat := range []Strategy{Static, Corrective, PlanPartition} {
			for _, parts := range []int{1, 4} {
				name := fmt.Sprintf("%s/%v/P=%d", qname, strat, parts)
				base := run(q, strat, parts, true)
				col := run(q, strat, parts, false)
				if len(col.Rows) != len(base.Rows) {
					t.Errorf("%s: columnar rows = %d, row-batch %d", name, len(col.Rows), len(base.Rows))
					continue
				}
				if parts == 1 {
					if got, want := rowsExact(col.Rows), rowsExact(base.Rows); got != want {
						t.Errorf("%s: columnar row sequence diverges from row-batch baseline", name)
					}
					if col.VirtualSeconds != base.VirtualSeconds {
						t.Errorf("%s: columnar clock = %.12f, row-batch %.12f", name, col.VirtualSeconds, base.VirtualSeconds)
					}
					if len(col.Phases) != len(base.Phases) || col.Switches != base.Switches {
						t.Errorf("%s: columnar phases/switches = %d/%d, row-batch %d/%d",
							name, len(col.Phases), col.Switches, len(base.Phases), base.Switches)
					}
				} else {
					cs, bs := sortedStrings(col.Rows), sortedStrings(base.Rows)
					for i := range cs {
						if cs[i] != bs[i] {
							t.Errorf("%s: columnar multiset diverges at %d: %s vs %s", name, i, cs[i], bs[i])
							break
						}
					}
				}
			}
		}
	}
}

// TestOrderReleasingMergeStreamsEarly pins the PR 9 merge protocol: at
// P=4 an SPJ run delivers its first result rows strictly before the
// phase completes (the old phase-end barrier held everything until
// PartitionStats), every row reaches the hook exactly once (the report of
// a streamed run carries the count, not a second copy), and the delivered
// multiset is byte-identical to the serial baseline's. That early
// releases are prefixes of the merge's total order is pinned where it is
// deterministic: exec's TestPartitionMergeEarlyReleaseKeepsTotalOrder.
func TestOrderReleasingMergeStreamsEarly(t *testing.T) {
	q := spjFlightsQuery()

	// Serial baseline.
	f, tr, c := flightsData(80, 200, 150, 11)
	serial, err := Run(catalogOf(f, tr, c), q, Options{Strategy: Static, PollEvery: 30})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu              sync.Mutex
		streamed        []types.Tuple
		rowsBeforePhase int
		phaseDone       bool
	)
	hooks := RunHooks{
		OnRows: func(rows []types.Tuple) {
			mu.Lock()
			for _, r := range rows { // lent for the call: keep clones
				streamed = append(streamed, r.Clone())
			}
			if !phaseDone {
				rowsBeforePhase += len(rows)
			}
			mu.Unlock()
		},
		Emit: func(ev Event) {
			if _, ok := ev.(PartitionStats); ok {
				mu.Lock()
				phaseDone = true
				mu.Unlock()
			}
		},
	}
	f, tr, c = flightsData(80, 200, 150, 11)
	rep, err := RunStream(context.Background(), catalogOf(f, tr, c), q, Options{
		Strategy: Static, PollEvery: 30, Partitions: 4,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if !phaseDone {
		t.Fatal("run emitted no PartitionStats (did it execute serially?)")
	}
	if rep.Partitions != 4 {
		t.Fatalf("run executed at P=%d, want 4", rep.Partitions)
	}
	if rowsBeforePhase == 0 {
		t.Error("no rows released before phase completion: the order-releasing merge never streamed")
	}
	if rep.Rows != nil || rep.RowCount != int64(len(streamed)) {
		t.Errorf("report retains %d rows and counts %d, want none retained and %d counted", len(rep.Rows), rep.RowCount, len(streamed))
	}
	ss, ps := sortedStrings(serial.Rows), sortedStrings(streamed)
	if len(ss) != len(ps) {
		t.Fatalf("P=4 rows = %d, serial %d", len(ps), len(ss))
	}
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("P=4 multiset diverges from serial at %d: %s vs %s", i, ps[i], ss[i])
		}
	}
	t.Logf("released %d/%d rows before phase completion", rowsBeforePhase, rep.RowCount)
}
