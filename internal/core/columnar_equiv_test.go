package core

import (
	"context"
	"sync"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/types"
)

// spjFlightsQuery is the flights query as a pure select-project-join.
func spjFlightsQuery() *algebra.Query {
	q := flightsQuery()
	q.GroupBy, q.Aggs = nil, nil
	q.Project = []string{"F.fid", "C.num"}
	return q
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
