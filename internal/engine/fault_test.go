package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// sortedRowStrings canonicalizes result rows for multiset comparison
// (fault penalties perturb delivery interleaving, not the result).
func sortedRowStrings(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// readAll reads the cursor to the end, then takes the report: a streamed
// result is not retained, so a test that wants the rows and the report
// (or the event log) of one run reads them off the cursor.
func readAll(s *Stream) ([]types.Tuple, *core.Report, error) {
	var rows []types.Tuple
	for {
		t, ok := s.Next()
		if !ok {
			break
		}
		rows = append(rows, t)
	}
	rep, err := s.Report()
	return rows, rep, err
}

// TestEngineRecoveredFaultsMatchFaultFree runs the full public surface:
// InjectFaults + WithSourcePolicy on a chain join, pinning the recovered
// run to the fault-free rows and checking the report's fault counters.
func TestEngineRecoveredFaultsMatchFaultFree(t *testing.T) {
	e, q := chainEngine(2000)
	base, err := e.Execute(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.InjectFaults("R1", source.RandomFaults(2000, 5, 3.0, 11))
	e.InjectFaults("R3", source.NewFaultSchedule(
		source.Fault{At: 100, Kind: source.FaultTransient, Times: 2}))
	s, err := e.Stream(context.Background(), q,
		WithSourcePolicy("R1", source.RetryPolicy{MaxAttempts: 4, Backoff: 0.5}),
		WithSourcePolicy("R3", source.RetryPolicy{MaxAttempts: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows, rep, err := readAll(s)
	if err != nil {
		t.Fatalf("recovered run failed: %v", err)
	}
	got, want := sortedRowStrings(rows), sortedRowStrings(base.Rows)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, fault-free %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	if len(rep.SourceFaults) != 2 {
		t.Fatalf("SourceFaults = %+v, want entries for R1 and R3", rep.SourceFaults)
	}
	if st := rep.SourceFaults["R3"]; st.Transients != 1 || st.Retries != 2 {
		t.Errorf("SourceFaults[R3] = %+v", st)
	}
	// The recovery narrative must be in the event log.
	retried := 0
	for ev := range s.Events() {
		if _, ok := ev.(core.SourceRetried); ok {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no SourceRetried events in the stream log")
	}
}

// TestEngineFailFastReturnsTypedError: the default policy fails the
// query with a *source.SourceError, surfaced through both Execute and
// the cursor's Err.
func TestEngineFailFastReturnsTypedError(t *testing.T) {
	e, q := chainEngine(1500)
	e.InjectFaults("R2", source.NewFaultSchedule(
		source.Fault{At: 700, Kind: source.FaultPermanent}))
	_, err := e.Execute(q, core.Options{})
	var se *source.SourceError
	if !errors.As(err, &se) || se.Source != "R2" || se.Tuple != 700 {
		t.Fatalf("Execute err = %v, want *source.SourceError at R2/700", err)
	}

	// Cursor path: Next drains to ok=false, then Err is the same error.
	s, err := e.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if serr := s.Err(); !errors.As(serr, &se) {
		t.Fatalf("Stream.Err = %v, want *source.SourceError", serr)
	}
	// An abandonment event must have narrated the failure.
	abandoned := false
	for ev := range s.Events() {
		if sa, ok := ev.(core.SourceAbandoned); ok {
			abandoned = true
			if sa.Partial {
				t.Error("fail-fast abandonment marked partial")
			}
		}
	}
	if !abandoned {
		t.Error("no SourceAbandoned event")
	}
}

// TestEnginePartialResultsPrefix: with WithPartialResults a dead source
// degrades to the delivered prefix. The 1:1 chain makes the expectation
// exact: R2 dead at tuple k leaves precisely the k groups whose keys its
// prefix delivered.
func TestEnginePartialResultsPrefix(t *testing.T) {
	const n, dieAt = 1500, 600
	e, q := chainEngine(n)
	e.InjectFaults("R2", source.NewFaultSchedule(
		source.Fault{At: dieAt, Kind: source.FaultPermanent}))
	s, err := e.Stream(context.Background(), q, WithPartialResults(true))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows, rep, err := readAll(s)
	if err != nil {
		t.Fatalf("partial run failed: %v", err)
	}
	if !rep.Partial {
		t.Error("report not marked partial")
	}
	if len(rows) != dieAt || rep.RowCount != dieAt {
		t.Fatalf("partial result has %d groups (report counts %d), want the %d-tuple prefix", len(rows), rep.RowCount, dieAt)
	}
	if st := rep.SourceFaults["R2"]; !st.Abandoned {
		t.Errorf("SourceFaults[R2] = %+v", st)
	}
	partial := false
	for ev := range s.Events() {
		if sa, ok := ev.(core.SourceAbandoned); ok && sa.Partial {
			partial = true
		}
	}
	if !partial {
		t.Error("no partial SourceAbandoned event")
	}
}

// TestEngineMirrorFailover: a mirror configured through WithSourcePolicy
// absorbs a permanent death; rows match the fault-free run exactly.
func TestEngineMirrorFailover(t *testing.T) {
	e, q := chainEngine(1500)
	base, err := e.Execute(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mirror, _ := e.Relation("R1")
	e.InjectFaults("R1", source.NewFaultSchedule(
		source.Fault{At: 800, Kind: source.FaultPermanent}))
	s, err := e.Stream(context.Background(), q,
		WithSourcePolicy("R1", source.RetryPolicy{Mirror: mirror, FailoverDelay: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rows, rep, err := readAll(s)
	if err != nil {
		t.Fatalf("failover run failed: %v", err)
	}
	if !rep.SourceFaults["R1"].FailedOver {
		t.Fatalf("SourceFaults[R1] = %+v", rep.SourceFaults["R1"])
	}
	got, want := sortedRowStrings(rows), sortedRowStrings(base.Rows)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, fault-free %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs after failover", i)
		}
	}
	failedOver := false
	for ev := range s.Events() {
		if _, ok := ev.(core.SourceFailedOver); ok {
			failedOver = true
		}
	}
	if !failedOver {
		t.Error("no SourceFailedOver event")
	}
}

// TestStreamCloseConcurrentWithStalledSource is the Close-robustness
// regression: Close must be idempotent and safe to call concurrently
// from several goroutines while the run is mid-read on a stalled,
// retrying source — no deadlock, no goroutine leak, and the terminal
// error is cancellation (or clean completion), never corruption.
func TestStreamCloseConcurrentWithStalledSource(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			gbase := runtime.NumGoroutine()
			e, q := chainEngine(3000)
			e.InjectFaults("R1", source.RandomFaults(3000, 20, 10.0, 5))
			s, err := e.Stream(context.Background(), q,
				WithPartitions(parts),
				WithSourcePolicy("R1", source.RetryPolicy{MaxAttempts: 4, Backoff: 1}))
			if err != nil {
				t.Fatal(err)
			}
			// Subscribe before closing so teardown of a live subscription
			// is exercised too.
			_ = s.Events()
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if cerr := s.Close(); cerr != nil {
						t.Errorf("Close returned %v", cerr)
					}
				}()
			}
			wg.Wait()
			// Idempotent: closing an already-closed stream is a no-op.
			if cerr := s.Close(); cerr != nil {
				t.Errorf("second Close returned %v", cerr)
			}
			if serr := s.Err(); serr != nil && !errors.Is(serr, context.Canceled) {
				t.Errorf("Err = %v, want nil or context.Canceled", serr)
			}
			// Events after Close still replays the (possibly truncated) log.
			for range s.Events() {
			}
			waitForGoroutines(t, gbase)
		})
	}
}

// TestStreamCancelDuringFaultRecovery: canceling the stream context
// while sources are stalling and retrying unwinds cleanly — the error is
// context.Canceled or the run just finished; never a stuck goroutine
// (the -race chaos leg hammers this).
func TestStreamCancelDuringFaultRecovery(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			gbase := runtime.NumGoroutine()
			e, q := chainEngine(3000)
			e.InjectFaults("R0", source.RandomFaults(3000, 15, 5.0, 9))
			ctx, cancel := context.WithCancel(context.Background())
			s, err := e.Stream(ctx, q, WithPartitions(parts),
				WithSourcePolicy("R0", source.RetryPolicy{MaxAttempts: 4, Backoff: 0.5}))
			if err != nil {
				t.Fatal(err)
			}
			// Cancel as soon as the first fault-recovery event lands: the
			// run is then provably mid-recovery.
			go func() {
				for ev := range s.Events() {
					switch ev.(type) {
					case core.SourceStalled, core.SourceRetried:
						cancel()
						return
					}
				}
			}()
			rep, rerr := s.Report()
			if rerr != nil && !errors.Is(rerr, context.Canceled) {
				t.Fatalf("Report err = %v, want nil or context.Canceled", rerr)
			}
			var se *source.SourceError
			if errors.As(rerr, &se) {
				t.Fatalf("source error surfaced instead of cancellation: %v", rerr)
			}
			if rerr == nil && rep == nil {
				t.Fatal("clean completion without a report")
			}
			s.Close()
			cancel()
			waitForGoroutines(t, gbase)
		})
	}
}
