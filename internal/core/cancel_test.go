package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// misestimationFixture builds the A⋈B multiplicative / A⋈C selective
// query with misleading advertised cardinalities: the optimizer starts on
// the exploding join and the corrective monitor reliably switches once
// (serial and partitioned), giving a deterministic phase-1 → switch →
// phase-2 → stitch-up lifecycle for event and cancellation tests.
func misestimationFixture(n int) (*algebra.Query, func() *Catalog) {
	q, rels := misestimationData(n)
	return q, func() *Catalog { return catalogOf(rels()...) }
}

// misestimationData is the fixture's query and a constructor of fresh
// copies of its relations, for tests that need their own delivery
// schedule.
func misestimationData(n int) (*algebra.Query, func() []*source.Relation) {
	aRows := make([]types.Tuple, n)
	for i := range aRows {
		aRows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 5))}
	}
	bRows := make([]types.Tuple, 1200)
	for i := range bRows {
		bRows[i] = types.Tuple{types.Int(int64(i % 5))}
	}
	cRows := make([]types.Tuple, n)
	for i := range cRows {
		cRows[i] = types.Tuple{types.Int(int64(i))}
	}
	aS := types.NewSchema(types.Column{Name: "A.k", Kind: types.KindInt}, types.Column{Name: "A.fk", Kind: types.KindInt})
	bS := types.NewSchema(types.Column{Name: "B.k", Kind: types.KindInt})
	cS := types.NewSchema(types.Column{Name: "C.k", Kind: types.KindInt})
	q := &algebra.Query{
		Name: "mis",
		Relations: []algebra.RelRef{
			{Name: "A", Schema: aS}, {Name: "B", Schema: bS}, {Name: "C", Schema: cS},
		},
		Joins: []algebra.JoinPred{
			{LeftRel: "A", LeftCol: "fk", RightRel: "B", RightCol: "k"},
			{LeftRel: "A", LeftCol: "k", RightRel: "C", RightCol: "k"},
		},
		GroupBy: []string{"C.k"},
		Aggs:    []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}},
	}
	rels := func() []*source.Relation {
		return []*source.Relation{
			source.NewRelation("A", aS, aRows),
			source.NewRelation("B", bS, bRows),
			source.NewRelation("C", cS, cRows),
		}
	}
	return q, rels
}

// misOptions is the forced-switching configuration for the fixture.
func misOptions(parts int) Options {
	return Options{Strategy: Corrective, PollEvery: 200, MaxPhases: 4, Partitions: parts}
}

// assertNoGoroutineLeak waits (bounded) for the goroutine count to drop
// back to the baseline captured before the run — a canceled run must join
// every partition worker it started.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamEventOrdering pins the event narrative of a forced corrective
// switch: PhaseStarted(0) → PlanSwitched → PhaseStarted(1) →
// StitchUpStarted, with the closing RowsDelivered watermark matching the
// report, for serial and partitioned runs.
func TestStreamEventOrdering(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			q, cat := misestimationFixture(2000)
			var events []Event
			rep, err := RunStream(context.Background(), cat(), q, misOptions(parts), RunHooks{
				Emit: func(ev Event) { events = append(events, ev) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Switches == 0 {
				t.Fatal("fixture no longer forces a switch; events untestable")
			}
			// Collect the lifecycle order (phase/switch/stitch only).
			var order []string
			phases := 0
			var switched, stitched bool
			for _, ev := range events {
				switch e := ev.(type) {
				case PhaseStarted:
					if e.Phase != phases {
						t.Errorf("PhaseStarted out of order: got phase %d, want %d", e.Phase, phases)
					}
					if e.Partitions != parts {
						t.Errorf("PhaseStarted.Partitions = %d, want %d", e.Partitions, parts)
					}
					phases++
					order = append(order, fmt.Sprintf("phase%d", e.Phase))
				case PlanSwitched:
					switched = true
					if e.From == "" || e.To == "" || e.From == e.To {
						t.Errorf("PlanSwitched plans: %q -> %q", e.From, e.To)
					}
					if !(e.CandidateCost+e.StitchPenalty < e.CurrentRemaining) {
						t.Errorf("switch fired without a cost advantage: cand=%g pen=%g cur=%g",
							e.CandidateCost, e.StitchPenalty, e.CurrentRemaining)
					}
					order = append(order, "switch")
				case StitchUpStarted:
					stitched = true
					if e.Phases != len(rep.Phases) {
						t.Errorf("StitchUpStarted.Phases = %d, want %d", e.Phases, len(rep.Phases))
					}
					order = append(order, "stitch")
				}
			}
			if !switched || !stitched {
				t.Fatalf("lifecycle incomplete: switched=%v stitched=%v (%v)", switched, stitched, order)
			}
			want := []string{"phase0", "switch", "phase1", "stitch"}
			if len(order) != len(want) {
				t.Fatalf("lifecycle order = %v, want %v", order, want)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("lifecycle order = %v, want %v", order, want)
				}
			}
			if phases != len(rep.Phases) {
				t.Errorf("PhaseStarted count %d != report phases %d", phases, len(rep.Phases))
			}
			// The closing watermark reports the full (aggregate) result.
			last, ok := events[len(events)-1].(RowsDelivered)
			if !ok || last.Rows != int64(len(rep.Rows)) {
				t.Errorf("final event %#v, want RowsDelivered with %d rows", events[len(events)-1], len(rep.Rows))
			}
			if parts > 1 {
				sawStats := false
				for _, ev := range events {
					if ps, ok := ev.(PartitionStats); ok {
						sawStats = true
						if len(ps.Seconds) != parts {
							t.Errorf("PartitionStats has %d entries, want %d", len(ps.Seconds), parts)
						}
					}
				}
				if !sawStats {
					t.Error("partitioned run emitted no PartitionStats")
				}
			}
		})
	}
}

// TestCancelDuringPhase cancels mid-phase-1 (from the monitor poll, with
// the pipeline quiesced) and asserts a clean unwind: ctx error returned,
// no goroutines leaked — for the serial and the 4-partition executor.
func TestCancelDuringPhase(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			base := runtime.NumGoroutine()
			q, cat := misestimationFixture(2000)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := misOptions(parts)
			polls := 0
			o.OnPoll = func(cur, cand, pen float64, switched bool) {
				polls++
				if polls == 1 {
					cancel()
				}
			}
			rep, err := RunStream(ctx, cat(), q, o, RunHooks{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rep != nil {
				t.Error("canceled run returned a report")
			}
			if polls == 0 {
				t.Fatal("cancel hook never fired; cancellation untested")
			}
			assertNoGoroutineLeak(t, base)
		})
	}
}

// TestCancelDuringPlanSwitch cancels at the PlanSwitched event — between
// the monitor decision and the next phase — and asserts the next phase
// never starts.
func TestCancelDuringPlanSwitch(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			base := runtime.NumGoroutine()
			q, cat := misestimationFixture(2000)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sawSwitch := false
			phases := 0
			_, err := RunStream(ctx, cat(), q, misOptions(parts), RunHooks{
				Emit: func(ev Event) {
					switch ev.(type) {
					case PlanSwitched:
						sawSwitch = true
						cancel()
					case PhaseStarted:
						phases++
					}
				},
			})
			if !sawSwitch {
				t.Fatal("fixture no longer forces a switch; cancellation untested")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if phases != 1 {
				t.Errorf("phases started after cancel-at-switch: %d, want 1", phases)
			}
			assertNoGoroutineLeak(t, base)
		})
	}
}

// TestCancelDuringStitchUp cancels at the StitchUpStarted event; the
// stitch-up loop must abandon its combination enumeration.
func TestCancelDuringStitchUp(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			base := runtime.NumGoroutine()
			q, cat := misestimationFixture(2000)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sawStitch := false
			_, err := RunStream(ctx, cat(), q, misOptions(parts), RunHooks{
				Emit: func(ev Event) {
					if _, ok := ev.(StitchUpStarted); ok {
						sawStitch = true
						cancel()
					}
				},
			})
			if !sawStitch {
				t.Fatal("fixture never reached stitch-up; cancellation untested")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			assertNoGoroutineLeak(t, base)
		})
	}
}

// TestCancelDuringIndexReuse cancels a corrective SPJ run, its rows lent
// through a window of batches, once a finished phase's index storage has
// gone to the next phase's tables (at the next PhaseStarted), and in the
// middle of the stitch-up whose indexes take the last phase's (at its first
// delivered batch). The run returns the context's error with every
// partition worker joined, every batch the consumer still holds reads as it
// did when it was lent, and every row delivered is a row of the result.
func TestCancelDuringIndexReuse(t *testing.T) {
	q, rels := misestimationData(600)
	spj := *q
	spj.GroupBy, spj.Aggs = nil, nil
	ref, err := Run(catalogOf(rels()...), &spj, Options{Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	result := map[string]int{}
	for _, r := range ref.Rows {
		result[bitRows([]types.Tuple{r})]++
	}
	for _, parts := range []int{1, 4} {
		for _, at := range []string{"switch", "stitch-up"} {
			t.Run(fmt.Sprintf("partitions=%d/%s", parts, at), func(t *testing.T) {
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				const window = 4
				lender := NewRowLender(window)
				var held [][]types.Tuple
				var lent []string
				delivered := map[string]int{}
				canceled, stitching := false, false
				_, err := RunStream(ctx, catalogOf(rels()...), &spj, misOptions(parts), RunHooks{
					Lender: lender,
					OnRows: func(rows []types.Tuple) {
						for _, r := range rows {
							delivered[bitRows([]types.Tuple{r})]++
						}
						if len(held) == window-1 { // give the oldest back, unchanged
							if bitRows(held[0]) != lent[0] {
								t.Error("a held batch changed before it was released")
							}
							held, lent = held[1:], lent[1:]
							lender.Release()
						}
						held, lent = append(held, rows), append(lent, bitRows(rows))
						if at == "stitch-up" && stitching && !canceled {
							canceled = true
							cancel()
						}
					},
					Emit: func(ev Event) {
						switch e := ev.(type) {
						case PhaseStarted:
							if at == "switch" && e.Phase > 0 && !canceled {
								canceled = true
								cancel()
							}
						case StitchUpStarted:
							stitching = true
						}
					},
				})
				if !canceled {
					t.Fatalf("the run never reached its %s; cancellation untested", at)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				for i, rows := range held {
					if bitRows(rows) != lent[i] {
						t.Errorf("held batch %d of %d changed after the run returned", i, len(held))
					}
				}
				for row, n := range delivered {
					if n > result[row] {
						t.Fatalf("row %q delivered %d times, the result holds it %d times", row, n, result[row])
					}
				}
				assertNoGoroutineLeak(t, base)
			})
		}
	}
}

// TestCancelBeforeRun: an already-canceled context aborts before any
// phase executes.
func TestCancelBeforeRun(t *testing.T) {
	q, cat := misestimationFixture(200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	phases := 0
	_, err := RunStream(ctx, cat(), q, misOptions(1), RunHooks{
		Emit: func(ev Event) {
			if _, ok := ev.(PhaseStarted); ok {
				phases++
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if phases != 0 {
		t.Errorf("%d phases started under a dead context", phases)
	}
}

// TestRunStreamHooksDoNotPerturbExecution pins the streaming equivalence
// contract at the core layer: a run with all hooks attached produces
// byte-identical rows, counters, and clocks to a hook-free run.
func TestRunStreamHooksDoNotPerturbExecution(t *testing.T) {
	for _, parts := range []int{1, 4} {
		q, cat := misestimationFixture(1500)
		plain, err := Run(cat(), q, misOptions(parts))
		if err != nil {
			t.Fatal(err)
		}
		var rows []types.Tuple
		hooked, err := RunStream(context.Background(), cat(), q, misOptions(parts), RunHooks{
			Emit:     func(Event) {},
			OnSchema: func(*types.Schema) {},
			// The batch is lent for the duration of the call: keep clones.
			OnRows: func(b []types.Tuple) {
				for _, r := range b {
					rows = append(rows, r.Clone())
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if hooked.Rows != nil {
			t.Errorf("parts=%d: a run with a row hook retained %d rows in its report", parts, len(hooked.Rows))
		}
		if int64(len(plain.Rows)) != hooked.RowCount || plain.RowCount != hooked.RowCount || len(rows) != len(plain.Rows) {
			t.Fatalf("parts=%d rows: plain=%d/%d hooked=%d streamed=%d",
				parts, len(plain.Rows), plain.RowCount, hooked.RowCount, len(rows))
		}
		for i := range plain.Rows {
			if plain.Rows[i].String() != rows[i].String() {
				t.Fatalf("parts=%d row %d differs", parts, i)
			}
		}
		if plain.CPUSeconds != hooked.CPUSeconds {
			t.Errorf("parts=%d CPU clocks differ: %g vs %g", parts, plain.CPUSeconds, hooked.CPUSeconds)
		}
		// The serial virtual clock is exactly reproducible. The parallel
		// makespan is scheduling-dependent run-to-run with or without
		// hooks (see exec.ParallelDriver.FoldClocks), so it only gets a
		// boundedness check.
		if parts == 1 {
			if plain.VirtualSeconds != hooked.VirtualSeconds {
				t.Errorf("virtual clocks differ: %g vs %g", plain.VirtualSeconds, hooked.VirtualSeconds)
			}
		} else if diff := plain.VirtualSeconds - hooked.VirtualSeconds; diff > 0.1*plain.VirtualSeconds || -diff > 0.1*plain.VirtualSeconds {
			t.Errorf("parts=%d virtual clocks diverge: %g vs %g", parts, plain.VirtualSeconds, hooked.VirtualSeconds)
		}
		if plain.Switches != hooked.Switches || plain.StitchCombos != hooked.StitchCombos ||
			plain.Reused != hooked.Reused || plain.Discarded != hooked.Discarded {
			t.Errorf("parts=%d counters differ: %+v vs %+v", parts, plain, hooked)
		}
	}
}
