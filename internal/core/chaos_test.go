package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"github.com/tukwila/adp/internal/source"
)

// injectFaults wraps one catalog provider with a fault-injecting wrapper
// and returns it for stats inspection.
func injectFaults(cat *Catalog, rel string, fs *source.FaultSchedule, policy source.RetryPolicy) *source.Faulty {
	fp := source.NewFaulty(cat.Providers[rel], fs, policy)
	cat.Providers[rel] = fp
	return fp
}

// sortedRows renders a report's rows canonically sorted. Fault penalties
// perturb arrival interleaving, so recovered-fault runs are pinned to the
// fault-free result as a multiset, not as a sequence.
func sortedRows(rep *Report) []string {
	out := make([]string, len(rep.Rows))
	for i, r := range rep.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// chaosStrategies enumerates the full chaos matrix.
var chaosStrategies = []Strategy{Static, Corrective, PlanPartition}

// chaosOptions builds one matrix cell's options. PlanPartition gets a
// breakpoint after the first join so both stages genuinely execute.
func chaosOptions(strat Strategy, parts int) Options {
	o := Options{Strategy: strat, PollEvery: 100, Partitions: parts}
	if strat == PlanPartition {
		o.MaterializeAfterJoins = 1
	}
	return o
}

// TestChaosRecoveredFaultsMatchFaultFree is the headline equivalence pin:
// for every strategy × partition width × seed, a run whose injected
// faults are all recovered (transients within the retry budget, stalls)
// produces exactly the fault-free result — same row multiset, full
// source consumption — with the recovery visible only in the report's
// SourceFaults counters and the virtual clock.
func TestChaosRecoveredFaultsMatchFaultFree(t *testing.T) {
	for _, strat := range chaosStrategies {
		for _, parts := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/partitions=%d/seed=%d", strat, parts, seed), func(t *testing.T) {
					f, tr, c := flightsData(120, 350, 250, seed)
					q := flightsQuery()
					o := chaosOptions(strat, parts)

					base, err := Run(catalogOf(f, tr, c), q, o)
					if err != nil {
						t.Fatal(err)
					}

					cat := catalogOf(f, tr, c)
					// RandomFaults draws transients of 1–2 attempts; a
					// 4-attempt budget guarantees every fault is recoverable.
					policy := source.RetryPolicy{MaxAttempts: 4, Backoff: 0.5, BackoffFactor: 2}
					fp := injectFaults(cat, "T", source.RandomFaults(350, 6, 4.0, seed*31), policy)
					injectFaults(cat, "F", source.RandomFaults(120, 3, 2.0, seed*57), policy)
					rep, err := Run(cat, q, o)
					if err != nil {
						t.Fatalf("recovered-fault run failed: %v", err)
					}

					got, want := sortedRows(rep), sortedRows(base)
					if len(got) != len(want) {
						t.Fatalf("rows = %d, fault-free %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("row %d differs:\n got %s\nwant %s", i, got[i], want[i])
						}
					}
					if rep.Partial {
						t.Error("recovered run marked partial")
					}
					st, ok := rep.SourceFaults["T"]
					if !ok || (st.Transients == 0 && st.Stalls == 0) {
						t.Fatalf("SourceFaults[T] = %+v; faults not recorded", st)
					}
					if st.Abandoned || st.FailedOver {
						t.Fatalf("recoverable schedule escalated: %+v", st)
					}
					if fp.Consumed() != 350 || !fp.Exhausted() {
						t.Fatalf("T not fully consumed: %d", fp.Consumed())
					}

					// Clock bounds hold for the non-switching serial regime:
					// injected delay can only push completion later, and never
					// by more than the total injected penalty; the work done is
					// the same to the nanosecond.
					if strat == Static && parts == 1 {
						injected := 0.0
						for _, s := range rep.SourceFaults {
							injected += s.StallSeconds + s.BackoffSeconds
						}
						if rep.VirtualSeconds < base.VirtualSeconds {
							t.Errorf("fault run finished early: %g < %g", rep.VirtualSeconds, base.VirtualSeconds)
						}
						if rep.VirtualSeconds > base.VirtualSeconds+injected {
							t.Errorf("fault run exceeded injected budget: %g > %g + %g",
								rep.VirtualSeconds, base.VirtualSeconds, injected)
						}
						if rep.CPUSeconds != base.CPUSeconds {
							t.Errorf("CPU differs: %g vs %g", rep.CPUSeconds, base.CPUSeconds)
						}
					}
				})
			}
		}
	}
}

// TestChaosDeterministicReplay pins reproducibility: the same fault
// schedule, policy, and options replay to byte-identical rows, clocks,
// and counters.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() *Report {
		f, tr, c := flightsData(120, 350, 250, 2)
		cat := catalogOf(f, tr, c)
		injectFaults(cat, "T", source.RandomFaults(350, 6, 4.0, 99),
			source.RetryPolicy{MaxAttempts: 4, Backoff: 0.5})
		rep, err := Run(cat, flightsQuery(), Options{Strategy: Corrective, PollEvery: 100})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i].String() != b.Rows[i].String() {
			t.Fatalf("row %d differs across replays", i)
		}
	}
	if a.VirtualSeconds != b.VirtualSeconds || a.CPUSeconds != b.CPUSeconds {
		t.Errorf("clocks differ: %g/%g vs %g/%g", a.VirtualSeconds, a.CPUSeconds, b.VirtualSeconds, b.CPUSeconds)
	}
	if a.SourceFaults["T"] != b.SourceFaults["T"] {
		t.Errorf("fault counters differ: %+v vs %+v", a.SourceFaults["T"], b.SourceFaults["T"])
	}
	if a.Switches != b.Switches {
		t.Errorf("switch counts differ: %d vs %d", a.Switches, b.Switches)
	}
}

// TestChaosFailFastSourceError: a permanently dead source without a
// mirror aborts the run promptly under the default fail-fast policy with
// a typed *source.SourceError, for every strategy and partition width,
// leak-free.
func TestChaosFailFastSourceError(t *testing.T) {
	for _, strat := range chaosStrategies {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/partitions=%d", strat, parts), func(t *testing.T) {
				base := runtime.NumGoroutine()
				f, tr, c := flightsData(120, 350, 250, 1)
				cat := catalogOf(f, tr, c)
				injectFaults(cat, "T", source.NewFaultSchedule(
					permFault(40)), source.RetryPolicy{})
				rep, err := Run(cat, flightsQuery(), chaosOptions(strat, parts))
				var se *source.SourceError
				if !errors.As(err, &se) {
					t.Fatalf("err = %v, want *source.SourceError", err)
				}
				if se.Source != "T" || se.Tuple != 40 {
					t.Fatalf("SourceError = %+v", se)
				}
				if rep != nil {
					t.Error("failed run returned a report")
				}
				assertNoGoroutineLeak(t, base)
			})
		}
	}
}

// permFault abbreviates a permanent-death schedule entry.
func permFault(at int) source.Fault {
	return source.Fault{At: at, Kind: source.FaultPermanent}
}

// TestChaosPartialResultsDegrade: with PartialResults enabled a dead
// source degrades gracefully — the run completes over the delivered
// prefix and the report says so. The result is pinned against a
// brute-force reference over the truncated relation.
func TestChaosPartialResultsDegrade(t *testing.T) {
	const dieAt = 50
	for _, strat := range chaosStrategies {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/partitions=%d", strat, parts), func(t *testing.T) {
				f, tr, c := flightsData(120, 350, 250, 3)
				cat := catalogOf(f, tr, c)
				injectFaults(cat, "C", source.NewFaultSchedule(
					permFault(dieAt)), source.RetryPolicy{})
				o := chaosOptions(strat, parts)
				o.PartialResults = true
				rep, err := Run(cat, flightsQuery(), o)
				if err != nil {
					t.Fatalf("partial run failed: %v", err)
				}
				if !rep.Partial {
					t.Error("report not marked partial")
				}
				st := rep.SourceFaults["C"]
				if !st.Abandoned {
					t.Fatalf("SourceFaults[C] = %+v", st)
				}
				// Providers deliver rows in order, so the dead source
				// contributed exactly its dieAt-tuple prefix.
				cPrefix := source.NewRelation("C", cSchema(), c.Rows[:dieAt])
				checkFlightsResult(t, rep, refFlights(f, tr, cPrefix))
			})
		}
	}
}

// TestChaosMirrorFailoverMatchesFaultFree: a dead source with a mirror
// recovers transparently — the result is exactly the fault-free one and
// the failover is narrated and counted.
func TestChaosMirrorFailoverMatchesFaultFree(t *testing.T) {
	for _, strat := range chaosStrategies {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/partitions=%d", strat, parts), func(t *testing.T) {
				f, tr, c := flightsData(120, 350, 250, 4)
				q := flightsQuery()
				o := chaosOptions(strat, parts)
				base, err := Run(catalogOf(f, tr, c), q, o)
				if err != nil {
					t.Fatal(err)
				}
				cat := catalogOf(f, tr, c)
				injectFaults(cat, "T", source.NewFaultSchedule(
					permFault(60)), source.RetryPolicy{
					Mirror: tr, FailoverDelay: 3,
				})
				var failedOver bool
				rep, err := RunStream(context.Background(), cat, q, o, RunHooks{
					Emit: func(ev Event) {
						if fo, ok := ev.(SourceFailedOver); ok {
							failedOver = true
							if fo.Source != "T" || fo.Tuple != 60 {
								t.Errorf("SourceFailedOver = %+v", fo)
							}
						}
					},
				})
				if err != nil {
					t.Fatalf("failover run failed: %v", err)
				}
				if !failedOver {
					t.Error("no SourceFailedOver event")
				}
				if !rep.SourceFaults["T"].FailedOver {
					t.Errorf("SourceFaults[T] = %+v", rep.SourceFaults["T"])
				}
				if rep.Partial {
					t.Error("failover run marked partial")
				}
				got, want := sortedRows(rep), sortedRows(base)
				if len(got) != len(want) {
					t.Fatalf("rows = %d, fault-free %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("row %d differs after failover", i)
					}
				}
			})
		}
	}
}

// TestChaosStallWaivesMonitorCooldown: a stalled source is a
// cost-estimate violation in its own right — the corrective monitor
// evaluates a switch decision even before the steady-state cooldown
// (3 × PollEvery delivered tuples) that gates fault-free polling.
func TestChaosStallWaivesMonitorCooldown(t *testing.T) {
	// 720 total tuples with PollEvery 300: a fault-free run never clears
	// the 900-tuple cooldown, so the monitor never evaluates a switch.
	run := func(stall bool) int {
		f, tr, c := flightsData(120, 350, 250, 5)
		cat := catalogOf(f, tr, c)
		if stall {
			injectFaults(cat, "T", source.NewFaultSchedule(
				source.Fault{At: 10, Kind: source.FaultStall, Stall: 50}), source.RetryPolicy{})
		}
		polls := 0
		o := Options{Strategy: Corrective, PollEvery: 300, OnPoll: func(cur, cand, pen float64, switched bool) {
			polls++
		}}
		if _, err := Run(cat, flightsQuery(), o); err != nil {
			t.Fatal(err)
		}
		return polls
	}
	if got := run(false); got != 0 {
		t.Fatalf("fault-free run evaluated %d switch decisions inside the cooldown", got)
	}
	if got := run(true); got == 0 {
		t.Fatal("stalled run never evaluated a switch decision; cooldown not waived")
	}
}

// TestChaosCancelOutranksSourceFault (serial and partitioned): when a
// cancellation races a source abandonment, the run reports
// context.Canceled — never the source error — and leaks nothing. The
// cancel fires synchronously from the SourceAbandoned event, the
// tightest race the architecture allows.
func TestChaosCancelOutranksSourceFault(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			base := runtime.NumGoroutine()
			f, tr, c := flightsData(120, 350, 250, 6)
			cat := catalogOf(f, tr, c)
			injectFaults(cat, "T", source.NewFaultSchedule(
				permFault(100)), source.RetryPolicy{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			aborted := false
			_, err := RunStream(ctx, cat, flightsQuery(),
				Options{Strategy: Corrective, PollEvery: 100, Partitions: parts}, RunHooks{
					Emit: func(ev Event) {
						if _, ok := ev.(SourceAbandoned); ok {
							aborted = true
							cancel()
						}
					},
				})
			if !aborted {
				t.Fatal("source never abandoned; race untested")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			var se *source.SourceError
			if errors.As(err, &se) {
				t.Fatalf("source error outranked cancellation: %v", err)
			}
			assertNoGoroutineLeak(t, base)
		})
	}
}
