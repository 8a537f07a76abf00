package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

func monitorFixture() *executor {
	q := flightsQuery()
	return &executor{
		q:    q,
		o:    Options{Known: map[string]float64{}},
		ctx:  exec.NewContext(),
		reg:  stats.NewRegistry(),
		live: map[string]float64{},
	}
}

func TestEstTotalCardPriorities(t *testing.T) {
	ex := monitorFixture()
	// Nothing known: default.
	if got := opt.TotalCard(ex.o.Known, ex.reg, "F"); got != opt.DefaultCard {
		t.Errorf("default = %g", got)
	}
	// Advertised value wins over nothing.
	ex.o.Known["F"] = 5000
	if got := opt.TotalCard(ex.o.Known, ex.reg, "F"); got != 5000 {
		t.Errorf("advertised = %g", got)
	}
	// Incomplete observation below the advertisement: advertisement holds.
	ex.reg.ObserveSource("F", 3000, false)
	if got := opt.TotalCard(ex.o.Known, ex.reg, "F"); got != 5000 {
		t.Errorf("advertised should hold: %g", got)
	}
	// Observation falsifies the advertisement: foresight takes over.
	ex.reg.ObserveSource("F", 30000, false)
	if got := opt.TotalCard(ex.o.Known, ex.reg, "F"); got != 60000 {
		t.Errorf("foresight = %g, want 60000", got)
	}
	// Exhausted source: exact, beats everything.
	ex.reg.ObserveSource("F", 31234, true)
	if got := opt.TotalCard(ex.o.Known, ex.reg, "F"); got != 31234 {
		t.Errorf("exact = %g", got)
	}
}

func TestStitchPenaltyGrowsWithBufferedDataAndPhases(t *testing.T) {
	ex := monitorFixture()
	ex.o.Known = nil
	if p := ex.stitchPenalty(); p != 0 {
		t.Errorf("empty penalty = %g", p)
	}
	// Mid-stream: consumed 10k of an estimated 40k (foresight 2x20k).
	ex.reg.ObserveSource("F", 10000, false)
	ex.live["F"] = 10000
	p1 := ex.stitchPenalty()
	if p1 <= 0 {
		t.Fatal("penalty should be positive mid-stream")
	}
	// More phases -> larger penalty (combination growth).
	ex.phases = []*PhaseRecord{{}, {}}
	p2 := ex.stitchPenalty()
	if p2 <= p1 {
		t.Errorf("penalty should grow with phases: %g vs %g", p2, p1)
	}
	// Nearly exhausted source -> min(consumed, remaining) shrinks.
	ex.phases = nil
	ex.reg.ObserveSource("F", 10000, true) // total exactly 10000
	if p3 := ex.stitchPenalty(); p3 >= p1 {
		t.Errorf("penalty near completion should shrink: %g vs %g", p3, p1)
	}
}

func TestOnPollCallbackObservesDecisions(t *testing.T) {
	// End-to-end: the OnPoll hook fires during a corrective run with the
	// switch decision visible.
	f, tr, c := flightsData(200, 600, 400, 31)
	var polls, switches int
	rep, err := Run(catalogOf(f, tr, c), flightsQuery(), Options{
		Strategy:     Corrective,
		PollEvery:    50,
		SwitchFactor: 0.99,
		MaxPhases:    4,
		OnPoll: func(cur, cand, pen float64, switched bool) {
			polls++
			if switched {
				switches++
			}
			if cur < 0 || cand < 0 || pen < 0 {
				t.Errorf("negative monitor quantities: %g %g %g", cur, cand, pen)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if polls == 0 {
		t.Error("OnPoll never fired")
	}
	if switches != rep.Switches {
		t.Errorf("OnPoll saw %d switches, report says %d", switches, rep.Switches)
	}
}

// TestOptCallsCountsEveryOptimizerCall: on the Q5 corrective fixture
// Report.OptCalls is the initial optimization plus one per betterPlan call —
// every poll that passed monitorStep's gates, which this test counts by
// replaying the run phase by phase with the gates restated — so it is at
// least one more than the decisions OnPoll sees.
func TestOptCallsCountsEveryOptimizerCall(t *testing.T) {
	q5 := []string{"region", "nation", "supplier", "customer", "orders", "lineitem"}
	polls := 0
	o := Options{Strategy: Corrective, OnPoll: func(float64, float64, float64, bool) { polls++ }}
	rep, err := Run(tpchCatalog(q5...), workload.Q5(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OptCalls < 1+polls {
		t.Errorf("OptCalls = %d, below 1 + %d OnPoll decisions", rep.OptCalls, polls)
	}

	ex, _, err := prepareRun(context.Background(), tpchCatalog(q5...), workload.Q5(), o, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	gatesPass := func(delivered int64) bool {
		if len(ex.phases)+1 >= ex.o.MaxPhases || delivered < int64(3*ex.o.PollEvery) && ex.phaseStall() <= 0 {
			return false
		}
		var remaining, total float64
		for _, rel := range ex.q.Relations {
			tot := opt.TotalCard(ex.o.Known, ex.reg, rel.Name)
			total += tot
			remaining += math.Max(tot-ex.live[rel.Name], 0)
		}
		return total > 0 && remaining/total >= 0.2
	}
	reached, current := 0, mustPlan(t, ex.q)
	for {
		ph, err := ex.lowerPhase(current)
		if err != nil {
			t.Fatal(err)
		}
		var next algebra.Plan
		exhausted, err := ex.drive(ph, func() bool {
			ex.recordObservations(joinViews(ph.trees), ph.leaves)
			if gatesPass(ph.delivered()) {
				reached++
			}
			next = ex.monitorStep(ph.root, ph.delivered(), collisionFactor(ph.trees))
			return next != nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if exhausted {
			break
		}
		current = next
	}
	if reached == 0 || ex.rep.OptCalls != reached || rep.OptCalls != 1+reached {
		t.Errorf("OptCalls = %d (replayed without the initial call: %d), want 1 + %d betterPlan calls", rep.OptCalls, ex.rep.OptCalls, reached)
	}
}

func TestRecordObservationsPublishesSelectivities(t *testing.T) {
	// After a static run over the flights data — one tree, or four partition
	// clones whose counters the monitor's view sums — the registry must hold
	// source cardinalities, filter selectivities and join selectivities.
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			f, tr, c := flightsData(100, 300, 200, 37)
			q := flightsQuery()
			ex, _, err := prepareRun(nil, catalogOf(f, tr, c), q, Options{Strategy: Static, Partitions: parts}, RunHooks{})
			if err != nil {
				t.Fatal(err)
			}
			run := ex.runPhase
			if parts > 1 {
				run = ex.runPhaseParallel
			}
			if _, _, err := run(mustPlan(t, q)); err != nil {
				t.Fatal(err)
			}
			if parts > 1 && ex.rep.Partitions != parts {
				t.Fatalf("phase fell back to %d partitions", ex.rep.Partitions)
			}
			for _, rel := range []string{"F", "T", "C"} {
				sc, ok := ex.reg.Source(rel)
				if !ok || !sc.Complete {
					t.Errorf("source %s not observed complete", rel)
				}
			}
			if _, ok := ex.reg.Expr(algebra.CanonKey([]string{"F", "T"})); !ok {
				// Depending on the chosen tree the first join may be T⋈C instead.
				if _, ok2 := ex.reg.Expr(algebra.CanonKey([]string{"C", "T"})); !ok2 {
					t.Error("no join selectivity observed")
				}
			}
			if _, ok := ex.reg.Expr(algebra.CanonKey([]string{"C", "F", "T"})); !ok {
				t.Error("full-expression selectivity not observed")
			}
		})
	}
}

func mustPlan(t *testing.T, q *algebra.Query) algebra.Plan {
	t.Helper()
	res, err := opt.Optimize(opt.Inputs{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return res.Root
}

func TestCatalogConstruction(t *testing.T) {
	rels := map[string]*source.Relation{
		"r": source.NewRelation("r",
			types.NewSchema(types.Column{Name: "r.k", Kind: types.KindInt}),
			[]types.Tuple{{types.Int(1)}}),
	}
	cat := NewCatalog(rels, nil)
	if cat.Providers["r"].Total() != 1 {
		t.Error("catalog provider wrong")
	}
	cat2 := NewCatalog(rels, func(rel *source.Relation) source.Schedule {
		return source.Bandwidth{TuplesPerSec: 10}
	})
	if at, ok := cat2.Providers["r"].PeekArrival(); !ok || at <= 0 {
		t.Error("scheduled provider should delay arrivals")
	}
}
