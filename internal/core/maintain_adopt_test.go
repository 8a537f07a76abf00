package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// Mechanism pins for the maintenance set-up: not what a standing run
// reports (standing_golden_test.go) but what it did to get there — which tree
// it maintains, and how many rows it pushed to have one.

// standingRun runs fixture as RunMaintenance does, keeping hold of the
// executor and the maintainer and showing them to onEvent (optional) with
// every event.
func standingRun(t *testing.T, fixture standingFixture, spj bool, o Options, onEvent func(*executor, *maintainer, Event)) (*executor, *maintainer, *Report) {
	t.Helper()
	q, cat, script := fixture(spj)
	c := cat()
	var ex *executor
	var mt *maintainer
	hooks := RunHooks{Emit: func(ev Event) {
		if onEvent != nil {
			onEvent(ex, mt, ev)
		}
	}}
	ex, finish, err := prepareRun(context.Background(), c, q, o, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if mt, err = newMaintainer(ex, MaintOptions{Deltas: maintDeltaProviders(c, script(c)), FlushEvery: 100}); err != nil {
		t.Fatal(err)
	}
	if err := mt.run(); err != nil {
		t.Fatal(err)
	}
	rep, err := finish()
	if err != nil {
		t.Fatal(err)
	}
	return ex, mt, rep
}

// listLens renders the main and negative list lengths of every relation's
// leaf join side in tree, and their sum.
func listLens(q *algebra.Query, tree *Tree) (string, int64) {
	var s string
	var sum int64
	for _, rel := range q.Relations {
		main, neg := tree.LeafLists(rel.Name)
		n := 0
		if neg != nil {
			n = neg.Len()
		}
		s += fmt.Sprintf("%s=%d-%d ", rel.Name, main.Len(), n)
		sum += int64(main.Len() + n)
	}
	return s, sum
}

// basePassed sums the post-filter base rows of the initial run.
func basePassed(ex *executor) (n int64) {
	for _, rel := range ex.q.Relations {
		n += int64(ex.passed[rel.Name])
	}
	return n
}

// TestMaintenanceAdoptsInitialTree: on the standing_churn shape — static,
// serial, no pre-aggregation — the maintenance tree is the initial phase's
// tree and its aggregate the run's group-by: no row is pushed a second time,
// every leaf join has read its base rows once plus the deltas that passed the
// clamp, and the only structures maintenance adds are lineitem's negative
// list and table.
func TestMaintenanceAdoptsInitialTree(t *testing.T) {
	for _, spj := range []bool{false, true} {
		t.Run(map[bool]string{false: "agg", true: "spj"}[spj], func(t *testing.T) {
			var group *exec.AggTable
			var atStart []*state.HashTable
			ex, mt, rep := standingRun(t, q3aChurn, spj, Options{Strategy: Static, PollEvery: 256}, func(ex *executor, _ *maintainer, ev Event) {
				switch ev.(type) {
				case PhaseStarted:
					group = ex.agg
				case MaintenanceStarted:
					for _, j := range ex.phases[0].tree.Joins {
						l, r := j.Node.Tables()
						atStart = append(atStart, l, r)
					}
				}
			})
			q := ex.q

			if len(ex.phases) != 1 || mt.tree != ex.phases[0].tree || mt.plan != ex.phases[0].Plan {
				t.Fatalf("the maintenance tree is not the initial phase's (%d phases)", len(ex.phases))
			}
			if mt.agg != group {
				t.Error("the standing aggregate is not the run's group-by")
			}
			if rep.MaintReplayed != 0 {
				t.Errorf("MaintReplayed = %d, want 0", rep.MaintReplayed)
			}
			var after []*state.HashTable
			for _, j := range mt.tree.Joins {
				l, r := j.Node.Tables()
				after = append(after, l, r)
				if j.ResultBuf != nil {
					t.Errorf("join %s still holds its materialized result", j.Key)
				}
			}
			if len(atStart) == 0 || fmt.Sprint(atStart) != fmt.Sprint(after) {
				t.Errorf("join tables changed under maintenance: %v -> %v", atStart, after)
			}
			unclamped := rep.DeltaRows - rep.DeltaClamped
			for _, rel := range q.Relations {
				main, neg := mt.tree.LeafLists(rel.Name)
				want := int(ex.passed[rel.Name])
				fed := main.Len()
				if neg != nil {
					fed += neg.Len()
				}
				if rel.Name == "lineitem" {
					want += int(unclamped)
					if neg == nil || neg.Len() == 0 {
						t.Error("lineitem has no retracted rows: the fixture no longer deletes")
					}
				} else if neg != nil {
					t.Errorf("%s grew a negative list without a delta stream", rel.Name)
				}
				if fed != want {
					t.Errorf("%s: leaf join side holds %d rows, want base %d + unclamped deltas = %d", rel.Name, fed, int(ex.passed[rel.Name]), want)
				}
			}
			// A leaf join read each of its rows once: what its sides hold
			// (and, below the root, what the join under it emitted).
			var in, held int64
			for _, j := range mt.tree.Joins {
				c := j.Node.Counters()
				in += c.In
				for _, left := range []bool{true, false} {
					main, neg := j.Node.SideLists(left)
					held += int64(main.Len())
					if neg != nil {
						held += int64(neg.Len())
					}
				}
			}
			if in != held {
				t.Errorf("joins read %d rows, their sides hold %d: some row was read twice", in, held)
			}
		})
	}
}

// TestMaintenanceBuildReadsLists: a mid-maintenance switch builds the new
// tree out of the old one's lists and nothing else. The rows it pushes are
// the list lengths at the switch; a tree built over the final one ends with
// every relation's main and negative lists as long as that one's.
func TestMaintenanceBuildReadsLists(t *testing.T) {
	for _, spj := range []bool{false, true} {
		t.Run(map[bool]string{false: "agg", true: "spj"}[spj], func(t *testing.T) {
			var atSwitches int64
			o := Options{Strategy: Corrective, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 8}
			ex, mt, rep := standingRun(t, maintSwitchFixture, spj, o, func(ex *executor, mt *maintainer, ev Event) {
				if sw, ok := ev.(PlanSwitched); ok && sw.Phase >= len(ex.phases) {
					_, n := listLens(ex.q, mt.tree)
					atSwitches += n
				}
			})
			q := ex.q
			if rep.MaintSwitches == 0 {
				t.Fatal("the maintenance monitor never switched: the fixture no longer forces it")
			}
			if rep.MaintReplayed != atSwitches || atSwitches == 0 {
				t.Errorf("MaintReplayed = %d, the trees switched away from held %d rows", rep.MaintReplayed, atSwitches)
			}

			old, oldSum := listLens(q, mt.tree)
			oldTree, updates := mt.tree, len(rep.Updates)
			if err := mt.buildTree(mt.plan, false); err != nil {
				t.Fatal(err)
			}
			mt.watermark()
			if mt.tree == oldTree {
				t.Fatal("buildTree kept the old tree")
			}
			if built, _ := listLens(q, mt.tree); built != old {
				t.Errorf("built tree's lists = %s, the old tree's %s", built, old)
			}
			if got := rep.MaintReplayed - atSwitches; got != oldSum {
				t.Errorf("the build pushed %d rows, the old tree's lists held %d", got, oldSum)
			}
			if len(rep.Updates) != updates {
				t.Errorf("a tree warmed with its root unbound emitted %d updates", len(rep.Updates)-updates)
			}
		})
	}
}

// TestMaintenanceReplayedCountsBaseRows: a tree that is built before the
// first delta — after an initial run of several phases, of several
// partitions, or with pre-aggregation — is pushed the base rows, once.
func TestMaintenanceReplayedCountsBaseRows(t *testing.T) {
	legs := []struct {
		name    string
		fixture standingFixture
		o       Options
	}{
		{"initial-switch", misChurn, Options{Strategy: Corrective, PollEvery: 200, MaxPhases: 4}},
		{"p4", q3aMinMax, Options{Strategy: Static, PollEvery: 256, Partitions: 4}},
		{"windowed", q3aMinMax, Options{Strategy: Static, PollEvery: 256, PreAgg: opt.PreAggWindowed}},
	}
	for _, leg := range legs {
		for _, spj := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spj=%v", leg.name, spj), func(t *testing.T) {
				ex, mt, rep := standingRun(t, leg.fixture, spj, leg.o, nil)
				if leg.name == "initial-switch" && len(ex.phases) < 2 {
					t.Fatal("the initial run never switched: the fixture no longer forces it")
				}
				if mt.tree == ex.phases[0].tree {
					t.Error("the maintenance tree is a phase's tree")
				}
				if want := basePassed(ex); rep.MaintReplayed != want {
					t.Errorf("MaintReplayed = %d, want the %d base rows", rep.MaintReplayed, want)
				}
			})
		}
	}
}

// TestMaintenanceChaosAdoptedFailover is the chaos pin for an adopted tree: a
// delta stream that stalls, fails transiently and dies over to a mirror
// while feeding the initial phase's own tree yields the fault-free update
// stream, row for row.
func TestMaintenanceChaosAdoptedFailover(t *testing.T) {
	for _, spj := range []bool{false, true} {
		t.Run(map[bool]string{false: "agg", true: "spj"}[spj], func(t *testing.T) {
			run := func(failover bool) *Report {
				q, cat, script := q3aChurn(spj)
				c := cat()
				scripts := script(c)
				deltas := maintDeltaProviders(c, scripts)
				if failover {
					failOver(q, deltas, scripts, "lineitem")
				}
				rep, err := RunMaintenance(context.Background(), c, q, Options{Strategy: Static, PollEvery: 256},
					MaintOptions{Deltas: deltas, FlushEvery: 100}, RunHooks{})
				if err != nil {
					t.Fatal(err)
				}
				if rep.MaintReplayed != 0 {
					t.Fatalf("MaintReplayed = %d: the tree was not adopted", rep.MaintReplayed)
				}
				return rep
			}
			clean, faulty := run(false), run(true)
			if st := faulty.SourceFaults["lineitem.delta"]; !st.FailedOver {
				t.Fatalf("the delta stream did not fail over: %+v", faulty.SourceFaults)
			}
			if len(faulty.Updates) != len(clean.Updates) {
				t.Fatalf("%d updates, fault-free %d", len(faulty.Updates), len(clean.Updates))
			}
			for i, u := range clean.Updates {
				if g := faulty.Updates[i]; g.Sign != u.Sign || bitRows([]types.Tuple{g.Row}) != bitRows([]types.Tuple{u.Row}) {
					t.Fatalf("update %d = %+v, fault-free %+v", i, g, u)
				}
			}
			assertRowsIdentical(t, faulty.Maintained, clean.Maintained)
			assertRowsIdentical(t, ivm.Fold(faulty.Updates).Rows(), clean.Maintained)
		})
	}
}
