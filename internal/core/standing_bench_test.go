package core

import (
	"context"
	"testing"

	"github.com/tukwila/adp/internal/source"
)

// BenchmarkStandingSetup is one standing Q3A at SF 0.002 from the first base
// row to the last of 600 lineitem deltas — initial run, baseline watermark,
// pump — by what the maintenance set-up has to do first. adopted: nothing,
// the tree is the initial phase's. switched: the same, then one tree built
// from the adopted one's main and negative lists, as a mid-maintenance switch
// does. replayed-p4: four partitions, so a tree warmed with the base rows
// through a live root. spj-adopted: the adopted leg with Q3A's group-by
// dropped, so the view is the join's rows. Each run ends as RunMaintenance's does, giving its
// storage to the next. The budgets in scripts/check_allocs.sh keep the
// warm-up on its one reused batch: a relation-sized one regrows every column
// a dozen times.
func BenchmarkStandingSetup(b *testing.B) {
	legs := []struct {
		name    string
		spj     bool
		parts   int
		rebuild bool
	}{{"adopted", false, 1, false}, {"switched", false, 1, true}, {"replayed-p4", false, 4, false}, {"spj-adopted", true, 1, false}}
	for _, leg := range legs {
		q, cat, script := q3aChurn(leg.spj)
		scripts := map[string][]source.Delta{"lineitem": script(nil)["lineitem"][:600]}
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := cat()
				deltas := maintDeltaProviders(c, scripts)
				b.StartTimer()
				ex, finish, err := prepareRun(context.Background(), c, q, Options{Strategy: Static, PollEvery: 256, Partitions: leg.parts}, RunHooks{})
				if err != nil {
					b.Fatal(err)
				}
				mt, err := newMaintainer(ex, MaintOptions{Deltas: deltas, FlushEvery: 100})
				if err != nil {
					b.Fatal(err)
				}
				if err := mt.run(); err != nil {
					b.Fatal(err)
				}
				if leg.rebuild {
					if err := mt.buildTree(mt.plan, false); err != nil {
						b.Fatal(err)
					}
				}
				rep, err := finish()
				if err != nil {
					b.Fatal(err)
				}
				ex.release()
				if base := basePassed(ex); rep.DeltaRows != 600 || (rep.MaintReplayed == 0) != (leg.parts == 1 && !leg.rebuild) || rep.MaintReplayed > base+600 {
					b.Fatalf("read %d deltas, pushed %d rows to build a tree (%d base rows)", rep.DeltaRows, rep.MaintReplayed, base)
				}
			}
		})
	}
}
