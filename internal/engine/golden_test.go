package engine

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/workload"
)

// q5Golden is what a change to the output path, the phase state or the
// monitor could silently move on the paper's headline case.
type q5Golden struct {
	Phases, Switches, Combos int
	Reused, Discarded        int64
	Rows                     int
	Virtual                  float64
}

// TestQ5CorrectiveGoldens runs the benchmark's agg_corrective shape — Q5
// at SF 0.03 with no cardinalities, every relation behind a bursty link
// whose burst pattern is seeded by the relation's name, corrective, P=1 —
// at seeds 42, 7 and 1234 and requires phases, switches, stitch-up
// accounting, rows and the virtual clock to equal what the commit before
// the lent-batch output path produced. Serial virtual time is exact, so
// the comparison is ==.
func TestQ5CorrectiveGoldens(t *testing.T) {
	want := map[int64]q5Golden{
		42:   {Phases: 3, Switches: 2, Combos: 726, Reused: 265, Discarded: 9, Rows: 5, Virtual: 0.67387245},
		7:    {Phases: 3, Switches: 2, Combos: 726, Reused: 213, Discarded: 5, Rows: 5, Virtual: 0.67658835},
		1234: {Phases: 3, Switches: 2, Combos: 726, Reused: 247, Discarded: 5, Rows: 5, Virtual: 0.67185305},
	}
	for _, seed := range []int64{42, 7, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := q5BurstyEngine(seed).Execute(workload.Q5(), core.Options{Strategy: core.Corrective})
			if err != nil {
				t.Fatal(err)
			}
			got := q5Golden{
				Phases: len(rep.Phases), Switches: rep.Switches, Combos: rep.StitchCombos,
				Reused: rep.Reused, Discarded: rep.Discarded, Rows: len(rep.Rows),
				Virtual: rep.VirtualSeconds,
			}
			if got != want[seed] {
				t.Errorf("Q5 corrective = %#v, want %#v", got, want[seed])
			}
		})
	}
}

// q5BurstyEngine registers TPC-H at SF 0.03 behind the benchmark's bursty
// links, each seeded by its relation's name.
func q5BurstyEngine(seed int64) *Engine {
	data := datagen.Generate(datagen.Config{ScaleFactor: 0.03, Seed: seed})
	eng := New()
	for _, rel := range data.Relations() {
		var linkSeed int64
		for _, c := range rel.Name {
			linkSeed = linkSeed*31 + int64(c)
		}
		eng.RegisterRemote(rel, source.NewBursty(rel.Len(), 1_000_000, 8000, 0.01, linkSeed))
	}
	return eng
}

// TestQ5CorrectiveAllocation pins what buffering every row once buys on the
// paper's headline case: the same run (seed 42, three phases, 726
// combinations, five rows) allocates at most 0.45x what it did at commit
// 7e491a5, where a base row sat in its leaf's partition list, in its join's
// bucket chain, in a second table the stitch-up built, and in a fresh wide
// tuple at every fold step.
func TestQ5CorrectiveAllocation(t *testing.T) {
	const parentBytes = 118_720_936 // TotalAlloc of the measured run at commit 7e491a5
	eng := q5BurstyEngine(42)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := eng.Execute(workload.Q5(), core.Options{Strategy: core.Corrective}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // warm whatever the first run of anything allocates once
	if got := run(); float64(got) > 0.45*parentBytes {
		t.Errorf("corrective Q5 allocated %d B, want at most 0.45 x %d", got, uint64(parentBytes))
	}
}
