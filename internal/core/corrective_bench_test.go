package core

import (
	"testing"

	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/workload"
)

// BenchmarkCorrectiveRun is one corrective Q5 at SF 0.002 under forced
// switching: three phases, so two plan switches, and a stitch-up over them.
// Each switch hands the finished phase's index storage to the next phase's
// tables, and the last phase's goes to the stitch-up's indexes; the budgets
// in scripts/check_allocs.sh keep that reuse gated.
func BenchmarkCorrectiveRun(b *testing.B) {
	data := datagen.Generate(datagen.Config{ScaleFactor: 0.002, Seed: 42})
	rels := map[string]*source.Relation{}
	for _, n := range []string{"region", "nation", "supplier", "customer", "orders", "lineitem"} {
		rels[n] = data.Relations()[n]
	}
	links := func(*source.Relation) source.Schedule { return source.Bandwidth{TuplesPerSec: 1e5} }
	q := workload.Q5()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(NewCatalog(rels, links), q, forcedSwitching(Options{}))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Switches < 2 || rep.StitchCombos == 0 || len(rep.Rows) == 0 {
			b.Fatalf("%d switches, %d stitch-up combinations, %d rows", rep.Switches, rep.StitchCombos, len(rep.Rows))
		}
	}
}

// BenchmarkParallelAggRun is one static Q3A at SF 0.005 over two partitions,
// with known cardinalities: each clone aggregates into a table of its own,
// the tables fold into the shared group-by at the phase end, and the run ends
// as RunStream ends it, giving every group store back for the next run. The
// budgets in scripts/check_allocs.sh keep that reuse gated.
func BenchmarkParallelAggRun(b *testing.B) {
	data := datagen.Generate(datagen.Config{ScaleFactor: 0.005, Seed: 42})
	q, known := workload.Q3A(), workload.KnownCards(data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(NewCatalog(data.Relations(), nil), q, Options{Strategy: Static, Partitions: 2, Known: known})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Partitions != 2 || len(rep.Rows) == 0 {
			b.Fatalf("ran at %d partitions, %d rows", rep.Partitions, len(rep.Rows))
		}
	}
}
