package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

// Phase-runner goldens. Every value below was written by commit a34c48a,
// the one before serial phases, partitioned phases, both plan-partitioning
// stages and the maintenance pump were routed through one phase runner, and
// passes unmodified after it. They pin what the layout, stitch-up and
// oracle pins leave open and a shared loop is most likely to disturb: the
// order and numbering of lifecycle events, the monitor's inputs at every
// poll, and a standing run's update stream, watermarks and clocks.
//
// One deliberate re-baseline since (PR 24): a serial standing run's
// maintenance stage adopts the initial phase's tree and group-by and no longer
// replays the base rows into a second tree, so on the P=1 legs of
// maintRunGoldens the clocks moved, and — the adopted tree's tables being
// sized from the initial optimization's estimates, not from a re-optimization
// over the finished run — so did the corrective legs' monitor decisions
// (maintSwitches there, "standing" in phaseEventGoldens, "maintenance" in
// onPollGoldens). Every update stream, watermark and delta counter is the
// parent's; standing_golden_test.go holds both sides' values for every shape.
//
// A second re-baseline of the P=1 clocks came with integer virtual time: each
// is the value before rounded to the nanosecond, except on the corrective
// legs from the mid-maintenance switch on. The tree a switch builds is warmed
// up relation by relation, and a warm-up row probing a join input nothing has
// reached yet used to probe nothing, free; a table that exists is now charged
// its probe however empty (exec.HashJoin.sweep). That adds 154 214, 1 607,
// 79 014 and 1 607 probes of 1.1 µs to the agg/clean, agg/failover, spj/clean
// and spj/failover legs, the counts the skipped probes had.
//
// A third re-baseline, of the aggregate legs' P=1 clocks, came when a standing
// query's initial result left the run once, as the baseline window: the
// group-by's EmitFinal, one Move (300 ns) for each of 682 Q3A groups or 3
// fixture groups that nothing read, is no longer charged before the baseline
// window's revisions, so the CPU seconds and the baseline stamp fall by it.
// The P=4 legs lose the same charge at the end of the run and keep the
// parent's clocks within parClockTol.
//
// Serial virtual time is exact, so P=1 legs compare clocks with ==. At P=4
// the initial run's partition clocks fold into the run clock in an order
// the scheduler decides (exec.ParallelDriver.FoldClocks), so those legs pin
// every count exactly and hold clocks to parClockTol — BENCHMARK.json's bound
// on virtual_s, the P>1 tolerance in use — or, where the whole initial run is
// a few rows and tens of virtual microseconds long, to parClockSlack.

const (
	parClockTol   = 0.06
	parClockSlack = 2e-5
)

// f64 renders a float exactly.
func f64(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// q3aChurn is the benchmark's standing_churn shape at test size: Q3A over
// TPC-H at SF 0.002 and a script of lineitem inserts, retractions of base
// rows and retractions of rows the script inserted, one third each.
func q3aChurn(spj bool) (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta) {
	data := datagen.Generate(datagen.Config{ScaleFactor: 0.002, Seed: 42})
	q := workload.Q3A()
	if spj {
		q.GroupBy, q.Aggs = nil, nil
		q.Project = []string{"lineitem.l_orderkey", "orders.o_orderdate", "lineitem.l_extendedprice"}
	}
	cat := func() *Catalog {
		return catalogOf(data.Customer.Clone(), data.Orders.Clone(), data.Lineitem.Clone())
	}
	script := func(*Catalog) map[string][]source.Delta {
		rng := rand.New(rand.NewSource(9))
		base := data.Lineitem.Rows
		var ds []source.Delta
		var inserted []types.Tuple
		at := 0.0
		for i := 0; i < 900; i++ {
			at += 0.0005
			switch i % 3 {
			case 0:
				row := base[rng.Intn(len(base))].Clone()
				row[1] = types.Int(int64(1_000_000 + i)) // a fresh l_linenumber: a new row
				inserted = append(inserted, row)
				ds = append(ds, source.Delta{Row: row, Sign: 1, At: at})
			case 1:
				ds = append(ds, source.Delta{Row: base[rng.Intn(len(base))].Clone(), Sign: -1, At: at})
			default:
				ds = append(ds, source.Delta{Row: inserted[rng.Intn(len(inserted))].Clone(), Sign: -1, At: at})
			}
		}
		return map[string][]source.Delta{"lineitem": ds}
	}
	return q, cat, script
}

// maintSwitchFixture is TestMaintenanceForcedPlanSwitch's: toy initial
// relations, then a delta flood that makes the maintenance monitor abandon
// the plan the initial cardinalities chose.
func maintSwitchFixture(spj bool) (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta) {
	aS := types.NewSchema(types.Column{Name: "A.k", Kind: types.KindInt}, types.Column{Name: "A.fk", Kind: types.KindInt})
	bS := types.NewSchema(types.Column{Name: "B.k", Kind: types.KindInt})
	cS := types.NewSchema(types.Column{Name: "C.k", Kind: types.KindInt})
	var aRows []types.Tuple
	for i := 0; i < 5; i++ {
		aRows = append(aRows, types.Tuple{types.Int(int64(i)), types.Int(int64(i % 2))})
	}
	bRows := []types.Tuple{{types.Int(0)}, {types.Int(1)}}
	cRows := []types.Tuple{{types.Int(0)}, {types.Int(1)}, {types.Int(2)}}
	q := &algebra.Query{
		Name:      "maint-switch",
		Relations: []algebra.RelRef{{Name: "A", Schema: aS}, {Name: "B", Schema: bS}, {Name: "C", Schema: cS}},
		Joins: []algebra.JoinPred{
			{LeftRel: "A", LeftCol: "fk", RightRel: "B", RightCol: "k"},
			{LeftRel: "A", LeftCol: "k", RightRel: "C", RightCol: "k"},
		},
		GroupBy: []string{"C.k"},
		Aggs:    []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}},
	}
	if spj {
		q.GroupBy, q.Aggs = nil, nil
		q.Project = []string{"C.k", "A.fk"}
	}
	cat := func() *Catalog {
		return catalogOf(source.NewRelation("A", aS, aRows), source.NewRelation("B", bS, bRows), source.NewRelation("C", cS, cRows))
	}
	script := func(*Catalog) map[string][]source.Delta {
		rng := rand.New(rand.NewSource(71))
		var da, db, dc []source.Delta
		at := 0.0
		for i := 0; i < 1500; i++ {
			at += 0.001
			db = append(db, source.Ins(at, types.Int(rng.Int63n(2))))
		}
		for i := 0; i < 800; i++ {
			at += 0.001
			dc = append(dc, source.Ins(at, types.Int(int64(i+10))))
		}
		for i := 0; i < 300; i++ {
			at += 0.001
			da = append(da, source.Ins(at, types.Int(rng.Int63n(1000)+10), types.Int(rng.Int63n(2))))
		}
		// Retractions, so the switch's replay carries both signs.
		for i := 0; i < 200; i++ {
			at += 0.001
			dc = append(dc, source.Del(at, types.Int(int64(rng.Intn(900)+10))))
		}
		return map[string][]source.Delta{"A": da, "B": db, "C": dc}
	}
	return q, cat, script
}

// maintGolden is everything a standing run reports.
type maintGolden struct {
	counts string    // update-stream digest, watermark counts, delta counters, phases
	clocks []float64 // run clocks, phase seconds, watermark clocks
}

// maintLeg runs one standing query and renders its golden, with failover
// after failOver of that relation's delta stream.
func maintLeg(t *testing.T, q *algebra.Query, cat *Catalog, scripts map[string][]source.Delta, o Options, failover string) (maintGolden, *Report) {
	t.Helper()
	deltas := maintDeltaProviders(cat, scripts)
	if failover != "" {
		failOver(q, deltas, scripts, failover)
	}
	var marks []UpdateWatermark
	rep, err := RunMaintenance(context.Background(), cat, q, o, MaintOptions{Deltas: deltas, FlushEvery: 100}, RunHooks{
		Emit: func(ev Event) {
			if wm, ok := ev.(UpdateWatermark); ok {
				marks = append(marks, wm)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ups strings.Builder
	for _, u := range rep.Updates {
		fmt.Fprintf(&ups, "%+d %s", u.Sign, bitRows([]types.Tuple{u.Row}))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "updates=%d:%s deltaRows=%d clamped=%d maintSwitches=%d switches=%d marks=",
		len(rep.Updates), digest(ups.String()), rep.DeltaRows, rep.DeltaClamped, rep.MaintSwitches, rep.Switches)
	g := maintGolden{clocks: []float64{rep.VirtualSeconds, rep.CPUSeconds}}
	for _, wm := range marks {
		fmt.Fprintf(&sb, "[%d %d %d]", wm.Seq, wm.Updates, wm.DeltaRows)
		g.clocks = append(g.clocks, wm.VirtualSeconds)
	}
	sb.WriteString(" phases=")
	for _, ph := range rep.Phases {
		fmt.Fprintf(&sb, "[%s %d]", digest(ph.Plan), ph.Delivered)
		g.clocks = append(g.clocks, ph.Seconds)
	}
	g.counts = sb.String()
	return g, rep
}

var maintRunGoldens = map[string]maintGolden{
	"agg/static/P=1/clean": {
		counts: "updates=952:096b55a08e6e768c deltaRows=900 clamped=157 maintSwitches=0 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]",
		clocks: []float64{0.4500096, 0.0448315, 0.0427062, 0.0500078, 0.1000111, 0.1500087, 0.2000123, 0.2500141, 0.3000102, 0.3500108, 0.4000132, 0.4500096, 0.0425016},
	},
	"agg/static/P=1/failover": {
		counts: "updates=952:096b55a08e6e768c deltaRows=900 clamped=157 maintSwitches=0 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]",
		clocks: []float64{7.5019572, 0.0448315, 0.0427062, 7.5000504, 7.50029, 7.5005203, 7.5007652, 7.5010184, 7.5012568, 7.5014823, 7.5017314, 7.5019572, 0.0425016},
	},
	"agg/static/P=4/clean": {
		counts: "updates=952:096b55a08e6e768c deltaRows=900 clamped=157 maintSwitches=0 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]",
		clocks: []float64{0.45022100000000637, 0.15181790000013684, 0.11592479999995932, 0.11660979999995914, 0.1172956999999588, 0.1500155000000003, 0.20001800000000045, 0.25001980000000046, 0.3000102000000005, 0.35001650000000045, 0.40001890000000057, 0.4500164000000005, 0.011849100000000579},
	},
	"agg/static/P=4/failover": {
		counts: "updates=952:096b55a08e6e768c deltaRows=900 clamped=157 maintSwitches=0 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]",
		clocks: []float64{7.50593120000029, 0.15181790000013684, 0.11565839999995889, 7.500131500000006, 7.500817400000046, 7.501516600000089, 7.5022315000001285, 7.50295710000017, 7.503670800000209, 7.504314100000241, 7.505032100000276, 7.5057266000003215, 0.011582700000000588},
	},
	"agg/corrective/P=1/clean": {
		counts: "updates=387:dfb91a46aae7659b deltaRows=2800 clamped=39 maintSwitches=1 switches=0 marks=[0 3 0][1 6 100][2 6 200][3 6 300][4 6 400][5 6 500][6 6 600][7 6 700][8 6 800][9 6 900][10 6 1000][11 6 1100][12 6 1200][13 6 1300][14 6 1400][15 6 1500][16 84 2400][17 87 2500][18 78 2600][19 23 2700][20 22 2800] phases=[e1692d25b2b11cb5 10]",
		clocks: []float64{4.3399251, 2.0620057, 4.6e-05, 0.1000131, 0.2000131, 0.3000131, 0.4000131, 0.5000188, 0.6000131, 0.7000131, 0.8000188, 0.9000131, 1.0000131, 1.1000188, 1.2000188, 1.3000131, 1.4000131, 1.5000188, 2.709684, 3.1051045, 4.2479754, 4.2925722, 4.3399251, 4.51e-05},
	},
	"agg/corrective/P=1/failover": {
		counts: "updates=293:1ed4804e16b1bf48 deltaRows=2800 clamped=39 maintSwitches=1 switches=0 marks=[0 3 0][1 6 100][2 6 200][3 6 300][4 6 400][5 6 500][6 6 600][7 6 700][8 6 800][9 6 900][10 6 1000][11 6 1100][12 6 1200][13 6 1300][14 6 1400][15 6 1500][16 16 2400][17 1 2500][18 51 2600][19 67 2700][20 65 2800] phases=[e1692d25b2b11cb5 10]",
		clocks: []float64{8.5620415, 0.9590999, 4.6e-05, 0.1000131, 0.2000131, 0.3000131, 0.4000131, 0.5000188, 0.6000131, 0.7000131, 0.8000188, 0.9000131, 1.0000131, 1.1000188, 1.2000188, 1.3000131, 1.4000131, 1.5000188, 2.6800069, 2.7800024, 8.1365508, 8.42318, 8.5620415, 4.51e-05},
	},
	"agg/corrective/P=4/clean": {
		counts: "updates=387:dfb91a46aae7659b deltaRows=2800 clamped=39 maintSwitches=1 switches=0 marks=[0 3 0][1 6 100][2 6 200][3 6 300][4 6 400][5 6 500][6 6 600][7 6 700][8 6 800][9 6 900][10 6 1000][11 6 1100][12 6 1200][13 6 1300][14 6 1400][15 6 1500][16 84 2400][17 87 2500][18 78 2600][19 23 2700][20 22 2800] phases=[e1692d25b2b11cb5 10]",
		clocks: []float64{3.5775779000059247, 1.3019033999833858, 5.2699999999999993e-05, 0.10000610000000003, 0.20000610000000021, 0.3000061000000003, 0.40000610000000036, 0.5000083000000001, 0.6000061000000001, 0.7000061000000002, 0.8000083000000003, 0.9000061000000004, 1.0000061000000002, 1.1000082999999892, 1.2000082999999782, 1.3000060999999672, 1.4000060999999562, 1.5000082999999451, 2.7096840000018756, 3.105104500004176, 3.485627300006811, 3.530224100006369, 3.577577000005925, 2.14e-05},
	},
	"agg/corrective/P=4/failover": {
		counts: "updates=293:1ed4804e16b1bf48 deltaRows=2800 clamped=39 maintSwitches=2 switches=0 marks=[0 3 0][1 6 100][2 6 200][3 6 300][4 6 400][5 6 500][6 6 600][7 6 700][8 6 800][9 6 900][10 6 1000][11 6 1100][12 6 1200][13 6 1300][14 6 1400][15 6 1500][16 16 2400][17 1 2500][18 51 2600][19 67 2700][20 65 2800] phases=[e1692d25b2b11cb5 10]",
		clocks: []float64{8.560274700071584, 0.9604238999925667, 5.2699999999999993e-05, 0.10000610000000003, 0.20000610000000021, 0.3000061000000003, 0.40000610000000036, 0.5000083000000001, 0.6000061000000001, 0.7000061000000002, 0.8000083000000003, 0.9000061000000004, 1.0000061000000002, 1.1000082999999892, 1.2000082999999782, 1.3000060999999672, 1.4000060999999562, 1.5000082999999451, 2.6800068999998152, 2.780002399999805, 8.136550800020137, 8.421412300045512, 8.560273800071585, 2.14e-05},
	},
	"spj/static/P=1/clean": {
		counts: "updates=2857:5a486f0fd75adbba deltaRows=900 clamped=157 maintSwitches=0 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]",
		clocks: []float64{0.4500021, 0.0431174, 0.0411526, 0.0500021, 0.1000021, 0.1500021, 0.2000021, 0.2500021, 0.3, 0.3500021, 0.4000021, 0.4500021, 0.0411526},
	},
	"spj/static/P=1/failover": {
		counts: "updates=2857:5a486f0fd75adbba deltaRows=900 clamped=157 maintSwitches=0 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]",
		clocks: []float64{7.5018007, 0.0431174, 0.0411526, 7.5000427, 7.5002643, 7.5004805, 7.5007062, 7.5009364, 7.5011546, 7.5013624, 7.5015889, 7.5018007, 0.0411526},
	},
	"spj/static/P=4/clean": {
		counts: "updates=2857:5a486f0fd75adbba deltaRows=900 clamped=157 maintSwitches=0 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]",
		clocks: []float64{0.45000890000000027, 0.14800460000013008, 0.11357559999995982, 0.11424889999995974, 0.11491679999995955, 0.1500089000000001, 0.20000780000000015, 0.2500078000000001, 0.3000000000000002, 0.3500078000000002, 0.40000780000000025, 0.45000890000000027, 0.011053500000000289},
	},
	"spj/static/P=4/failover": {
		counts: "updates=2857:5a486f0fd75adbba deltaRows=900 clamped=157 maintSwitches=0 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]",
		clocks: []float64{7.505570100000391, 0.14800460000013008, 0.11361119999995987, 7.500123800000009, 7.500791700000057, 7.501476800000106, 7.502172500000154, 7.502875100000206, 7.5035686000002535, 7.504194200000294, 7.5048896000003396, 7.505570100000391, 0.011089100000000279},
	},
	"spj/corrective/P=1/clean": {
		counts: "updates=219328:715b86b7118242cd deltaRows=2800 clamped=39 maintSwitches=1 switches=0 marks=[0 3 0][1 154 100][2 148 200][3 154 300][4 150 400][5 159 500][6 158 600][7 148 700][8 149 800][9 146 900][10 153 1000][11 148 1100][12 144 1200][13 145 1300][14 155 1400][15 157 1500][16 66124 2400][17 60152 2500][18 53267 2600][19 18721 2700][20 18793 2800] phases=[e1692d25b2b11cb5 10]",
		clocks: []float64{3.8682407, 1.5891579, 4.36e-05, 0.1000108, 0.2000108, 0.3000108, 0.4000108, 0.500016, 0.6000108, 0.7000108, 0.800016, 0.9000108, 1.0000108, 1.100016, 1.200016, 1.3000108, 1.4000108, 1.500016, 2.6765968, 3.4411956, 3.7950615, 3.8302909, 3.8682407, 4.36e-05},
	},
	"spj/corrective/P=1/failover": {
		counts: "updates=219328:8298a2f3c7d615fe deltaRows=2800 clamped=39 maintSwitches=1 switches=0 marks=[0 3 0][1 154 100][2 148 200][3 154 300][4 150 400][5 159 500][6 158 600][7 148 700][8 149 800][9 146 900][10 153 1000][11 148 1100][12 144 1200][13 145 1300][14 155 1400][15 157 1500][16 13554 2400][17 733 2500][18 66857 2600][19 73670 2700][20 62243 2800] phases=[e1692d25b2b11cb5 10]",
		clocks: []float64{8.4715181, 0.849348, 4.36e-05, 0.1000108, 0.2000108, 0.3000108, 0.4000108, 0.500016, 0.6000108, 0.7000108, 0.800016, 0.9000108, 1.0000108, 1.100016, 1.200016, 1.3000108, 1.4000108, 1.500016, 2.6800021, 2.7800021, 8.1140235, 8.3637976, 8.4715181, 4.36e-05},
	},
	"spj/corrective/P=4/clean": {
		counts: "updates=219328:715b86b7118242cd deltaRows=2800 clamped=39 maintSwitches=2 switches=0 marks=[0 3 0][1 154 100][2 148 200][3 154 300][4 150 400][5 159 500][6 158 600][7 148 700][8 149 800][9 146 900][10 153 1000][11 148 1100][12 144 1200][13 145 1300][14 155 1400][15 157 1500][16 66124 2400][17 60152 2500][18 53267 2600][19 18721 2700][20 18793 2800] phases=[e1692d25b2b11cb5 10]",
		clocks: []float64{3.4689602999907687, 1.1955802999762593, 4.8e-05, 0.10000380000000006, 0.20000380000000018, 0.3000038000000002, 0.4000038000000003, 0.5000055000000002, 0.6000038000000003, 0.7000038000000004, 0.8000055000000005, 0.9000038000000006, 1.0000038000000004, 1.1000054999999893, 1.2000054999999783, 1.3000037999999674, 1.4000037999999564, 1.5000054999999453, 2.676596799997258, 3.041915199995359, 3.3957810999942746, 3.4310104999925253, 3.4689602999907687, 1.9100000000000003e-05},
	},
	"spj/corrective/P=4/failover": {
		counts: "updates=219328:8298a2f3c7d615fe deltaRows=2800 clamped=39 maintSwitches=3 switches=0 marks=[0 3 0][1 154 100][2 148 200][3 154 300][4 150 400][5 159 500][6 158 600][7 148 700][8 149 800][9 146 900][10 153 1000][11 148 1100][12 144 1200][13 145 1300][14 155 1400][15 157 1500][16 13554 2400][17 733 2500][18 66857 2600][19 73670 2700][20 62243 2800] phases=[e1692d25b2b11cb5 10]",
		clocks: []float64{8.469750399997798, 0.8541289999834517, 4.8e-05, 0.10000380000000006, 0.20000380000000018, 0.3000038000000002, 0.4000038000000003, 0.5000055000000002, 0.6000038000000003, 0.7000038000000004, 0.8000055000000005, 0.9000038000000006, 1.0000038000000004, 1.1000054999999893, 1.2000054999999783, 1.3000037999999674, 1.4000037999999564, 1.5000054999999453, 2.680002099999816, 2.780002099999805, 8.1140235000162, 8.362029900003714, 8.469750399997798, 1.9100000000000003e-05},
	},
}

// TestMaintenanceRunGoldens: {aggregate, SPJ} × {Static over Q3A with
// lineitem churn, Corrective over the fixture whose delta flood forces a
// mid-maintenance switch} × P∈{1,4} × {clean, delta-stream failover}.
func TestMaintenanceRunGoldens(t *testing.T) {
	for _, spj := range []bool{false, true} {
		for _, strat := range []Strategy{Static, Corrective} {
			for _, parts := range []int{1, 4} {
				for _, failover := range []bool{false, true} {
					shape := map[bool]string{false: "agg", true: "spj"}[spj]
					name := fmt.Sprintf("%s/%v/P=%d/%s", shape, strat, parts, map[bool]string{false: "clean", true: "failover"}[failover])
					t.Run(name, func(t *testing.T) {
						fixture, faulty := q3aChurn, "lineitem"
						o := Options{Strategy: strat, PollEvery: 256, Partitions: parts}
						if strat == Corrective {
							fixture, faulty = maintSwitchFixture, "A"
							o = Options{Strategy: Corrective, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 8, Partitions: parts}
						}
						if !failover {
							faulty = ""
						}
						q, cat, script := fixture(spj)
						c := cat()
						got, rep := maintLeg(t, q, c, script(c), o, faulty)
						if strat == Corrective && rep.MaintSwitches == 0 {
							t.Fatal("the maintenance monitor never switched: the fixture no longer forces it")
						}
						if failover {
							if st := rep.SourceFaults[faulty+".delta"]; !st.FailedOver {
								t.Fatalf("delta stream of %s did not fail over: %+v", faulty, rep.SourceFaults)
							}
						}
						want, ok := maintRunGoldens[name]
						if !ok {
							t.Fatalf("no golden; got\n%q: {counts: %q,\nclocks: %#v},", name, got.counts, got.clocks)
						}
						if got.counts != want.counts {
							t.Errorf("counts = %q\n        want %q", got.counts, want.counts)
						}
						if len(got.clocks) != len(want.clocks) {
							t.Fatalf("clocks = %#v, want %#v", got.clocks, want.clocks)
						}
						for i, w := range want.clocks {
							g := got.clocks[i]
							if parts == 1 && g != w || math.Abs(g-w) > parClockTol*math.Abs(w)+parClockSlack {
								t.Errorf("clock %d = %v, want %v", i, g, w)
							}
						}
					})
				}
			}
		}
	}
}

// renderEvents lists a run's events by type and fields. Clocks are included
// where the run is serial (exact); a partitioned run's belong to the
// scheduler. Source-degradation events are not listed: no leg injects one.
func renderEvents(evs []Event, clocks bool) string {
	var sb strings.Builder
	at := func(v float64) string {
		if !clocks {
			return ""
		}
		return " @" + f64(v)
	}
	for _, ev := range evs {
		switch e := ev.(type) {
		case PhaseStarted:
			fmt.Fprintf(&sb, "PhaseStarted{%d %s P=%d%s}\n", e.Phase, digest(e.Plan), e.Partitions, at(e.VirtualSeconds))
		case PlanSwitched:
			fmt.Fprintf(&sb, "PlanSwitched{%d %s->%s", e.Phase, digest(e.From), digest(e.To))
			if clocks {
				fmt.Fprintf(&sb, " %s %s %s", f64(e.CurrentRemaining), f64(e.CandidateCost), f64(e.StitchPenalty))
			}
			fmt.Fprintf(&sb, "%s}\n", at(e.VirtualSeconds))
		case PartitionStats:
			fmt.Fprintf(&sb, "PartitionStats{%d %d n=%d}\n", e.Phase, e.Delivered, len(e.Seconds))
		case StitchUpStarted:
			fmt.Fprintf(&sb, "StitchUpStarted{%d%s}\n", e.Phases, at(e.VirtualSeconds))
		case MaintenanceStarted:
			fmt.Fprintf(&sb, "MaintenanceStarted{%v%s}\n", e.Relations, at(e.VirtualSeconds))
		case UpdateWatermark:
			fmt.Fprintf(&sb, "UpdateWatermark{%d %d %d%s}\n", e.Seq, e.Updates, e.DeltaRows, at(e.VirtualSeconds))
		case RowsDelivered:
			fmt.Fprintf(&sb, "RowsDelivered{%d%s}\n", e.Rows, at(e.VirtualSeconds))
		default:
			fmt.Fprintf(&sb, "%T\n", ev)
		}
	}
	return sb.String()
}

// tpchCatalog is TPC-H at SF 0.002 behind equal-bandwidth links, so the
// relations of a plan interleave.
func tpchCatalog(names ...string) *Catalog {
	data := datagen.Generate(datagen.Config{ScaleFactor: 0.002, Seed: 42})
	rels := map[string]*source.Relation{}
	for _, n := range names {
		rels[n] = data.Relations()[n].Clone()
	}
	return NewCatalog(rels, func(*source.Relation) source.Schedule { return source.Bandwidth{TuplesPerSec: 1e5} })
}

// phaseEventGoldens' digests cover the events' clocks, so they were
// re-rendered with integer virtual time: every clock is the one before rounded
// to the nanosecond, but for the standing leg's watermarks after its
// mid-maintenance switch, which are 86 915 400 ns later (spj/corrective/P=1/
// clean above). No other field of any event moved.
var phaseEventGoldens = map[string]string{
	"serial-corrective":   "events=21:d2900286cacd8fc4 phases=2 switches=1 maintSwitches=0",
	"parallel-corrective": "events=7:2cfd5d6d7209641b phases=2 switches=1 maintSwitches=0",
	"planpart":            "events=3:646e7788bcef3cc4 phases=2 switches=0 maintSwitches=0",
	"planpart-spj":        "events=4:25fb815dd24100ed phases=2 switches=0 maintSwitches=0",
	"planpart-degenerate": "events=2:dbe8af94aeb2e90d phases=1 switches=0 maintSwitches=0",
	"standing":            "events=26:e1c4835216c6b002 phases=1 switches=0 maintSwitches=1",
}

// TestPhaseEventGoldens: the type and field sequence of the lifecycle
// events of one run of each caller of the phase runner.
func TestPhaseEventGoldens(t *testing.T) {
	misSPJ := func() (*algebra.Query, *Catalog) {
		q, rels := misestimationData(1000)
		q.GroupBy, q.Aggs = nil, nil
		q.Project = []string{"C.k", "A.fk"}
		m := map[string]*source.Relation{}
		for _, r := range rels() {
			m[r.Name] = r
		}
		return q, NewCatalog(m, func(*source.Relation) source.Schedule { return source.Bandwidth{TuplesPerSec: 1e5} })
	}
	q5 := []string{"region", "nation", "supplier", "customer", "orders", "lineitem"}
	legs := []struct {
		name   string
		clocks bool
		run    func(hooks RunHooks) (*Report, error)
	}{
		{name: "serial-corrective", clocks: true, run: func(h RunHooks) (*Report, error) {
			q, cat := misSPJ()
			return RunStream(context.Background(), cat, q, misOptions(1), h)
		}},
		{name: "parallel-corrective", run: func(h RunHooks) (*Report, error) {
			q, cat := misestimationFixture(1000)
			return RunStream(context.Background(), cat(), q, misOptions(4), h)
		}},
		{name: "planpart", clocks: true, run: func(h RunHooks) (*Report, error) {
			return RunStream(context.Background(), tpchCatalog(q5...), workload.Q5(), Options{Strategy: PlanPartition, PollEvery: 500}, h)
		}},
		{name: "planpart-spj", clocks: true, run: func(h RunHooks) (*Report, error) {
			q := workload.Q5()
			q.GroupBy, q.Aggs = nil, nil
			q.Project = []string{"nation.n_name", "lineitem.l_extendedprice"}
			return RunStream(context.Background(), tpchCatalog(q5...), q, Options{Strategy: PlanPartition, PollEvery: 500}, h)
		}},
		{name: "planpart-degenerate", clocks: true, run: func(h RunHooks) (*Report, error) {
			return RunStream(context.Background(), tpchCatalog("customer", "orders", "lineitem"), workload.Q3A(), Options{Strategy: PlanPartition, PollEvery: 500}, h)
		}},
		{name: "standing", clocks: true, run: func(h RunHooks) (*Report, error) {
			q, cat, script := maintSwitchFixture(true)
			c := cat()
			o := Options{Strategy: Corrective, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 8}
			return RunMaintenance(context.Background(), c, q, o, MaintOptions{Deltas: maintDeltaProviders(c, script(c)), FlushEvery: 100}, h)
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			var evs []Event
			rep, err := leg.run(RunHooks{Emit: func(ev Event) { evs = append(evs, ev) }})
			if err != nil {
				t.Fatal(err)
			}
			rendered := renderEvents(evs, leg.clocks)
			got := fmt.Sprintf("events=%d:%s phases=%d switches=%d maintSwitches=%d", len(evs), digest(rendered), len(rep.Phases), rep.Switches, rep.MaintSwitches)
			want, ok := phaseEventGoldens[leg.name]
			if !ok {
				t.Fatalf("no golden; got %q: %q,\n%s", leg.name, got, rendered)
			}
			if got != want {
				t.Errorf("events = %q\n        want %q\n%s", got, want, rendered)
			}
		})
	}
}

var onPollGoldens = map[string]string{
	"phased":      "polls=10 switches=1:857df8340e2cf37c",
	"phased-q5":   "polls=5 switches=0:42f1f7e6ccfddb5c",
	"maintenance": "polls=26 switches=1:c9a2ca036a681671",
}

// TestOnPollGoldens: every monitor decision of a phased and of a
// maintenance corrective run, as Options.OnPoll sees it.
func TestOnPollGoldens(t *testing.T) {
	legs := map[string]func(o Options) (*Report, error){
		"phased": func(o Options) (*Report, error) {
			q, cat := misestimationFixture(1000)
			o.Strategy, o.PollEvery, o.MaxPhases = Corrective, 200, 4
			return Run(cat(), q, o)
		},
		"phased-q5": func(o Options) (*Report, error) {
			o.Strategy = Corrective
			return Run(tpchCatalog("region", "nation", "supplier", "customer", "orders", "lineitem"), workload.Q5(), o)
		},
		"maintenance": func(o Options) (*Report, error) {
			q, cat, script := maintSwitchFixture(false)
			c := cat()
			o.Strategy, o.PollEvery, o.SwitchFactor, o.MaxPhases = Corrective, 64, 0.99, 8
			return RunMaintenance(context.Background(), c, q, o, MaintOptions{Deltas: maintDeltaProviders(c, script(c)), FlushEvery: 100}, RunHooks{})
		},
	}
	for name, run := range legs {
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			polls, switches := 0, 0
			rep, err := run(Options{OnPoll: func(cur, best, penalty float64, switched bool) {
				polls++
				if switched {
					switches++
				}
				fmt.Fprintf(&sb, "%s %s %s %v\n", f64(cur), f64(best), f64(penalty), switched)
			}})
			if err != nil {
				t.Fatal(err)
			}
			if switches != rep.Switches+rep.MaintSwitches {
				t.Errorf("OnPoll saw %d switches, the report %d+%d", switches, rep.Switches, rep.MaintSwitches)
			}
			got := fmt.Sprintf("polls=%d switches=%d:%s", polls, switches, digest(sb.String()))
			want, ok := onPollGoldens[name]
			if !ok {
				t.Fatalf("no golden; got %q: %q,", name, got)
			}
			if got != want {
				t.Errorf("OnPoll sequence = %q, want %q\n%s", got, want, sb.String())
			}
		})
	}
}
