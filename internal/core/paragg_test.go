package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Parallel aggregation: at P > 1 every partition clone aggregates into a
// table of its own and the tables fold into the shared group-by when the
// phase ends. These tests pin what that may and may not change.

// parAggFixture is a query, fresh catalogs over its data, and the
// cardinalities its sources advertise.
type parAggFixture struct {
	q     *algebra.Query
	cat   func() *Catalog
	known map[string]float64
}

// bitRows renders rows with every float as its bit pattern.
func bitRows(rows []types.Tuple) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			if v.K == types.KindFloat {
				fmt.Fprintf(&sb, "f%016x|", math.Float64bits(v.F))
			} else {
				sb.WriteString(v.String() + "|")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// sharedKeyFixture is the Q3A shape reduced to what matters here: three
// relations joined on one shared key, grouped by that key, so the group key
// covers the root join's partition key whatever the join order and every
// group lives in one partition. All three joins hash on k, so every exchange
// keeps its rows in their own partition and each partition's input order is
// the driver's — the run is deterministic to the bit. S.x does not add
// exactly: any change in the order a group's rows are summed shows. The
// advertised cardinalities mislead (R⋈S multiplies, U is the small one), so
// a blocking pre-aggregate looks worth planning and a corrective run has
// plans to switch away from.
func sharedKeyFixture(seed int64) parAggFixture {
	rS := types.NewSchema(types.Column{Name: "R.k", Kind: types.KindInt}, types.Column{Name: "R.name", Kind: types.KindString})
	sS := types.NewSchema(types.Column{Name: "S.k", Kind: types.KindInt}, types.Column{Name: "S.x", Kind: types.KindFloat})
	uS := types.NewSchema(types.Column{Name: "U.k", Kind: types.KindInt}, types.Column{Name: "U.z", Kind: types.KindInt})
	const keys = 400
	rng := rand.New(rand.NewSource(seed))
	var rRows, sRows, uRows []types.Tuple
	for i := 0; i < 4*keys; i++ {
		rRows = append(rRows, types.Tuple{types.Int(int64(i % keys)), types.Str(fmt.Sprintf("n%d", i/keys))})
	}
	rng.Shuffle(len(rRows), func(i, j int) { rRows[i], rRows[j] = rRows[j], rRows[i] })
	for i := 0; i < 6*keys; i++ {
		sRows = append(sRows, types.Tuple{types.Int(rng.Int63n(keys)), types.Float(float64(rng.Int63n(100000)) * 0.01)})
	}
	for i := 0; i < keys/3; i++ {
		uRows = append(uRows, types.Tuple{types.Int(rng.Int63n(keys)), types.Int(rng.Int63n(9))})
	}
	q := &algebra.Query{
		Name: "sharedkey",
		Relations: []algebra.RelRef{
			{Name: "R", Schema: rS}, {Name: "S", Schema: sS}, {Name: "U", Schema: uS},
		},
		Joins: []algebra.JoinPred{
			{LeftRel: "R", LeftCol: "k", RightRel: "S", RightCol: "k"},
			{LeftRel: "S", LeftCol: "k", RightRel: "U", RightCol: "k"},
		},
		GroupBy: []string{"R.k", "R.name"},
		Aggs: []algebra.AggSpec{
			{Kind: algebra.AggSum, Arg: expr.Column("S.x"), As: "sm"},
			{Kind: algebra.AggAvg, Arg: expr.Column("S.x"), As: "av"},
			{Kind: algebra.AggMin, Arg: expr.Column("S.x"), As: "mn"},
			{Kind: algebra.AggMax, Arg: expr.Column("S.x"), As: "mx"},
			{Kind: algebra.AggCount, As: "ct"},
		},
	}
	return parAggFixture{
		q:     q,
		known: map[string]float64{"R": 100, "S": 2400, "U": 5000},
		cat: func() *Catalog {
			return catalogOf(
				source.NewRelation("R", rS, rRows),
				source.NewRelation("S", sS, sRows),
				source.NewRelation("U", uS, uRows),
			)
		},
	}
}

// spanningFixture is the flights query (Q5's shape: two different join keys,
// groups on a third column set, so groups span partitions) with aggregates
// whose float argument does not add exactly, and advertised cardinalities
// that mislead for the same two reasons as sharedKeyFixture's.
func spanningFixture(seed int64) parAggFixture {
	f, tr, c := flightsData(150, 400, 300, seed)
	q := flightsQuery()
	tenth := expr.Mul(expr.Column("C.num"), expr.FloatLit(0.1))
	q.Aggs = []algebra.AggSpec{
		{Kind: algebra.AggMax, Arg: expr.Column("C.num"), As: "mx"},
		{Kind: algebra.AggSum, Arg: tenth, As: "sm"},
		{Kind: algebra.AggAvg, Arg: tenth, As: "av"},
		{Kind: algebra.AggCount, As: "ct"},
	}
	return parAggFixture{
		q:     q,
		known: map[string]float64{"F": 5000, "T": 100, "C": 300},
		cat:   func() *Catalog { return catalogOf(f.Clone(), tr.Clone(), c.Clone()) },
	}
}

// bufferedThenAbsorbed runs plan's P clones the way the engine did before
// partitions aggregated for themselves — every clone's root join into its
// PartitionMerge buffer, the buffers drained in partition order through one
// adapter into one table on the driver — and returns that table's result.
// It is the reference the in-partition aggregate must match bit for bit
// wherever a group lives in one partition.
func bufferedThenAbsorbed(t *testing.T, fx parAggFixture, mode opt.PreAggMode, parts, pollEvery int) []types.Tuple {
	t.Helper()
	q, cat := fx.q, fx.cat()
	ex, _, err := prepareRun(nil, cat, q, Options{Strategy: Static, PreAgg: mode}, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	best, err := opt.Optimize(opt.Inputs{Query: q, Known: fx.known, Cost: ex.ctx.Cost, PreAgg: mode})
	if err != nil {
		t.Fatal(err)
	}
	merge := exec.NewPartitionMerge(parts)
	pt, err := LowerPartitioned(parts, nil, best.Root, merge)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		names[i] = r.Name
	}
	handlers, err := pt.Handlers(names)
	if err != nil {
		t.Fatal(err)
	}
	pd := exec.NewParallelDriver(ex.ctx, pt.Ctxs)
	pd.Bind(handlers, pt.RunFinisher, pt.FinishSteps())
	pt.Bind(pd.StageSend, len(names))
	var leaves []*exec.Leaf
	for i, rel := range q.Relations {
		leaves = append(leaves, &exec.Leaf{Provider: cat.Providers[rel.Name], PushBatch: exec.Feed(pd.LeafScatter(i, pt.LeafKeys[rel.Name]))})
	}
	// The same read-batch boundaries as the engine's phase loop: polls
	// split source runs.
	if exhausted, err := pd.RunContext(context.Background(), leaves, pollEvery, func() bool { return false }); err != nil || !exhausted {
		t.Fatal("reference run did not exhaust its sources")
	}
	pd.Finish()
	pd.Close()
	sink, err := ex.outputSink(best.Root)
	if err != nil {
		t.Fatal(err)
	}
	merge.Drain(sink)
	ex.agg.EmitFinal(ex.out.next)
	return ex.out.kept
}

var (
	parAggWidths = []int{2, 3, 4}
	parAggModes  = map[string]opt.PreAggMode{"none": opt.PreAggNone, "blocking": opt.PreAggTraditional, "windowed": opt.PreAggWindowed}
)

// forcedSwitching is the corrective configuration that switches plans at
// nearly every poll, so runs have several phases and a stitch-up.
func forcedSwitching(o Options) Options {
	o.Strategy, o.PollEvery, o.SwitchFactor, o.MaxPhases = Corrective, 50, 0.99, 5
	return o
}

// assertAggRowsWithin compares aggregate results: group columns, counts,
// min/max and NULLs exactly, float columns within rel (0 = to the bit).
func assertAggRowsWithin(t *testing.T, got, want []types.Tuple, rel float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			g, w := got[i][c], want[i][c]
			if rel > 0 && g.K == types.KindFloat && w.K == types.KindFloat {
				if math.Abs(g.F-w.F) > rel*math.Max(math.Abs(w.F), 1) {
					t.Fatalf("row %d col %d = %v, want %v (rel %g)", i, c, g, w, rel)
				}
				continue
			}
			if !types.StrictEqual(g, w) {
				t.Fatalf("row %d col %d = %v, want %v", i, c, g, w)
			}
		}
	}
}

// TestParallelAggDisjointGroupsBitIdentical: where the group key covers the
// root join's partition key, a one-phase run at P partitions gives — to the
// last bit of every float sum — what buffering the clones' root rows and
// absorbing them serially in partition order gives, with and without a
// pre-aggregate under the join. Each group's rows meet one table in one
// order either way; only where that table lives has changed.
func TestParallelAggDisjointGroupsBitIdentical(t *testing.T) {
	for name, mode := range parAggModes {
		for _, parts := range parAggWidths {
			t.Run(fmt.Sprintf("%s/P=%d", name, parts), func(t *testing.T) {
				fx := sharedKeyFixture(7)
				o := Options{Strategy: Static, PreAgg: mode, Partitions: parts, Known: fx.known}
				rep, err := Run(fx.cat(), fx.q, o)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Partitions != parts {
					t.Fatalf("run fell back to %d partitions", rep.Partitions)
				}
				if pre := strings.Contains(rep.Phases[0].Plan, "PreAgg"); pre != (mode != opt.PreAggNone) {
					t.Fatalf("pre-aggregate in plan = %v under mode %s: %s", pre, name, rep.Phases[0].Plan)
				}
				o.defaults()
				want := bufferedThenAbsorbed(t, fx, mode, parts, o.PollEvery)
				if got, want := bitRows(rep.Rows), bitRows(want); got != want {
					t.Errorf("rows differ from buffer-then-absorb:\n%s\nwant\n%s", got, want)
				}
				again, err := Run(fx.cat(), fx.q, o)
				if err != nil {
					t.Fatal(err)
				}
				if bitRows(again.Rows) != bitRows(rep.Rows) {
					t.Error("two runs of one configuration differ")
				}
			})
		}
	}
}

// TestParallelAggMatchesSerial is the rest of the matrix: Static and
// Corrective with forced switching and a stitch-up, P in {2,3,4}, groups
// confined to a partition and groups spanning partitions, no pre-aggregate,
// a blocking one and a windowed one. Against the serial run of the same
// strategy, group columns, counts, min and max are exact; float sums and
// averages may differ by reassociation only — a group that spans partitions
// or phases adds per-partition, per-phase sums where the serial run adds
// rows.
func TestParallelAggMatchesSerial(t *testing.T) {
	fixtures := map[string]func(int64) parAggFixture{
		"disjoint": sharedKeyFixture,
		"spanning": spanningFixture,
	}
	for fname, fixture := range fixtures {
		for mname, mode := range parAggModes {
			for _, strat := range []Strategy{Static, Corrective} {
				fx := fixture(17)
				base := Options{Strategy: strat, PreAgg: mode, Known: fx.known}
				if strat == Corrective {
					base = forcedSwitching(base)
				}
				serial, err := Run(fx.cat(), fx.q, base)
				if err != nil {
					t.Fatal(err)
				}
				for _, parts := range parAggWidths {
					t.Run(fmt.Sprintf("%s/%s/%s/P=%d", fname, mname, strat, parts), func(t *testing.T) {
						o := base
						o.Partitions = parts
						rep, err := Run(fx.cat(), fx.q, o)
						if err != nil {
							t.Fatal(err)
						}
						if rep.Partitions != parts {
							t.Fatalf("run fell back to %d partitions", rep.Partitions)
						}
						if pre := strings.Contains(rep.Phases[0].Plan, "PreAgg"); pre != (mode != opt.PreAggNone) {
							t.Fatalf("pre-aggregate in plan = %v under mode %s: %s", pre, mname, rep.Phases[0].Plan)
						}
						if strat == Corrective && (rep.Switches == 0 || rep.StitchCombos == 0) {
							t.Fatalf("fixture no longer forces a switch and a stitch-up (switches %d, combos %d)", rep.Switches, rep.StitchCombos)
						}
						assertAggRowsWithin(t, rep.Rows, serial.Rows, 1e-9)
					})
				}
			}
		}
	}
}

// TestParallelAggStateFollowsGroups pins the memory the design buys on any
// machine, as a ratio: a P=2 aggregate run allocates at most 1.39x what the
// serial run of the same query does (buffering the root join's output for a
// serial absorb made it 10.6x on this fixture), and no aggregate query is
// given a PartitionMerge to buffer into.
//
// The bound was 1.3 (1.20 measured, 1.27 under -race) until hash tables
// became indexes over chunked lists. That took 19% off the P=2 run (5.42 →
// 4.39 MB) and 22% off the serial one (4.51 → 3.51 MB): what is left at P=2
// is per-partition fixed cost no table layout touches (emit arenas, the
// partition aggregates' fold, scatter buffers), so the ratio rose to 1.25
// (1.32 under -race) because its denominator fell further. Hence both runs
// are also pinned below what commit 7e491a5 allocated, and the ratio at
// the worst measured plus 5%.
//
// Since aggregate groups live in a flat group store, the serial run
// allocates 2.76 MB and the P=2 run 3.42-3.43 MB (2.77 and 3.62-3.79 under
// -race, where sync.Pool drops some of the parallel driver's buffers):
// ratio 1.24 (1.31-1.37), inside the bound. Neither run finds a pooled
// spare, so the P=2 run's shared group-by takes the partition tables'
// chunks rather than copy their groups (state.Groups.Adopt). The absolute
// pins are those cold figures, the worst measured, plus 5%.
func TestParallelAggStateFollowsGroups(t *testing.T) {
	// A join that multiplies: 20k source rows, 48k root rows, 2000 groups.
	const keys = 2000
	aS := types.NewSchema(types.Column{Name: "A.k", Kind: types.KindInt}, types.Column{Name: "A.v", Kind: types.KindFloat})
	bS := types.NewSchema(types.Column{Name: "B.k", Kind: types.KindInt}, types.Column{Name: "B.w", Kind: types.KindInt})
	var aRows, bRows []types.Tuple
	for i := 0; i < 6*keys; i++ {
		aRows = append(aRows, types.Tuple{types.Int(int64(i % keys)), types.Float(float64(i) * 0.25)})
	}
	for i := 0; i < 4*keys; i++ {
		bRows = append(bRows, types.Tuple{types.Int(int64(i % keys)), types.Int(int64(i))})
	}
	q := &algebra.Query{
		Name:      "fanout",
		Relations: []algebra.RelRef{{Name: "A", Schema: aS}, {Name: "B", Schema: bS}},
		Joins:     []algebra.JoinPred{{LeftRel: "A", LeftCol: "k", RightRel: "B", RightCol: "k"}},
		GroupBy:   []string{"A.k"},
		Aggs: []algebra.AggSpec{
			{Kind: algebra.AggSum, Arg: expr.Mul(expr.Column("A.v"), expr.Column("B.w")), As: "s"},
			{Kind: algebra.AggCount, As: "n"},
		},
	}
	cat := func() *Catalog {
		return catalogOf(source.NewRelation("A", aS, aRows), source.NewRelation("B", bS, bRows))
	}
	allocated := func(parts int) (uint64, *Report) {
		c := cat()
		var before, after runtime.MemStats
		// Two collections empty the pool of spares (state.TakeSpare): each
		// run allocates all the storage it needs, not what the run before
		// it left too little of.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := Run(c, q, Options{Strategy: Static, Partitions: parts})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, rep
	}
	allocated(2) // warm whatever the first run of anything allocates once
	serialBytes, serial := allocated(1)
	parBytes, par := allocated(2)
	if par.Partitions != 2 {
		t.Fatalf("run fell back to %d partitions", par.Partitions)
	}
	assertAggRowsWithin(t, par.Rows, serial.Rows, 1e-9)
	if ratio := float64(parBytes) / float64(serialBytes); ratio > 1.39 {
		t.Errorf("P=2 allocated %d B, serial %d B: ratio %.2f, want <= 1.39", parBytes, serialBytes, ratio)
	}
	const pinPar, pinSerial = 3_983_000, 2_909_000
	if parBytes > pinPar || serialBytes > pinSerial {
		t.Errorf("P=2 allocated %d B, serial %d B: want at most %d and %d", parBytes, serialBytes, pinPar, pinSerial)
	}

	ex, _, err := prepareRun(nil, cat(), q, Options{Strategy: Static, Partitions: 2}, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if _, merge, tables := ex.partitionRoots(algebra.NewScan(q.Relations[0]), 2); merge != nil || len(tables) != 2 {
		t.Errorf("aggregate query: merge = %v, %d partition tables; want no merge and 2 tables", merge, len(tables))
	}
	spj := *q
	spj.GroupBy, spj.Aggs, spj.Project = nil, nil, []string{"A.k", "B.w"}
	if ex, _, err = prepareRun(nil, cat(), &spj, Options{Strategy: Static, Partitions: 2}, RunHooks{}); err != nil {
		t.Fatal(err)
	}
	if _, merge, tables := ex.partitionRoots(algebra.NewScan(q.Relations[0]), 2); merge == nil || tables != nil {
		t.Errorf("SPJ query: merge = %v, %d partition tables; want a merge and no tables", merge, len(tables))
	}
}
