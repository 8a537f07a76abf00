package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// applyDeltas is the brute-force oracle's base-relation updater: the
// post-delta relation under exactly the maintenance driver's semantics —
// per-relation script order, one matching duplicate removed per delete,
// deletes of absent rows clamped. Returns the updated relation and the
// clamp count.
func applyDeltas(rel *source.Relation, deltas []source.Delta) (*source.Relation, int64) {
	rows := append([]types.Tuple{}, rel.Rows...)
	clamped := int64(0)
	var ka, kb []byte
	for _, d := range deltas {
		if d.Sign > 0 {
			rows = append(rows, d.Row)
			continue
		}
		ka = types.AppendKeyAll(ka[:0], d.Row)
		hit := -1
		for i, r := range rows {
			kb = types.AppendKeyAll(kb[:0], r)
			if string(ka) == string(kb) {
				hit = i
				break
			}
		}
		if hit < 0 {
			clamped++
			continue
		}
		rows = append(rows[:hit], rows[hit+1:]...)
	}
	return source.NewRelation(rel.Name, rel.Schema, rows), clamped
}

// flightsDeltas scripts randomized changes against one flights run:
// deletes of existing rows, inserts of fresh rows, and re-deletes of
// just-inserted rows, interleaved on the virtual timeline.
func flightsDeltas(f, tr, c *source.Relation, seed int64) (df, dt, dc []source.Delta) {
	rng := rand.New(rand.NewSource(seed))
	cities := []string{"SEA", "SFO", "PHL", "JFK", "LAX"}
	at := 0.0
	tick := func() float64 { at += 0.01; return at }
	// F: insert new flights, delete some originals.
	for i := 0; i < 40; i++ {
		df = append(df, source.Ins(tick(),
			types.Int(int64(10000+i)),
			types.Str(cities[rng.Intn(len(cities))]),
			types.Str(cities[rng.Intn(len(cities))]),
			types.Int(rng.Int63n(365))))
	}
	for i := 0; i < 30; i++ {
		row := f.Rows[rng.Intn(len(f.Rows))]
		df = append(df, source.Del(tick(), row...))
	}
	// T: heavy churn, including deletes of rows inserted moments earlier.
	for i := 0; i < 120; i++ {
		row := types.Tuple{types.Int(rng.Int63n(400)), types.Int(rng.Int63n(200))}
		dt = append(dt, source.Delta{Row: row, Sign: 1, At: tick()})
		if rng.Intn(3) == 0 {
			dt = append(dt, source.Delta{Row: row.Clone(), Sign: -1, At: tick()})
		}
	}
	for i := 0; i < 60; i++ {
		row := tr.Rows[rng.Intn(len(tr.Rows))]
		dt = append(dt, source.Del(tick(), row...))
	}
	// C: inserts plus deletes of originals.
	for i := 0; i < 80; i++ {
		dc = append(dc, source.Ins(tick(), types.Int(rng.Int63n(400)), types.Int(rng.Int63n(6))))
	}
	for i := 0; i < 40; i++ {
		row := c.Rows[rng.Intn(len(c.Rows))]
		dc = append(dc, source.Del(tick(), row...))
	}
	return df, dt, dc
}

// maintDeltaProviders wraps delta scripts as providers keyed by relation.
func maintDeltaProviders(cat *Catalog, scripts map[string][]source.Delta) map[string]source.Provider {
	out := map[string]source.Provider{}
	for name, ds := range scripts {
		out[name] = source.MustDeltaProvider(cat.Providers[name], ds)
	}
	return out
}

// assertRowsIdentical pins two canonical (key-sorted) row lists
// byte-for-byte.
func assertRowsIdentical(t *testing.T, got, want []types.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	var ka, kb []byte
	for i := range want {
		ka = types.AppendKeyAll(ka[:0], got[i])
		kb = types.AppendKeyAll(kb[:0], want[i])
		if string(ka) != string(kb) {
			t.Fatalf("row %d differs:\n got %v\nwant %v", i, got[i], want[i])
		}
	}
}

// collectUpdates returns hooks with an OnUpdates that appends every window
// to *us before calling hooks' own, if any: a test's hold on a standing
// run's update stream, which leaves a run through that hook alone.
func collectUpdates(us *[]types.Update, hooks RunHooks) RunHooks {
	next := hooks.OnUpdates
	hooks.OnUpdates = func(wm UpdateWatermark, win []types.Update) {
		*us = append(*us, win...)
		if next != nil {
			next(wm, win)
		}
	}
	return hooks
}

// assertMaintainedOracle is the headline pin: the maintained result must
// be byte-identical (as a sorted multiset) to a from-scratch run over
// the post-delta relations, and the run's update stream must fold to it
// without ever going negative.
func assertMaintainedOracle(t *testing.T, rep *Report, updates []types.Update, oracle *Report) {
	t.Helper()
	if int64(len(updates)) != rep.UpdateCount {
		t.Fatalf("%d updates, the report counts %d", len(updates), rep.UpdateCount)
	}
	fold := ivm.Fold(updates)
	if fold.Negative() {
		t.Fatal("update stream folds to a negative multiset (unmatched retraction)")
	}
	assertRowsIdentical(t, fold.Rows(), rep.Maintained)
	assertRowsIdentical(t, rep.Maintained, types.SortedRows(oracle.Rows))
}

func maintFlightsQuery() *algebra.Query {
	q := flightsQuery()
	// Max + sum + avg + count exercise every signed accumulator.
	q.Aggs = []algebra.AggSpec{
		{Kind: algebra.AggMax, Arg: expr.Column("C.num"), As: "mx"},
		{Kind: algebra.AggMin, Arg: expr.Column("C.num"), As: "mn"},
		{Kind: algebra.AggSum, Arg: expr.Column("C.num"), As: "sm"},
		{Kind: algebra.AggAvg, Arg: expr.Column("C.num"), As: "av"},
		{Kind: algebra.AggCount, As: "ct"},
	}
	return q
}

// TestMaintenanceOracleEquivalenceAgg: for Static and Corrective × serial
// and partitioned initial runs, a maintained aggregate equals the
// from-scratch result over the post-delta relations.
func TestMaintenanceOracleEquivalenceAgg(t *testing.T) {
	for _, strat := range []Strategy{Static, Corrective} {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/partitions=%d", strat, parts), func(t *testing.T) {
				f, tr, c := flightsData(150, 400, 300, 41)
				df, dt, dc := flightsDeltas(f, tr, c, 43)
				q := maintFlightsQuery()
				cat := catalogOf(f, tr, c)
				o := Options{Strategy: strat, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 5, Partitions: parts}
				m := MaintOptions{Deltas: maintDeltaProviders(cat, map[string][]source.Delta{
					"F": df, "T": dt, "C": dc,
				}), FlushEvery: 50}

				var marks []UpdateWatermark
				var streamed, baseline []types.Update
				rep, err := RunMaintenance(context.Background(), cat, q, o, m, collectUpdates(&streamed, RunHooks{
					Emit: func(ev Event) {
						if wm, ok := ev.(UpdateWatermark); ok {
							marks = append(marks, wm)
						}
					},
					OnUpdates: func(wm UpdateWatermark, us []types.Update) {
						if wm.Seq == 0 {
							baseline = us
						}
					},
				}))
				if err != nil {
					t.Fatal(err)
				}

				pf, _ := applyDeltas(f, df)
				pt, _ := applyDeltas(tr, dt)
				pc, _ := applyDeltas(c, dc)
				oracle, err := Run(catalogOf(pf, pt, pc), q, Options{Strategy: Static})
				if err != nil {
					t.Fatal(err)
				}
				assertMaintainedOracle(t, rep, streamed, oracle)

				// The initial result is untouched by maintenance: the
				// baseline window asserts exactly it.
				initial, err := Run(catalogOf(f.Clone(), tr.Clone(), c.Clone()), q, Options{Strategy: strat, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 5, Partitions: parts})
				if err != nil {
					t.Fatal(err)
				}
				assertRowsIdentical(t, ivm.Fold(baseline).Rows(), types.SortedRows(initial.Rows))

				// Watermark protocol: baseline first, strictly increasing.
				if len(marks) == 0 || marks[0].Seq != 0 {
					t.Fatalf("no baseline watermark: %+v", marks)
				}
				for i := 1; i < len(marks); i++ {
					if marks[i].Seq != marks[i-1].Seq+1 {
						t.Fatalf("watermark seq gap: %+v", marks)
					}
				}
				if want := int64(len(df) + len(dt) + len(dc)); rep.DeltaRows != want {
					t.Errorf("DeltaRows = %d, want %d", rep.DeltaRows, want)
				}
			})
		}
	}
}

// TestMaintenanceOracleEquivalenceSPJ: the same pin for a projected
// select-project-join pipeline (updates carry signed result rows
// directly).
func TestMaintenanceOracleEquivalenceSPJ(t *testing.T) {
	for _, strat := range []Strategy{Static, Corrective} {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/partitions=%d", strat, parts), func(t *testing.T) {
				f, tr, c := flightsData(100, 250, 200, 47)
				df, dt, dc := flightsDeltas(f, tr, c, 53)
				q := flightsQuery()
				q.GroupBy, q.Aggs = nil, nil
				q.Project = []string{"F.fid", "C.num"}
				cat := catalogOf(f, tr, c)
				o := Options{Strategy: strat, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 5, Partitions: parts}
				m := MaintOptions{Deltas: maintDeltaProviders(cat, map[string][]source.Delta{
					"F": df, "T": dt, "C": dc,
				}), FlushEvery: 64}
				var ups []types.Update
				rep, err := RunMaintenance(context.Background(), cat, q, o, m, collectUpdates(&ups, RunHooks{}))
				if err != nil {
					t.Fatal(err)
				}
				pf, _ := applyDeltas(f, df)
				pt, _ := applyDeltas(tr, dt)
				pc, _ := applyDeltas(c, dc)
				oracle, err := Run(catalogOf(pf, pt, pc), q, Options{Strategy: Static})
				if err != nil {
					t.Fatal(err)
				}
				assertMaintainedOracle(t, rep, ups, oracle)
			})
		}
	}
}

// TestMaintenanceFilterPushdown: delta rows respect the relation's filter
// pushdown — inserts and deletes of rows outside the predicate never
// reach the standing result.
func TestMaintenanceFilterPushdown(t *testing.T) {
	f, tr, c := flightsData(120, 300, 250, 59)
	df, dt, dc := flightsDeltas(f, tr, c, 61)
	q := maintFlightsQuery()
	q.Filters = map[string]expr.Predicate{
		"F": expr.Eq(expr.Column("F.from"), expr.StrLit("SEA")),
	}
	cat := catalogOf(f, tr, c)
	m := MaintOptions{Deltas: maintDeltaProviders(cat, map[string][]source.Delta{
		"F": df, "T": dt, "C": dc,
	})}
	var ups []types.Update
	rep, err := RunMaintenance(context.Background(), cat, q, Options{Strategy: Static}, m, collectUpdates(&ups, RunHooks{}))
	if err != nil {
		t.Fatal(err)
	}
	pf, _ := applyDeltas(f, df)
	pt, _ := applyDeltas(tr, dt)
	pc, _ := applyDeltas(c, dc)
	oracle, err := Run(catalogOf(pf, pt, pc), q, Options{Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	assertMaintainedOracle(t, rep, ups, oracle)
}

func kvSchema(name string) *types.Schema {
	return types.NewSchema(
		types.Column{Name: name + ".k", Kind: types.KindInt},
		types.Column{Name: name + ".v", Kind: types.KindInt},
	)
}

func singleRelQuery(s *types.Schema, groupBy []string, aggs []algebra.AggSpec) *algebra.Query {
	return &algebra.Query{
		Name:      "standing-a",
		Relations: []algebra.RelRef{{Name: "A", Schema: s}},
		GroupBy:   groupBy,
		Aggs:      aggs,
	}
}

// TestMaintenanceDeleteNeverInsertedClamps: a delete with no matching
// live row is clamped at ingress — counted, and absent from the result
// and the update stream.
func TestMaintenanceDeleteNeverInsertedClamps(t *testing.T) {
	s := kvSchema("A")
	rel := source.NewRelation("A", s, []types.Tuple{
		{types.Int(1), types.Int(10)},
		{types.Int(2), types.Int(20)},
	})
	deltas := []source.Delta{
		source.Del(0.1, types.Int(9), types.Int(90)), // never existed
		source.Del(0.2, types.Int(1), types.Int(10)), // real delete
		source.Del(0.3, types.Int(1), types.Int(10)), // second delete of same row: clamped
	}
	q := singleRelQuery(s, nil, nil)
	cat := catalogOf(rel)
	m := MaintOptions{Deltas: maintDeltaProviders(cat, map[string][]source.Delta{"A": deltas})}
	var ups []types.Update
	rep, err := RunMaintenance(context.Background(), cat, q, Options{Strategy: Static}, m, collectUpdates(&ups, RunHooks{}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaClamped != 2 {
		t.Errorf("DeltaClamped = %d, want 2", rep.DeltaClamped)
	}
	want := []types.Tuple{{types.Int(2), types.Int(20)}}
	assertRowsIdentical(t, rep.Maintained, types.SortedRows(want))
	for _, u := range ups {
		if u.Row[0].I == 9 {
			t.Fatalf("clamped delete leaked into updates: %+v", u)
		}
	}
}

// TestMaintenanceGroupCountToZeroRetracts: deleting a group's last
// contributing row retracts the group — it must NOT survive as a
// count-0 row, matching the from-scratch result over the post-delta
// base.
func TestMaintenanceGroupCountToZeroRetracts(t *testing.T) {
	s := kvSchema("A")
	rel := source.NewRelation("A", s, []types.Tuple{
		{types.Int(1), types.Int(10)},
		{types.Int(1), types.Int(11)},
		{types.Int(2), types.Int(20)},
	})
	deltas := []source.Delta{
		source.Del(0.1, types.Int(1), types.Int(10)),
		source.Del(0.2, types.Int(1), types.Int(11)),
	}
	q := singleRelQuery(s, []string{"A.k"}, []algebra.AggSpec{
		{Kind: algebra.AggCount, As: "n"},
		{Kind: algebra.AggSum, Arg: expr.Column("A.v"), As: "sm"},
	})
	cat := catalogOf(rel)
	m := MaintOptions{Deltas: maintDeltaProviders(cat, map[string][]source.Delta{"A": deltas})}
	var ups []types.Update
	rep, err := RunMaintenance(context.Background(), cat, q, Options{Strategy: Static}, m, collectUpdates(&ups, RunHooks{}))
	if err != nil {
		t.Fatal(err)
	}
	post, _ := applyDeltas(rel, deltas)
	oracle, err := Run(catalogOf(post), q, Options{Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	assertMaintainedOracle(t, rep, ups, oracle)
	if len(rep.Maintained) != 1 || rep.Maintained[0][0].I != 2 {
		t.Fatalf("group 1 must be retracted, maintained = %v", rep.Maintained)
	}
	// The retraction must be the group's previously asserted revision —
	// never a fresh count-0 assertion.
	for _, u := range ups {
		if u.Sign > 0 && u.Row[0].I == 1 && u.Row[1].I == 0 {
			t.Fatalf("emptied group asserted with count 0: %+v", u)
		}
	}
}

// TestMaintenanceDuplicateMultiplicity: with duplicate base rows, one
// delete removes exactly one occurrence.
func TestMaintenanceDuplicateMultiplicity(t *testing.T) {
	s := kvSchema("A")
	dup := types.Tuple{types.Int(1), types.Int(10)}
	rel := source.NewRelation("A", s, []types.Tuple{dup, dup.Clone(), {types.Int(2), types.Int(20)}})
	deltas := []source.Delta{source.Del(0.1, types.Int(1), types.Int(10))}
	q := singleRelQuery(s, nil, nil)
	cat := catalogOf(rel)
	m := MaintOptions{Deltas: maintDeltaProviders(cat, map[string][]source.Delta{"A": deltas})}
	rep, err := RunMaintenance(context.Background(), cat, q, Options{Strategy: Static}, m, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := []types.Tuple{{types.Int(1), types.Int(10)}, {types.Int(2), types.Int(20)}}
	assertRowsIdentical(t, rep.Maintained, types.SortedRows(want))
	if rep.DeltaClamped != 0 {
		t.Errorf("DeltaClamped = %d, want 0", rep.DeltaClamped)
	}
}

// TestMaintenanceForcedPlanSwitch: tiny initial relations mislead both
// the join-table sizing and the plan shape; a large skewed delta flood
// then makes the corrective monitor switch the maintenance plan
// mid-stream. The pin requires at least one switch AND the oracle
// equality to survive it — the rebuilt tree must replay history exactly.
func TestMaintenanceForcedPlanSwitch(t *testing.T) {
	aS := kvSchema("A")
	bS := types.NewSchema(types.Column{Name: "B.k", Kind: types.KindInt})
	cS := types.NewSchema(types.Column{Name: "C.k", Kind: types.KindInt})
	// Initial: a handful of rows everywhere — the optimizer sizes tables
	// and picks a shape for toy cardinalities.
	aRows := []types.Tuple{}
	for i := 0; i < 5; i++ {
		aRows = append(aRows, types.Tuple{types.Int(int64(i)), types.Int(int64(i % 2))})
	}
	bRows := []types.Tuple{{types.Int(0)}, {types.Int(1)}}
	cRows := []types.Tuple{{types.Int(0)}, {types.Int(1)}, {types.Int(2)}}
	q := &algebra.Query{
		Name: "maint-switch",
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
	// Rename A.v to A.fk for the join above.
	aS2 := types.NewSchema(
		types.Column{Name: "A.k", Kind: types.KindInt},
		types.Column{Name: "A.fk", Kind: types.KindInt},
	)
	q.Relations[0].Schema = aS2
	a := source.NewRelation("A", aS2, aRows)
	b := source.NewRelation("B", bS, bRows)
	c := source.NewRelation("C", cS, cRows)

	// Deltas: B explodes with heavy duplication (multiplicative join), C
	// grows large and selective — after a few hundred rows the observed
	// stats favor a different join order.
	rng := rand.New(rand.NewSource(71))
	var db, dc, da []source.Delta
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
	cat := catalogOf(a, b, c)
	m := MaintOptions{Deltas: maintDeltaProviders(cat, map[string][]source.Delta{
		"A": da, "B": db, "C": dc,
	}), FlushEvery: 100}
	var switches int
	var ups []types.Update
	rep, err := RunMaintenance(context.Background(), cat, q,
		Options{Strategy: Corrective, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 8}, m, collectUpdates(&ups, RunHooks{
			Emit: func(ev Event) {
				if _, ok := ev.(PlanSwitched); ok {
					switches++
				}
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaintSwitches == 0 {
		t.Fatal("monitor never switched the maintenance plan; fixture needs more skew")
	}
	if switches < rep.MaintSwitches {
		t.Errorf("PlanSwitched events = %d < MaintSwitches = %d", switches, rep.MaintSwitches)
	}
	pa, _ := applyDeltas(a, da)
	pb, _ := applyDeltas(b, db)
	pc, _ := applyDeltas(c, dc)
	oracle, err := Run(catalogOf(pa, pb, pc), q, Options{Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	assertMaintainedOracle(t, rep, ups, oracle)
	t.Logf("maintenance switches=%d updates=%d", rep.MaintSwitches, len(ups))
}

// TestMaintenanceChaosDeltaFailover is the maintenance chaos pin: a
// delta stream that stalls, fails transiently, and finally dies over to
// a mirror mid-maintenance must converge to exactly the fault-free
// standing result, with the degradation narrated and counted under the
// "<rel>.delta" key.
func TestMaintenanceChaosDeltaFailover(t *testing.T) {
	f, tr, c := flightsData(120, 300, 250, 67)
	df, dt, dc := flightsDeltas(f, tr, c, 73)
	q := maintFlightsQuery()
	o := Options{Strategy: Corrective, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 5}

	// Fault-free reference run.
	cat := catalogOf(f, tr, c)
	base, err := RunMaintenance(context.Background(), cat, q, o, MaintOptions{
		Deltas: maintDeltaProviders(cat, map[string][]source.Delta{"F": df, "T": dt, "C": dc}),
	}, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: T's delta stream stalls, retries a transient, then dies
	// permanently and fails over to a mirror delta relation.
	cat2 := catalogOf(f.Clone(), tr.Clone(), c.Clone())
	deltas := maintDeltaProviders(cat2, map[string][]source.Delta{"F": df, "C": dc})
	mirror := source.DeltaRelation("T", tSchema(), dt)
	faulty := source.NewFaulty(
		source.MustDeltaProvider(cat2.Providers["T"], dt),
		source.NewFaultSchedule(
			source.Fault{At: 20, Kind: source.FaultStall, Stall: 5},
			source.Fault{At: 45, Kind: source.FaultTransient, Times: 1},
			source.Fault{At: 80, Kind: source.FaultPermanent},
		),
		source.RetryPolicy{MaxAttempts: 3, Backoff: 0.5, Mirror: mirror, FailoverDelay: 2},
	)
	deltas["T"] = faulty
	var failedOver, stalled bool
	rep, err := RunMaintenance(context.Background(), cat2, q, o, MaintOptions{Deltas: deltas}, RunHooks{
		Emit: func(ev Event) {
			switch e := ev.(type) {
			case SourceFailedOver:
				if e.Source == "T" {
					failedOver = true
				}
			case SourceStalled:
				if e.Source == "T" {
					stalled = true
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("chaos maintenance run failed: %v", err)
	}
	if !stalled || !failedOver {
		t.Fatalf("degradation not narrated: stalled=%v failedOver=%v", stalled, failedOver)
	}
	st, ok := rep.SourceFaults["T.delta"]
	if !ok || !st.FailedOver {
		t.Fatalf(`SourceFaults["T.delta"] = %+v`, st)
	}
	// The recovered standing result is exactly the fault-free one.
	assertRowsIdentical(t, rep.Maintained, base.Maintained)
	if rep.DeltaRows != base.DeltaRows {
		t.Errorf("DeltaRows = %d, fault-free %d", rep.DeltaRows, base.DeltaRows)
	}
}

// TestMaintenancePlanPartitionRejected: the two-stage strategy has no
// retained state to maintain.
func TestMaintenancePlanPartitionRejected(t *testing.T) {
	f, tr, c := flightsData(10, 10, 10, 79)
	cat := catalogOf(f, tr, c)
	_, err := RunMaintenance(context.Background(), cat, flightsQuery(),
		Options{Strategy: PlanPartition}, MaintOptions{}, RunHooks{})
	if err == nil {
		t.Fatal("PlanPartition maintenance must be rejected")
	}
}

// TestMaintenanceUnknownDeltaRelation: delta streams must name query
// relations.
func TestMaintenanceUnknownDeltaRelation(t *testing.T) {
	f, tr, c := flightsData(10, 10, 10, 83)
	cat := catalogOf(f, tr, c)
	bogus := source.MustDeltaProvider(cat.Providers["F"], nil)
	_, err := RunMaintenance(context.Background(), cat, flightsQuery(),
		Options{Strategy: Static},
		MaintOptions{Deltas: map[string]source.Provider{"Z": bogus}}, RunHooks{})
	if err == nil {
		t.Fatal("unknown delta relation must be rejected")
	}
}

// TestMaintenanceNoDeltasIsBaselineOnly: with no delta streams the
// standing result is the initial result, delivered as the baseline
// watermark and nothing after it.
func TestMaintenanceNoDeltasIsBaselineOnly(t *testing.T) {
	f, tr, c := flightsData(80, 200, 150, 89)
	q := maintFlightsQuery()
	var windows [][]types.Update
	rep, err := RunMaintenance(context.Background(), catalogOf(f, tr, c), q,
		Options{Strategy: Static}, MaintOptions{}, RunHooks{
			OnUpdates: func(_ UpdateWatermark, us []types.Update) { windows = append(windows, us) },
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 1 {
		t.Fatalf("%d windows, want the baseline alone", len(windows))
	}
	initial, err := Run(catalogOf(f.Clone(), tr.Clone(), c.Clone()), q, Options{Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	assertRowsIdentical(t, ivm.Fold(windows[0]).Rows(), types.SortedRows(initial.Rows))
	assertRowsIdentical(t, rep.Maintained, types.SortedRows(initial.Rows))
	for _, u := range windows[0] {
		if u.Sign != 1 {
			t.Fatalf("baseline-only run emitted a retraction: %+v", u)
		}
	}
}

// TestMaintenanceTracksOnlyDeltaRelations: a delete is clamped against the
// join side that buffers its relation's rows, so a standing Q3A whose only
// delta stream is lineitem's builds no KeyedSide at all — no relation's rows
// are indexed a second time — and clamps, counts and emits
// exactly what commit a34c48a, which tracked every relation, did (the update
// stream is TestMaintenanceRunGoldens' agg/static/P=1/clean leg's).
func TestMaintenanceTracksOnlyDeltaRelations(t *testing.T) {
	_, mt, rep, updates := standingRun(t, q3aChurn, false, Options{Strategy: Static, PollEvery: 256}, nil)
	if mt.side != nil {
		t.Fatal("a KeyedSide was built: lineitem's join side answers the clamp")
	}
	for _, rel := range []string{"customer", "orders"} {
		if mt.fed(rel) == 0 {
			t.Errorf("the tree was fed no %s rows: the fixture no longer reads it", rel)
		}
	}
	if got, want := updateDigest(rep, updates), "952:096b55a08e6e768c clamped=157"; got != want {
		t.Errorf("update stream = %s, want %s", got, want)
	}
}

// TestMaintenanceDeliversResultOnce: a standing query's initial result
// leaves the run once, as the baseline window. Over {aggregate, SPJ} ×
// {serial, 4 partitions} × {no pre-aggregation, windowed} — every way the
// set-up takes over the initial run — OnRows is never called, RowCount is
// the baseline window's size and the one-shot run's, and the baseline window
// folds to the one-shot run's rows.
func TestMaintenanceDeliversResultOnce(t *testing.T) {
	for _, spj := range []bool{false, true} {
		for _, parts := range []int{1, 4} {
			for _, preAgg := range []opt.PreAggMode{opt.PreAggNone, opt.PreAggWindowed} {
				name := fmt.Sprintf("%s/P=%d/%v", map[bool]string{false: "agg", true: "spj"}[spj], parts, preAgg)
				t.Run(name, func(t *testing.T) {
					q, cat, script := q3aChurn(spj)
					o := Options{Strategy: Static, PollEvery: 256, Partitions: parts, PreAgg: preAgg}
					c := cat()
					var onRows int
					var baseline []types.Update
					rep, err := RunMaintenance(context.Background(), c, q, o, MaintOptions{Deltas: maintDeltaProviders(c, script(c)), FlushEvery: 100}, RunHooks{
						OnRows: func([]types.Tuple) { onRows++ },
						OnUpdates: func(wm UpdateWatermark, us []types.Update) {
							if wm.Seq == 0 {
								baseline = us
							}
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					once, err := Run(cat(), q, o)
					if err != nil {
						t.Fatal(err)
					}
					if onRows != 0 || rep.Rows != nil {
						t.Errorf("OnRows called %d times, Report.Rows holds %d rows", onRows, len(rep.Rows))
					}
					if rep.RowCount != int64(len(baseline)) || rep.RowCount != once.RowCount {
						t.Errorf("RowCount = %d, baseline window %d, one-shot run %d", rep.RowCount, len(baseline), once.RowCount)
					}
					// The standing aggregate absorbs raw rows (optInputs turns
					// pre-aggregation off), and a pre-aggregate sums its
					// partials in another order: the baseline's bits are a
					// one-shot run's without one.
					if preAgg != opt.PreAggNone {
						o.PreAgg = opt.PreAggNone
						if once, err = Run(cat(), q, o); err != nil {
							t.Fatal(err)
						}
					}
					assertRowsIdentical(t, ivm.Fold(baseline).Rows(), types.SortedRows(once.Rows))
				})
			}
		}
	}
}
