package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Standing set-up goldens. A standing query's maintenance stage starts from
// whatever its initial run left behind, and what that is depends on the run's
// shape; these legs are the shapes the set-up tells apart. standingParent was
// written by commit 50935f1, which rebuilt the join state of every one of them
// by replaying a log of the base rows into a second tree. The set-up that
// adopts the initial run's tree and group-by where it can is held to it, less
// what standingRebaselined lists.

// standingFixture is a query, a constructor of fresh catalogs over its
// relations and the delta scripts to maintain it against.
type standingFixture func(spj bool) (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta)

// q3aMinMax is q3aChurn with a min and a max beside Q3A's sum, so retractions
// reach the value bags.
func q3aMinMax(spj bool) (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta) {
	q, cat, script := q3aChurn(spj)
	if !spj {
		q.Aggs = append(q.Aggs,
			algebra.AggSpec{Kind: algebra.AggMin, Arg: expr.Column("lineitem.l_extendedprice"), As: "lo"},
			algebra.AggSpec{Kind: algebra.AggMax, Arg: expr.Column("lineitem.l_extendedprice"), As: "hi"})
	}
	return q, cat, script
}

// misChurn is the misestimation fixture, whose corrective initial run
// switches plans, with inserts and retractions scripted against all three of
// its relations.
func misChurn(spj bool) (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta) {
	q, cat := misestimationFixture(1000)
	if spj {
		q.GroupBy, q.Aggs = nil, nil
		q.Project = []string{"C.k", "A.fk"}
	}
	script := func(*Catalog) map[string][]source.Delta {
		rng := rand.New(rand.NewSource(17))
		ds := map[string][]source.Delta{}
		at := 0.0
		for i := 0; i < 600; i++ {
			at += 0.001
			switch i % 6 {
			case 0:
				ds["A"] = append(ds["A"], source.Ins(at, types.Int(int64(rng.Intn(1200))), types.Int(int64(rng.Intn(5)))))
			case 1:
				k := int64(rng.Intn(1000))
				ds["A"] = append(ds["A"], source.Del(at, types.Int(k), types.Int(k%5)))
			case 2:
				ds["B"] = append(ds["B"], source.Ins(at, types.Int(int64(rng.Intn(5)))))
			case 3:
				ds["B"] = append(ds["B"], source.Del(at, types.Int(int64(rng.Intn(6)))))
			case 4:
				ds["C"] = append(ds["C"], source.Ins(at, types.Int(int64(rng.Intn(1200)))))
			default:
				ds["C"] = append(ds["C"], source.Del(at, types.Int(int64(rng.Intn(1100)))))
			}
		}
		return ds
	}
	return q, cat, script
}

// standingLegs are the initial-run shapes, named by what the maintenance
// set-up makes of each: adopted (the initial phase's tree is the maintenance
// tree), built (a tree is lowered and warmed from join lists, root
// suppressed) and replayed (a tree is warmed through a live root).
var standingLegs = []struct {
	name    string
	fixture standingFixture
	o       Options
	faulty  string // the relation whose delta stream fails over in the failover variant
}{
	{"adopted-static", q3aMinMax, Options{Strategy: Static, PollEvery: 256}, "lineitem"},
	{"adopted-corrective", q3aMinMax, Options{Strategy: Corrective, PollEvery: 256}, "lineitem"},
	{"built-initial-switch", misChurn, Options{Strategy: Corrective, PollEvery: 200, MaxPhases: 4}, "A"},
	{"built-maint-switch", maintSwitchFixture, Options{Strategy: Corrective, PollEvery: 64, SwitchFactor: 0.99, MaxPhases: 8}, "A"},
	{"replayed-p4", q3aMinMax, Options{Strategy: Static, PollEvery: 256, Partitions: 4}, "lineitem"},
	{"replayed-windowed", q3aMinMax, Options{Strategy: Static, PollEvery: 256, PreAgg: opt.PreAggWindowed}, "lineitem"},
	{"replayed-traditional", q3aMinMax, Options{Strategy: Static, PollEvery: 256, PreAgg: opt.PreAggTraditional}, "lineitem"},
}

// failOver makes the delta stream of rel stall, fail once transiently, then
// die for good and fail over to a mirror of the same script.
func failOver(q *algebra.Query, deltas map[string]source.Provider, scripts map[string][]source.Delta, rel string) {
	r, _ := relOf(q, rel)
	deltas[rel] = source.NewFaulty(deltas[rel],
		source.NewFaultSchedule(
			source.Fault{At: 20, Kind: source.FaultStall, Stall: 5},
			source.Fault{At: 45, Kind: source.FaultTransient, Times: 1},
			source.Fault{At: 80, Kind: source.FaultPermanent},
		),
		source.RetryPolicy{MaxAttempts: 3, Backoff: 0.5, Mirror: source.DeltaRelation(rel, r.Schema, scripts[rel]), FailoverDelay: 2})
}

// relationsOf reads q's relations back out of a catalog nobody runs.
func relationsOf(q *algebra.Query, cat *Catalog) map[string]*source.Relation {
	rels := map[string]*source.Relation{}
	for _, r := range q.Relations {
		p := cat.Providers[r.Name]
		var rows []types.Tuple
		for {
			row, ok := p.Next()
			if !ok {
				break
			}
			rows = append(rows, row.T)
		}
		rels[r.Name] = source.NewRelation(r.Name, r.Schema, rows)
	}
	return rels
}

// patchRelation applies a delta-script prefix to rel under the ingress's
// semantics: a delete removes one live occurrence of its row, or none.
func patchRelation(rel *source.Relation, deltas []source.Delta) *source.Relation {
	rows := append([]types.Tuple{}, rel.Rows...)
	live := map[string][]int{}
	var key []byte
	for i, r := range rows {
		key = types.AppendKeyAll(key[:0], r)
		live[string(key)] = append(live[string(key)], i)
	}
	for _, d := range deltas {
		key = types.AppendKeyAll(key[:0], d.Row)
		if d.Sign > 0 {
			live[string(key)] = append(live[string(key)], len(rows))
			rows = append(rows, d.Row)
		} else if at := live[string(key)]; len(at) > 0 {
			rows[at[len(at)-1]] = nil
			live[string(key)] = at[:len(at)-1]
		}
	}
	kept := rows[:0]
	for _, r := range rows {
		if r != nil {
			kept = append(kept, r)
		}
	}
	return source.NewRelation(rel.Name, rel.Schema, kept)
}

// assertRowsWithin compares two canonically sorted row lists: everything but
// float columns exactly, float columns within rel relative.
func assertRowsWithin(t *testing.T, what string, got, want []types.Tuple, rel float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j, w := range want[i] {
			g := got[i][j]
			if g.K == types.KindFloat && w.K == types.KindFloat {
				if math.Abs(g.F-w.F) > rel*math.Max(math.Abs(w.F), 1) {
					t.Fatalf("%s: row %d column %d = %v, want %v", what, i, j, g, w)
				}
			} else if !types.StrictEqual(g, w) {
				t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
}

// standingGolden is what one leg reports. order is the update stream row by
// row in order, once to the bit and once without its float columns; windows
// the same stream with the rows of each watermark window sorted; counts the
// watermarks, the delta counters and the phases; monitor the maintenance
// switches and every monitor decision as Options.OnPoll sees it; clocks the
// run's virtual and CPU seconds, every watermark's stamp, every phase's
// seconds.
type standingGolden struct {
	order, windows, counts, monitor string
	clocks                          []float64
}

// runStandingLeg runs one leg and renders its golden. Every watermark's prefix
// of the update stream is folded and held against the maintained result read
// off the view's own state at that watermark (maintainer.maintained) and
// against a static run from scratch over the relations patched with the
// deltas read by then; the report's result and size against the view's state
// at the last watermark.
func runStandingLeg(t *testing.T, fixture standingFixture, spj bool, o Options, failover string) (standingGolden, *Report) {
	t.Helper()
	q, cat, script := fixture(spj)
	c := cat()
	scripts := script(c)
	deltas := maintDeltaProviders(c, scripts)
	if failover != "" {
		failOver(q, deltas, scripts, failover)
	}
	var polls strings.Builder
	npolls := 0
	o.OnPoll = func(cur, best, penalty float64, switched bool) {
		npolls++
		fmt.Fprintf(&polls, "%s %s %s %v\n", f64(cur), f64(best), f64(penalty), switched)
	}
	type mark struct {
		wm      UpdateWatermark
		upto    int
		readBy  map[string]int
		readAll int64
		// view digests the maintained result read off the view's state at
		// the watermark (maintainer.maintained), viewN its rows.
		view  string
		viewN int
	}
	var marks []mark
	var updates []types.Update
	upto := 0
	// RunMaintenance, with the maintainer at hand.
	var mt *maintainer
	ex, finish, err := prepareRun(context.Background(), c, q, o, collectUpdates(&updates, RunHooks{
		OnUpdates: func(wm UpdateWatermark, us []types.Update) {
			upto += len(us)
			m := mark{wm: wm, upto: upto, readBy: map[string]int{}}
			for name, p := range deltas {
				m.readBy[name] = p.Consumed()
				m.readAll += int64(p.Consumed())
			}
			own, err := mt.maintained()
			if err != nil {
				t.Fatal(err)
			}
			m.view, m.viewN = digest(keyRows(own)), len(own)
			marks = append(marks, m)
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if mt, err = newMaintainer(ex, MaintOptions{Deltas: deltas, FlushEvery: 100}); err != nil {
		t.Fatal(err)
	}
	if err := mt.run(); err != nil {
		t.Fatal(err)
	}
	rep, err := finish()
	ex.release()
	if err != nil {
		t.Fatal(err)
	}
	if failover != "" {
		if st := rep.SourceFaults[failover+".delta"]; !st.FailedOver {
			t.Fatalf("delta stream of %s did not fail over: %+v", failover, rep.SourceFaults)
		}
	}
	if len(marks) == 0 || int64(upto) != rep.UpdateCount {
		t.Fatalf("OnUpdates delivered %d updates, the report counts %d", upto, rep.UpdateCount)
	}
	if last := marks[len(marks)-1]; digest(keyRows(rep.Maintained)) != last.view || rep.MaintainedRows != int64(last.viewN) {
		t.Fatalf("the report maintains %d rows (%d listed), the view's state held %d or other rows", rep.MaintainedRows, len(rep.Maintained), last.viewN)
	}

	lines := make([]string, len(updates))
	var exact, keys, windows strings.Builder
	for i, u := range updates {
		lines[i] = fmt.Sprintf("%+d %s", u.Sign, bitRows([]types.Tuple{u.Row}))
		exact.WriteString(lines[i])
		fmt.Fprintf(&keys, "%+d ", u.Sign)
		for _, v := range u.Row {
			if v.K != types.KindFloat {
				keys.WriteString(v.String() + "|")
			}
		}
		keys.WriteByte('\n')
	}
	g := standingGolden{
		order:   fmt.Sprintf("updates=%d:%s/%s", len(updates), digest(exact.String()), digest(keys.String())),
		monitor: fmt.Sprintf("maintSwitches=%d polls=%d:%s", rep.MaintSwitches, npolls, digest(polls.String())),
		clocks:  []float64{rep.VirtualSeconds, rep.CPUSeconds},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "deltaRows=%d clamped=%d switches=%d marks=", rep.DeltaRows, rep.DeltaClamped, rep.Switches)
	from := 0
	for _, m := range marks {
		fmt.Fprintf(&sb, "[%d %d %d]", m.wm.Seq, m.wm.Updates, m.wm.DeltaRows)
		g.clocks = append(g.clocks, m.wm.VirtualSeconds)
		window := slices.Clone(lines[from:m.upto])
		slices.Sort(window)
		windows.WriteString(strings.Join(window, "") + "--\n")
		from = m.upto
	}
	sb.WriteString(" phases=")
	for _, ph := range rep.Phases {
		fmt.Fprintf(&sb, "[%s %d]", digest(ph.Plan), ph.Delivered)
		g.clocks = append(g.clocks, ph.Seconds)
	}
	g.counts, g.windows = sb.String(), digest(windows.String())

	base := relationsOf(q, cat())
	for _, m := range marks {
		if m.readAll != m.wm.DeltaRows {
			t.Fatalf("watermark %d counts %d delta rows, the providers handed out %d", m.wm.Seq, m.wm.DeltaRows, m.readAll)
		}
		fold := ivm.Fold(updates[:m.upto])
		if fold.Negative() {
			t.Fatalf("watermark %d: the update stream folds to a negative multiset", m.wm.Seq)
		}
		rows := fold.Rows()
		if len(rows) != m.viewN || digest(keyRows(rows)) != m.view {
			t.Fatalf("watermark %d: the update stream folds to %d rows, the view's state held %d or other rows", m.wm.Seq, len(rows), m.viewN)
		}
		var patched []*source.Relation
		for _, r := range q.Relations {
			patched = append(patched, patchRelation(base[r.Name], scripts[r.Name][:m.readBy[r.Name]]))
		}
		oracle, err := Run(catalogOf(patched...), q, Options{Strategy: Static})
		if err != nil {
			t.Fatal(err)
		}
		assertRowsWithin(t, fmt.Sprintf("fold at watermark %d", m.wm.Seq), rows, types.SortedRows(oracle.Rows), 1e-9)
	}
	return g, rep
}

// keyRows renders rows, in order, as their key-codec encodings.
func keyRows(rows []types.Tuple) string {
	var b []byte
	for _, r := range rows {
		b = types.AppendKeyAll(b, r)
	}
	return string(b)
}

// TestStandingSetupGoldens: {aggregate Q3A with min and max, SPJ} × the
// standing legs × {clean, delta-stream failover}.
func TestStandingSetupGoldens(t *testing.T) {
	for _, spj := range []bool{false, true} {
		for _, leg := range standingLegs {
			for _, failover := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/%s", map[bool]string{false: "agg", true: "spj"}[spj], leg.name, map[bool]string{false: "clean", true: "failover"}[failover])
				t.Run(name, func(t *testing.T) {
					faulty := ""
					if failover {
						faulty = leg.faulty
					}
					got, rep := runStandingLeg(t, leg.fixture, spj, leg.o, faulty)
					switch leg.name {
					case "adopted-corrective":
						if rep.Switches != 0 {
							t.Fatalf("the initial run switched %d times: the fixture no longer ends in one phase", rep.Switches)
						}
					case "built-initial-switch":
						if rep.Switches == 0 {
							t.Fatal("the initial run never switched: the fixture no longer forces it")
						}
					case "built-maint-switch":
						if rep.MaintSwitches == 0 {
							t.Fatal("the maintenance monitor never switched: the fixture no longer forces it")
						}
					}
					want, ok := standingParent[name]
					if !ok {
						t.Fatalf("no golden; got\n%q: {%q, %q, %q, %q,\n%#v},", name, got.order, got.windows, got.counts, got.monitor, got.clocks)
					}
					// What the update stream says never moves: the rows of
					// every window, the watermarks, the counters, the phases.
					if got.windows != want.windows || got.counts != want.counts {
						t.Errorf("windows, counts = %q, %q\n            want %q, %q", got.windows, got.counts, want.windows, want.counts)
					}
					re := standingRebaselined[name]
					if re.order != "" {
						want.order = re.order
					}
					if re.monitor != "" {
						want.monitor = re.monitor
					}
					if re.clocks != nil {
						want.clocks = re.clocks
					}
					if got.order != want.order || got.monitor != want.monitor {
						t.Errorf("order, monitor = %q, %q\n           want %q, %q", got.order, got.monitor, want.order, want.monitor)
					}
					if len(got.clocks) != len(want.clocks) {
						t.Fatalf("clocks = %#v, want %#v", got.clocks, want.clocks)
					}
					for i, w := range want.clocks {
						g := got.clocks[i]
						if leg.o.Partitions <= 1 && g != w || math.Abs(g-w) > parClockTol*math.Abs(w)+parClockSlack {
							t.Errorf("clocks = %#v\n    want %#v", got.clocks, want.clocks)
							break
						}
					}
				})
			}
		}
	}
}

// standingParent: written by commit 50935f1 (see the top of the file), never
// edited since.
var standingParent = map[string]standingGolden{
	"agg/adopted-static/clean": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{0.45022100000000637, 0.15306200000014908, 0.14657730000013452, 0.1472623000001354, 0.1479482000001364, 0.1500155000000003, 0.20001800000000045, 0.25001980000000046, 0.3000102000000005, 0.35001650000000045, 0.40001890000000057, 0.4500164000000005, 0.04250160000000878}},
	"agg/adopted-static/failover": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{7.50593120000029, 0.15306200000014908, 0.14657730000013452, 7.500131500000006, 7.500817400000046, 7.501516600000089, 7.5022315000001285, 7.50295710000017, 7.503670800000209, 7.504314100000241, 7.505032100000276, 7.5057266000003215, 0.04250160000000878}},
	"agg/adopted-corrective/clean": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=56:315eeff594d09108",
		[]float64{0.45022100000000637, 0.15306200000014908, 0.14657730000013452, 0.1472623000001354, 0.1479482000001364, 0.1500155000000003, 0.20001800000000045, 0.25001980000000046, 0.3000102000000005, 0.35001650000000045, 0.40001890000000057, 0.4500164000000005, 0.04250160000000878}},
	"agg/adopted-corrective/failover": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=56:315eeff594d09108",
		[]float64{7.50593120000029, 0.15306200000014908, 0.14657730000013452, 7.500131500000006, 7.500817400000046, 7.501516600000089, 7.5022315000001285, 7.50295710000017, 7.503670800000209, 7.504314100000241, 7.505032100000276, 7.5057266000003215, 0.04250160000000878}},
	"agg/built-initial-switch/clean": {"updates=10267:6cf665a3834b4be3/6cf665a3834b4be3", "2df687f1e613f08a", "deltaRows=600 clamped=25 switches=1 marks=[0 1000 0][1 1967 100][2 1900 200][3 1144 300][4 1778 400][5 1423 500][6 1055 600] phases=[e1692d25b2b11cb5 1400][7c0c745e9528ab43 1800]", "maintSwitches=0 polls=16:2b9fb7ee195e34f5",
		[]float64{1.811035199977605, 1.811035199977605, 1.4752035999817923, 1.5237489999811606, 1.5732681999805236, 1.629575299979849, 1.6881754999791154, 1.7482389999783896, 1.810735199977652, 0.282940000000084, 0.0037799999999088563}},
	"agg/built-initial-switch/failover": {"updates=8021:3e71c8e3dba3ef58/3e71c8e3dba3ef58", "b3524a244aa72d08", "deltaRows=600 clamped=25 switches=1 marks=[0 1000 0][1 1594 100][2 1552 200][3 1879 300][4 1117 400][5 775 500][6 104 600] phases=[e1692d25b2b11cb5 1400][7c0c745e9528ab43 1800]", "maintSwitches=0 polls=16:9171994e34fb65bf",
		[]float64{7.587616699981716, 1.8103613999777093, 1.4752035999817923, 1.5226855999811901, 1.5726663999805692, 1.6240205999799138, 1.6751436999793017, 7.517525999996346, 7.587316699981763, 0.282940000000084, 0.0037799999999088563}},
	"agg/built-maint-switch/clean": {"updates=387:dfb91a46aae7659b/dfb91a46aae7659b", "6b9bed19a19d3591", "deltaRows=2800 clamped=39 switches=0 marks=[0 3 0][1 6 100][2 6 200][3 6 300][4 6 400][5 6 500][6 6 600][7 6 700][8 6 800][9 6 900][10 6 1000][11 6 1100][12 6 1200][13 6 1300][14 6 1400][15 6 1500][16 84 2400][17 87 2500][18 78 2600][19 23 2700][20 22 2800] phases=[e1692d25b2b11cb5 10]", "maintSwitches=1 polls=16:3e30d97acfd6d8eb",
		[]float64{3.5775779000059247, 1.3019009999833857, 7.639999999999992e-05, 0.10000610000000003, 0.20000610000000021, 0.3000061000000003, 0.40000610000000036, 0.5000083000000001, 0.6000061000000001, 0.7000061000000002, 0.8000083000000003, 0.9000061000000004, 1.0000061000000002, 1.1000082999999892, 1.2000082999999782, 1.3000060999999672, 1.4000060999999562, 1.5000082999999451, 2.7096840000018756, 3.105104500004176, 3.485627300006811, 3.530224100006369, 3.577577000005925, 4.509999999999999e-05}},
	"agg/built-maint-switch/failover": {"updates=293:1ed4804e16b1bf48/1ed4804e16b1bf48", "ef7ea61352ef1ad1", "deltaRows=2800 clamped=39 switches=0 marks=[0 3 0][1 6 100][2 6 200][3 6 300][4 6 400][5 6 500][6 6 600][7 6 700][8 6 800][9 6 900][10 6 1000][11 6 1100][12 6 1200][13 6 1300][14 6 1400][15 6 1500][16 16 2400][17 1 2500][18 51 2600][19 67 2700][20 65 2800] phases=[e1692d25b2b11cb5 10]", "maintSwitches=2 polls=16:22913e30e6e9e9b2",
		[]float64{8.560274700071584, 0.9604214999925667, 7.639999999999992e-05, 0.10000610000000003, 0.20000610000000021, 0.3000061000000003, 0.40000610000000036, 0.5000083000000001, 0.6000061000000001, 0.7000061000000002, 0.8000083000000003, 0.9000061000000004, 1.0000061000000002, 1.1000082999999892, 1.2000082999999782, 1.3000060999999672, 1.4000060999999562, 1.5000082999999451, 2.6800068999998152, 2.780002399999805, 8.136550800020137, 8.421412300045512, 8.560273800071585, 4.509999999999999e-05}},
	"agg/replayed-p4/clean": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{0.45022100000000637, 0.15181790000013684, 0.11565739999995889, 0.11634239999995871, 0.11702829999995837, 0.1500155000000003, 0.20001800000000045, 0.25001980000000046, 0.3000102000000005, 0.35001650000000045, 0.40001890000000057, 0.4500164000000005, 0.011581700000000588}},
	"agg/replayed-p4/failover": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{7.50593120000029, 0.15181790000013684, 0.11584319999995919, 7.500131500000006, 7.500817400000046, 7.501516600000089, 7.5022315000001285, 7.50295710000017, 7.503670800000209, 7.504314100000241, 7.505032100000276, 7.5057266000003215, 0.011767500000000583}},
	"agg/replayed-windowed/clean": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[f1c5fd63f937ec5a 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{0.45022100000000637, 0.13841670000003176, 0.1319320000000172, 0.13261700000001808, 0.13330290000001907, 0.1500155000000003, 0.20001800000000045, 0.25001980000000046, 0.3000102000000005, 0.35001650000000045, 0.40001890000000057, 0.4500164000000005, 0.0278562999999992}},
	"agg/replayed-windowed/failover": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[f1c5fd63f937ec5a 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{7.50593120000029, 0.13841670000003176, 0.1319320000000172, 7.500131500000006, 7.500817400000046, 7.501516600000089, 7.5022315000001285, 7.50295710000017, 7.503670800000209, 7.504314100000241, 7.505032100000276, 7.5057266000003215, 0.0278562999999992}},
	"agg/replayed-traditional/clean": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{0.45022100000000637, 0.15306200000014908, 0.14657730000013452, 0.1472623000001354, 0.1479482000001364, 0.1500155000000003, 0.20001800000000045, 0.25001980000000046, 0.3000102000000005, 0.35001650000000045, 0.40001890000000057, 0.4500164000000005, 0.04250160000000878}},
	"agg/replayed-traditional/failover": {"updates=952:2f131b7ae0a6991a/3745e7c94ca48c8b", "d6f6671d64524680", "deltaRows=900 clamped=157 switches=0 marks=[0 682 0][1 19 100][2 30 200][3 22 300][4 34 400][5 40 500][6 34 600][7 29 700][8 37 800][9 25 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{7.50593120000029, 0.15306200000014908, 0.14657730000013452, 7.500131500000006, 7.500817400000046, 7.501516600000089, 7.5022315000001285, 7.50295710000017, 7.503670800000209, 7.504314100000241, 7.505032100000276, 7.5057266000003215, 0.04250160000000878}},
	"spj/adopted-static/clean": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{0.45000890000000027, 0.14979430000014066, 0.1436747000001322, 0.14434800000013306, 0.14501590000013403, 0.1500089000000001, 0.20000780000000015, 0.2500078000000001, 0.3000000000000002, 0.3500078000000002, 0.40000780000000025, 0.45000890000000027, 0.04115260000001264}},
	"spj/adopted-static/failover": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{7.505570100000391, 0.14979430000014066, 0.1436747000001322, 7.500123800000009, 7.500791700000057, 7.501476800000106, 7.502172500000154, 7.502875100000206, 7.5035686000002535, 7.504194200000294, 7.5048896000003396, 7.505570100000391, 0.04115260000001264}},
	"spj/adopted-corrective/clean": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=56:066493e98b44daae",
		[]float64{0.45000890000000027, 0.14979430000014066, 0.1436747000001322, 0.14434800000013306, 0.14501590000013403, 0.1500089000000001, 0.20000780000000015, 0.2500078000000001, 0.3000000000000002, 0.3500078000000002, 0.40000780000000025, 0.45000890000000027, 0.04115260000001264}},
	"spj/adopted-corrective/failover": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=56:066493e98b44daae",
		[]float64{7.505570100000391, 0.14979430000014066, 0.1436747000001322, 7.500123800000009, 7.500791700000057, 7.501476800000106, 7.502172500000154, 7.502875100000206, 7.5035686000002535, 7.504194200000294, 7.5048896000003396, 7.505570100000391, 0.04115260000001264}},
	"spj/built-initial-switch/clean": {"updates=389504:0dfeae64821945a4/0dfeae64821945a4", "4e24605b02a230fa", "deltaRows=600 clamped=25 switches=1 marks=[0 240000 0][1 21518 100][2 21970 200][3 25143 300][4 26096 400][5 26814 500][6 27963 600] phases=[e1692d25b2b11cb5 1400][7c0c745e9528ab43 1800]", "maintSwitches=0 polls=16:8c26aac5f123e287",
		[]float64{1.4209030999536447, 1.4209030999536447, 1.1629035999677992, 1.200099899965756, 1.2380640999636725, 1.2814564999612943, 1.3264752999588203, 1.3727048999562872, 1.4209030999536447, 0.282940000000084, 0.0037799999999088563}},
	"spj/built-initial-switch/failover": {"updates=389504:db93cc66898bd72d/db93cc66898bd72d", "54e1052ff15a235f", "deltaRows=600 clamped=25 switches=1 marks=[0 240000 0][1 21099 100][2 22263 200][3 22843 300][4 22850 400][5 29137 500][6 31312 600] phases=[e1692d25b2b11cb5 1400][7c0c745e9528ab43 1800]", "maintSwitches=0 polls=16:f77dfc324dc272fd",
		[]float64{7.567510999996429, 1.4209030999536436, 1.1629035999677992, 1.1993578999657972, 1.2377415999636932, 1.2771105999615293, 1.3164735999593726, 7.513407499999291, 7.567510999996429, 0.282940000000084, 0.0037799999999088563}},
	"spj/built-maint-switch/clean": {"updates=219328:715b86b7118242cd/715b86b7118242cd", "0ad190e81f63daf4", "deltaRows=2800 clamped=39 switches=0 marks=[0 3 0][1 154 100][2 148 200][3 154 300][4 150 400][5 159 500][6 158 600][7 148 700][8 149 800][9 146 900][10 153 1000][11 148 1100][12 144 1200][13 145 1300][14 155 1400][15 157 1500][16 66124 2400][17 60152 2500][18 53267 2600][19 18721 2700][20 18793 2800] phases=[e1692d25b2b11cb5 10]", "maintSwitches=2 polls=13:ec06e8d51b157f9a",
		[]float64{3.4689602999907687, 1.1955802999762593, 7.249999999999992e-05, 0.10000380000000006, 0.20000380000000018, 0.3000038000000002, 0.4000038000000003, 0.5000055000000002, 0.6000038000000003, 0.7000038000000004, 0.8000055000000005, 0.9000038000000006, 1.0000038000000004, 1.1000054999999893, 1.2000054999999783, 1.3000037999999674, 1.4000037999999564, 1.5000054999999453, 2.676596799997258, 3.041915199995359, 3.3957810999942746, 3.4310104999925253, 3.4689602999907687, 4.3599999999999996e-05}},
	"spj/built-maint-switch/failover": {"updates=219328:8298a2f3c7d615fe/8298a2f3c7d615fe", "4d416b4c586e6826", "deltaRows=2800 clamped=39 switches=0 marks=[0 3 0][1 154 100][2 148 200][3 154 300][4 150 400][5 159 500][6 158 600][7 148 700][8 149 800][9 146 900][10 153 1000][11 148 1100][12 144 1200][13 145 1300][14 155 1400][15 157 1500][16 13554 2400][17 733 2500][18 66857 2600][19 73670 2700][20 62243 2800] phases=[e1692d25b2b11cb5 10]", "maintSwitches=3 polls=13:3cc0f662b27f2e84",
		[]float64{8.469750399997798, 0.8541289999834517, 7.249999999999992e-05, 0.10000380000000006, 0.20000380000000018, 0.3000038000000002, 0.4000038000000003, 0.5000055000000002, 0.6000038000000003, 0.7000038000000004, 0.8000055000000005, 0.9000038000000006, 1.0000038000000004, 1.1000054999999893, 1.2000054999999783, 1.3000037999999674, 1.4000037999999564, 1.5000054999999453, 2.680002099999816, 2.780002099999805, 8.1140235000162, 8.362029900003714, 8.469750399997798, 4.3599999999999996e-05}},
	"spj/replayed-p4/clean": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{0.45000890000000027, 0.14800460000013008, 0.1136300999999599, 0.11430339999995982, 0.11497129999995963, 0.1500089000000001, 0.20000780000000015, 0.2500078000000001, 0.3000000000000002, 0.3500078000000002, 0.40000780000000025, 0.45000890000000027, 0.011108000000000276}},
	"spj/replayed-p4/failover": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{7.505570100000391, 0.14800460000013008, 0.11360259999995986, 7.500123800000009, 7.500791700000057, 7.501476800000106, 7.502172500000154, 7.502875100000206, 7.5035686000002535, 7.504194200000294, 7.5048896000003396, 7.505570100000391, 0.011080500000000283}},
	"spj/replayed-windowed/clean": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{0.45000890000000027, 0.14979430000014066, 0.1436747000001322, 0.14434800000013306, 0.14501590000013403, 0.1500089000000001, 0.20000780000000015, 0.2500078000000001, 0.3000000000000002, 0.3500078000000002, 0.40000780000000025, 0.45000890000000027, 0.04115260000001264}},
	"spj/replayed-windowed/failover": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{7.505570100000391, 0.14979430000014066, 0.1436747000001322, 7.500123800000009, 7.500791700000057, 7.501476800000106, 7.502172500000154, 7.502875100000206, 7.5035686000002535, 7.504194200000294, 7.5048896000003396, 7.505570100000391, 0.04115260000001264}},
	"spj/replayed-traditional/clean": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{0.45000890000000027, 0.14979430000014066, 0.1436747000001322, 0.14434800000013306, 0.14501590000013403, 0.1500089000000001, 0.20000780000000015, 0.2500078000000001, 0.3000000000000002, 0.3500078000000002, 0.40000780000000025, 0.45000890000000027, 0.04115260000001264}},
	"spj/replayed-traditional/failover": {"updates=2857:5a486f0fd75adbba/84ee3763dd453f90", "7a44f52157515cbf", "deltaRows=900 clamped=157 switches=0 marks=[0 2698 0][1 12 100][2 18 200][3 15 300][4 18 400][5 22 500][6 20 600][7 18 700][8 23 800][9 13 900] phases=[7c2ab5e08c043fed 15332]", "maintSwitches=0 polls=0:e3b0c44298fc1c14",
		[]float64{7.505570100000391, 0.14979430000014066, 0.1436747000001322, 7.500123800000009, 7.500791700000057, 7.501476800000106, 7.502172500000154, 7.502875100000206, 7.5035686000002535, 7.504194200000294, 7.5048896000003396, 7.505570100000391, 0.04115260000001264}},
}

// standingRebaselined: what of a leg's golden the set-up of this file's top
// legitimately moved, field by field; an empty field still holds the parent's.
// The rows of every window, the watermarks, the counters and the phases moved
// on no leg, and only the serial clocks below on a replayed one.
//
//   - clocks, on every adopted and built leg: the base rows are not pushed a
//     second time (adopted), or they are pushed with the root unbound and in
//     chunks (built), and an aggregate's initial result leaves the group-by
//     before the baseline window and not after the last one. The delta
//     arrivals bound the run, so its virtual seconds hardly move; the CPU
//     seconds and the baseline's stamp drop by the replay.
//   - monitor, where a corrective maintenance stage starts on the adopted
//     tree (adopted-corrective, built-maint-switch): that tree's hash tables
//     were sized from the estimates of the initial optimization, the parent's
//     from a re-optimization over the finished run's exact cardinalities, so
//     the collision factor the monitor inflates the running plan's cost by
//     (§4.4) differs, and in the toy fixture the plan it starts from does
//     too.
//   - order, on spj/built-initial-switch: the baseline's assertions are the
//     initial run's root rows in the order it produced them — phase, phase,
//     stitch-up — where the parent's were one tree's replay of the same rows.
//   - clocks, on every serial leg, once virtual time became integer
//     nanoseconds: each is the value before rounded to the nanosecond, plus,
//     on the built and replayed legs, the probes their warm-ups make of join
//     inputs nothing has reached yet. Such a probe used to be skipped, free; a
//     table that exists is now charged its probe however empty
//     (exec.HashJoin.sweep): 2 200 probes of 1.1 µs on built-initial-switch,
//     154 214 and 1 607 (agg), 79 014 and 1 607 (spj) on built-maint-switch
//     clean and failover, 3 064 on replayed-windowed and
//     replayed-traditional. Serial legs compare clocks with ==; replayed-p4
//     keeps the parent's, within parClockTol.
//   - clocks, on every serial aggregate leg, once the initial result left the
//     run only as the baseline window: the group-by's EmitFinal, one Move
//     (300 ns) per group for rows nothing read — 682 groups on the Q3A legs,
//     1 000 on built-initial-switch, 3 on built-maint-switch — is not
//     charged. The adopted and built legs' CPU seconds and baseline stamp
//     fall by it, and every later stamp by at most it; the replayed legs'
//     run clock and CPU seconds fall by it at the end of the run.
var standingRebaselined = map[string]standingGolden{
	"agg/adopted-static/clean": {
		clocks: []float64{0.4500096, 0.0448315, 0.0427062, 0.0500078, 0.1000111, 0.1500087, 0.2000123, 0.2500141, 0.3000102, 0.3500108, 0.4000132, 0.4500096, 0.0425016}},
	"agg/adopted-static/failover": {
		clocks: []float64{7.5019572, 0.0448315, 0.0427062, 7.5000504, 7.50029, 7.5005203, 7.5007652, 7.5010184, 7.5012568, 7.5014823, 7.5017314, 7.5019572, 0.0425016}},
	"agg/adopted-corrective/clean": {monitor: "maintSwitches=0 polls=56:f79354965ef5e989",
		clocks: []float64{0.4500096, 0.0448315, 0.0427062, 0.0500078, 0.1000111, 0.1500087, 0.2000123, 0.2500141, 0.3000102, 0.3500108, 0.4000132, 0.4500096, 0.0425016}},
	"agg/adopted-corrective/failover": {monitor: "maintSwitches=0 polls=56:f79354965ef5e989",
		clocks: []float64{7.5019572, 0.0448315, 0.0427062, 7.5000504, 7.50029, 7.5005203, 7.5007652, 7.5010184, 7.5012568, 7.5014823, 7.5017314, 7.5019572, 0.0425016}},
	"agg/built-initial-switch/clean": {
		clocks: []float64{1.6211552, 1.6211552, 1.2856236, 1.334169, 1.3836882, 1.4399953, 1.4985955, 1.558659, 1.6211552, 0.28294, 0.00378}},
	"agg/built-initial-switch/failover": {
		clocks: []float64{7.5873167, 1.6204814, 1.2856236, 1.3331056, 1.3830864, 1.4344406, 1.4855637, 7.517526, 7.5873167, 0.28294, 0.00378}},
	"agg/built-maint-switch/clean": {monitor: "maintSwitches=1 polls=26:c9a2ca036a681671",
		clocks: []float64{4.3399251, 2.0620057, 4.6e-05, 0.1000131, 0.2000131, 0.3000131, 0.4000131, 0.5000188, 0.6000131, 0.7000131, 0.8000188, 0.9000131, 1.0000131, 1.1000188, 1.2000188, 1.3000131, 1.4000131, 1.5000188, 2.709684, 3.1051045, 4.2479754, 4.2925722, 4.3399251, 4.51e-05}},
	"agg/built-maint-switch/failover": {monitor: "maintSwitches=1 polls=26:bde52e65f917bd72",
		clocks: []float64{8.5620415, 0.9590999, 4.6e-05, 0.1000131, 0.2000131, 0.3000131, 0.4000131, 0.5000188, 0.6000131, 0.7000131, 0.8000188, 0.9000131, 1.0000131, 1.1000188, 1.2000188, 1.3000131, 1.4000131, 1.5000188, 2.6800069, 2.7800024, 8.1365508, 8.42318, 8.5620415, 4.51e-05}},
	"agg/replayed-windowed/clean": {
		clocks: []float64{0.4500164, 0.1415825, 0.1353024, 0.1359874, 0.1366733, 0.1500155, 0.200018, 0.2500198, 0.3000102, 0.3500165, 0.4000189, 0.4500164, 0.0278563}},
	"agg/replayed-windowed/failover": {
		clocks: []float64{7.5057266, 0.1415825, 0.1353024, 7.5001315, 7.5008174, 7.5015166, 7.5022315, 7.5029571, 7.5036708, 7.5043141, 7.5050321, 7.5057266, 0.0278563}},
	"agg/replayed-traditional/clean": {
		clocks: []float64{0.4500164, 0.1562278, 0.1499477, 0.1506327, 0.1513186, 0.1520178, 0.200018, 0.2500198, 0.3000102, 0.3500165, 0.4000189, 0.4500164, 0.0425016}},
	"agg/replayed-traditional/failover": {
		clocks: []float64{7.5057266, 0.1562278, 0.1499477, 7.5001315, 7.5008174, 7.5015166, 7.5022315, 7.5029571, 7.5036708, 7.5043141, 7.5050321, 7.5057266, 0.0425016}},
	"spj/adopted-static/clean": {
		clocks: []float64{0.4500021, 0.0431174, 0.0411526, 0.0500021, 0.1000021, 0.1500021, 0.2000021, 0.2500021, 0.3, 0.3500021, 0.4000021, 0.4500021, 0.0411526}},
	"spj/adopted-static/failover": {
		clocks: []float64{7.5018007, 0.0431174, 0.0411526, 7.5000427, 7.5002643, 7.5004805, 7.5007062, 7.5009364, 7.5011546, 7.5013624, 7.5015889, 7.5018007, 0.0411526}},
	"spj/adopted-corrective/clean": {monitor: "maintSwitches=0 polls=56:8861d6b14983b095",
		clocks: []float64{0.4500021, 0.0431174, 0.0411526, 0.0500021, 0.1000021, 0.1500021, 0.2000021, 0.2500021, 0.3, 0.3500021, 0.4000021, 0.4500021, 0.0411526}},
	"spj/adopted-corrective/failover": {monitor: "maintSwitches=0 polls=56:8861d6b14983b095",
		clocks: []float64{7.5018007, 0.0431174, 0.0411526, 7.5000427, 7.5002643, 7.5004805, 7.5007062, 7.5009364, 7.5011546, 7.5013624, 7.5015889, 7.5018007, 0.0411526}},
	"spj/built-initial-switch/clean": {order: "updates=389504:64311c55b793758e/64311c55b793758e",
		clocks: []float64{1.3513231, 1.3513231, 1.0933236, 1.1305199, 1.1684841, 1.2118765, 1.2568953, 1.3031249, 1.3513231, 0.28294, 0.00378}},
	"spj/built-initial-switch/failover": {order: "updates=389504:b4d0437fa6d8d8dc/b4d0437fa6d8d8dc",
		clocks: []float64{7.567511, 1.3513231, 1.0933236, 1.1297779, 1.1681616, 1.2075306, 1.2468936, 7.5134075, 7.567511, 0.28294, 0.00378}},
	"spj/built-maint-switch/clean": {monitor: "maintSwitches=1 polls=25:1a85ac88cc925268",
		clocks: []float64{3.8682407, 1.5891579, 4.36e-05, 0.1000108, 0.2000108, 0.3000108, 0.4000108, 0.500016, 0.6000108, 0.7000108, 0.800016, 0.9000108, 1.0000108, 1.100016, 1.200016, 1.3000108, 1.4000108, 1.500016, 2.6765968, 3.4411956, 3.7950615, 3.8302909, 3.8682407, 4.36e-05}},
	"spj/built-maint-switch/failover": {monitor: "maintSwitches=1 polls=26:7ca5b45d83b1480b",
		clocks: []float64{8.4715181, 0.849348, 4.36e-05, 0.1000108, 0.2000108, 0.3000108, 0.4000108, 0.500016, 0.6000108, 0.7000108, 0.800016, 0.9000108, 1.0000108, 1.100016, 1.200016, 1.3000108, 1.4000108, 1.500016, 2.6800021, 2.7800021, 8.1140235, 8.3637976, 8.4715181, 4.36e-05}},
	"spj/replayed-windowed/clean": {
		clocks: []float64{0.4500089, 0.1531647, 0.1470451, 0.1477184, 0.1483863, 0.1500089, 0.2000078, 0.2500078, 0.3, 0.3500078, 0.4000078, 0.4500089, 0.0411526}},
	"spj/replayed-windowed/failover": {
		clocks: []float64{7.5055701, 0.1531647, 0.1470451, 7.5001238, 7.5007917, 7.5014768, 7.5021725, 7.5028751, 7.5035686, 7.5041942, 7.5048896, 7.5055701, 0.0411526}},
	"spj/replayed-traditional/clean": {
		clocks: []float64{0.4500089, 0.1531647, 0.1470451, 0.1477184, 0.1483863, 0.1500089, 0.2000078, 0.2500078, 0.3, 0.3500078, 0.4000078, 0.4500089, 0.0411526}},
	"spj/replayed-traditional/failover": {
		clocks: []float64{7.5055701, 0.1531647, 0.1470451, 7.5001238, 7.5007917, 7.5014768, 7.5021725, 7.5028751, 7.5035686, 7.5041942, 7.5048896, 7.5055701, 0.0411526}},
}
