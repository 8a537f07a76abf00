package core

import (
	"context"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/state"
)

// Corrective goldens at four partitions. Every value below was written by
// the commit before a finished phase's index storage went to the next
// phase's tables and the stitch-up's indexes, on the sharedKey fixture under
// forced switching: one switch (SPJ, aggregate) or two (blocking
// pre-aggregate), then a stitch-up over the partition clones' lists. A leg
// pins the result rows in order, every count of layoutCounts, and the run's,
// the CPU and the stitch-up's clocks, with ==: no join of the fixture moves a
// row between partitions, so each clone sees its rows in one order and the
// makespan is the same every run.
var reuseP4Goldens = map[string]struct {
	counts                string
	virtual, cpu, stitchT float64
}{
	"spj/corrective": {
		counts:  "rows=3208/3208:eeb8d9a9f8420dc0 switches=1 combos=6 reused=41 discarded=459 phases=[30c6377da20437b6 350][69dfab4db7a19081 3783]",
		virtual: 0.0443655, cpu: 0.0300717, stitchT: 0.02028,
	},
	"agg/corrective": {
		counts:  "rows=468/468:dbbb36658871b87e switches=1 combos=6 reused=55 discarded=24 phases=[30c6377da20437b6 400][84e1febb99f6bf81 3733]",
		virtual: 0.0471033, cpu: 0.0320603, stitchT: 0.0229608,
	},
	"blocking/corrective": {
		counts:  "rows=468/468:dbbb36658871b87e switches=2 combos=24 reused=5 discarded=38 phases=[9e6856cf12666642 300][30c6377da20437b6 150][84e1febb99f6bf81 3683]",
		virtual: 0.0480589, cpu: 0.0329961, stitchT: 0.0239164,
	},
}

// TestCorrectiveGoldensP4: the legs above, each run at P=4.
func TestCorrectiveGoldensP4(t *testing.T) {
	corrective := func(mode opt.PreAggMode) func(parAggFixture) Options {
		return func(fx parAggFixture) Options {
			return forcedSwitching(Options{PreAgg: mode, Known: fx.known})
		}
	}
	for _, leg := range []layoutLeg{
		{name: "spj/corrective", spj: true, o: corrective(opt.PreAggNone)},
		{name: "agg/corrective", o: corrective(opt.PreAggNone)},
		{name: "blocking/corrective", o: corrective(opt.PreAggTraditional)},
	} {
		t.Run(leg.name, func(t *testing.T) {
			rep := layoutRun(t, leg, 4)
			want := reuseP4Goldens[leg.name]
			if rep.Partitions != 4 {
				t.Fatalf("run fell back to %d partitions", rep.Partitions)
			}
			if got := layoutCounts(rep, true); got != want.counts {
				t.Errorf("counts = %q\n        want %q", got, want.counts)
			}
			if rep.VirtualSeconds != want.virtual || rep.CPUSeconds != want.cpu || rep.StitchTime != want.stitchT {
				t.Errorf("virtual/cpu/stitch-up = %v/%v/%v, want %v/%v/%v",
					rep.VirtualSeconds, rep.CPUSeconds, rep.StitchTime, want.virtual, want.cpu, want.stitchT)
			}
		})
	}
}

// TestOnlyASwitchReleasesPhaseTables: a standing run records each serial
// phase's tree. After the initial run, one that ended in its first phase has
// every join table of it live, for the maintenance stage to adopt; one that
// switched gave every phase's index storage away — the earlier phases' to the
// phases after them, the last one's to the stitch-up — and kept the lists.
func TestOnlyASwitchReleasesPhaseTables(t *testing.T) {
	for _, leg := range []struct {
		name    string
		fixture standingFixture
		o       Options
	}{
		{"static", q3aMinMax, Options{Strategy: Static, PollEvery: 256}},
		{"corrective-one-phase", q3aMinMax, Options{Strategy: Corrective, PollEvery: 256}},
		{"corrective-switched", misChurn, Options{Strategy: Corrective, PollEvery: 200, MaxPhases: 4}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			q, cat, _ := leg.fixture(false)
			ex, _, err := prepareRun(context.Background(), cat(), q, leg.o, RunHooks{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := newMaintainer(ex, MaintOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := ex.execute(); err != nil {
				t.Fatal(err)
			}
			switched := len(ex.phases) > 1
			if switched != (leg.name == "corrective-switched") {
				t.Fatalf("%d phases: the fixture no longer shapes the run", len(ex.phases))
			}
			for _, rec := range ex.phases {
				for _, j := range rec.tree.Joins {
					l, r := j.Node.Tables()
					for _, ht := range []*state.HashTable{l, r} {
						if got := released(ht); got != switched {
							t.Fatalf("phase %d join %s: released = %t, want %t", rec.ID, j.Key, got, switched)
						}
					}
				}
			}
			for _, rel := range q.Relations {
				kept := 0
				for _, rec := range ex.phases {
					kept += rec.BaseParts[rel.Name].Len()
				}
				if float64(kept) != ex.passed[rel.Name] {
					t.Errorf("%s: the phases' lists hold %d rows, the leaves passed %v", rel.Name, kept, ex.passed[rel.Name])
				}
			}
		})
	}
}

// released reports whether ht's index storage was given away: using it
// panics.
func released(ht *state.HashTable) (gone bool) {
	defer func() { gone = recover() != nil }()
	ht.Len()
	return false
}

// TestRunEndReleasesEveryJoin: once a run's report is final, release gives
// back the storage of every join the run built — every phase's, the
// maintenance trees' (the adopted one included), and every partition
// clone's, whose contexts, one per clone and phase, all give their spares
// back — and each of those lists reads as released, not as empty. The
// report built before it keeps its rows.
func TestRunEndReleasesEveryJoin(t *testing.T) {
	for _, leg := range []struct {
		name   string
		o      Options
		maint  bool
		phases int
	}{
		{"corrective-switched", misOptions(1), false, 2},
		{"corrective-p4", misOptions(4), false, 2},
		{"standing-adopted", Options{Strategy: Static, PollEvery: 200}, true, 1},
		{"standing-built", misOptions(1), true, 2},
	} {
		t.Run(leg.name, func(t *testing.T) {
			q, cat, script := misChurn(false)
			c := cat()
			ex, finish, err := prepareRun(context.Background(), c, q, leg.o, RunHooks{})
			if err != nil {
				t.Fatal(err)
			}
			var mt *maintainer
			if leg.maint {
				var m MaintOptions
				if script != nil {
					m.Deltas = maintDeltaProviders(c, script(c))
				}
				if mt, err = newMaintainer(ex, m); err != nil {
					t.Fatal(err)
				}
				err = mt.run()
			} else {
				err = ex.execute()
			}
			if err != nil {
				t.Fatal(err)
			}
			rep, err := finish()
			if err != nil {
				t.Fatal(err)
			}
			if len(ex.phases) < leg.phases {
				t.Fatalf("%d phases: the fixture no longer shapes the run", len(ex.phases))
			}
			rows := bitRows(rep.Rows)
			var lists []*state.List
			var trees []*Tree
			for _, rec := range ex.phases {
				if leg.o.Partitions <= 1 {
					for _, part := range rec.BaseParts {
						lists = append(lists, part) // a join's leaf list
					}
				}
				if rec.tree != nil {
					trees = append(trees, rec.tree)
				}
			}
			if mt != nil {
				trees = append(trees, mt.tree)
			}
			if leg.o.Partitions > 1 && len(ex.clones) != leg.o.Partitions*len(ex.phases) {
				t.Fatalf("%d clone contexts for %d phases at P=%d", len(ex.clones), len(ex.phases), leg.o.Partitions)
			}
			ex.release()
			for _, ctx := range append([]*exec.Context{ex.ctx}, ex.clones...) {
				if ctx.Spare != nil {
					t.Fatal("a context of the run kept its spare")
				}
			}
			for _, tree := range trees {
				for _, j := range tree.Joins {
					l, r := j.Node.Tables()
					for _, ht := range []*state.HashTable{l, r} {
						if !released(ht) {
							t.Fatalf("join %s: a table kept its index storage", j.Key)
						}
						lists = append(lists, ht.List())
					}
				}
			}
			if len(lists) == 0 && leg.o.Partitions <= 1 {
				t.Fatal("no list to check")
			}
			for _, l := range lists {
				if !listReleased(l) {
					t.Fatalf("a list of the run reads %d rows after release", l.Len())
				}
			}
			if bitRows(rep.Rows) != rows {
				t.Fatal("the report's rows changed when the run released its storage")
			}
		})
	}
}

// TestRunEndReleasesEveryAggTable: once a run's report is final, release
// gives back the group store of every aggregate table the run built — the
// shared group-by, every phase's blocking pre-aggregates, the maintenance
// tree's — and each of those panics on use rather than reads as empty. The
// corrective leg with a traditional pre-aggregate runs as a standing query
// without deltas, whose phase records keep their trees. A
// partition's private table is built on its clone's context, which release
// ends like the run's own (exec's TestReleaseFreesEveryStructure pins that a
// context frees every table built on it). The report built before keeps its
// rows.
func TestRunEndReleasesEveryAggTable(t *testing.T) {
	blocking := sharedKeyFixture(7)
	for _, leg := range []struct {
		name    string
		fixture func() (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta)
		o       Options
		maint   bool
		tables  int // at least: the group-by, pre-aggregates, maintenance tree's
	}{
		{name: "q3a-serial", fixture: func() (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta) {
			return q3aChurn(false)
		},
			o: Options{Strategy: Static}, tables: 1},
		{name: "q3a-p2", fixture: func() (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta) {
			return q3aChurn(false)
		},
			o: Options{Strategy: Static, Partitions: 2}, tables: 1},
		{name: "corrective-traditional", fixture: func() (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta) {
			return blocking.q, blocking.cat, nil
		}, o: forcedSwitching(Options{PreAgg: opt.PreAggTraditional, Known: blocking.known}), maint: true, tables: 3},
		{name: "standing-adopted", fixture: func() (*algebra.Query, func() *Catalog, func(*Catalog) map[string][]source.Delta) {
			return q3aMinMax(false)
		},
			o: Options{Strategy: Static, PollEvery: 200}, maint: true, tables: 1},
	} {
		t.Run(leg.name, func(t *testing.T) {
			q, cat, script := leg.fixture()
			c := cat()
			ex, finish, err := prepareRun(context.Background(), c, q, leg.o, RunHooks{})
			if err != nil {
				t.Fatal(err)
			}
			var mt *maintainer
			if leg.maint {
				var m MaintOptions
				if script != nil {
					m.Deltas = maintDeltaProviders(c, script(c))
				}
				if mt, err = newMaintainer(ex, m); err != nil {
					t.Fatal(err)
				}
				err = mt.run()
			} else {
				err = ex.execute()
			}
			if err != nil {
				t.Fatal(err)
			}
			rep, err := finish()
			if err != nil {
				t.Fatal(err)
			}
			tables := []*exec.AggTable{ex.agg}
			var trees []*Tree
			for _, rec := range ex.phases {
				if rec.tree != nil {
					trees = append(trees, rec.tree)
				}
			}
			if mt != nil {
				tables, trees = append(tables, mt.agg), append(trees, mt.tree)
			}
			for _, tree := range trees {
				for _, f := range tree.finishers {
					if pre, ok := f.(*blockingPreAgg); ok {
						tables = append(tables, pre.table)
					}
				}
			}
			if len(tables) < leg.tables {
				t.Fatalf("%d aggregate tables, want at least %d: the fixture no longer shapes the run", len(tables), leg.tables)
			}
			if parts := leg.o.Partitions; parts > 1 && (rep.Partitions != parts || len(ex.clones) != parts*len(ex.phases)) {
				t.Fatalf("ran at %d partitions with %d clone contexts for %d phases", rep.Partitions, len(ex.clones), len(ex.phases))
			}
			rows := bitRows(rep.Rows)
			ex.release()
			for _, ctx := range append([]*exec.Context{ex.ctx}, ex.clones...) {
				if ctx.Spare != nil {
					t.Fatal("a context of the run kept its spare")
				}
			}
			for i, a := range tables {
				if !aggReleased(a) {
					t.Fatalf("aggregate table %d reads %d groups after release", i, a.Groups())
				}
			}
			if bitRows(rep.Rows) != rows {
				t.Fatal("the report's rows changed when the run released its storage")
			}
		})
	}
}

// aggReleased reports whether a's group store was given away: using it
// panics.
func aggReleased(a *exec.AggTable) (gone bool) {
	defer func() { gone = recover() != nil }()
	a.Groups()
	return false
}

// listReleased reports whether l's rows were given away: using it panics.
func listReleased(l *state.List) (gone bool) {
	defer func() { gone = recover() != nil }()
	l.Len()
	return false
}
