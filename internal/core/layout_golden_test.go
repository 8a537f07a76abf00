package core

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Layout goldens. Every value below was written by the commit before
// unsigned execution settled on one layout between operators, on the runs
// whose layout that commit changes and that no benchmark workload reaches:
// both plan-partitioning stages (the one strategy that wired columnar leaf
// entries), trees with a blocking or a windowed pre-aggregate under Static
// and under Corrective with forced switching. A leg pins the result rows in order, every counter
// of the Report, the phases and the virtual clock, with ==. The clocks were
// rounded to the nanosecond once virtual time became integer nanoseconds, so
// the order in which a clock adds its charges no longer shows.

// layoutLeg is one golden run.
type layoutLeg struct {
	name string
	spj  bool
	o    func(fx parAggFixture) Options
}

func layoutLegs() []layoutLeg {
	static := func(mode opt.PreAggMode) func(parAggFixture) Options {
		return func(fx parAggFixture) Options {
			return Options{Strategy: Static, PreAgg: mode, Known: fx.known}
		}
	}
	corrective := func(mode opt.PreAggMode) func(parAggFixture) Options {
		return func(fx parAggFixture) Options {
			return forcedSwitching(Options{PreAgg: mode, Known: fx.known})
		}
	}
	planPart := func(fx parAggFixture) Options {
		return Options{Strategy: PlanPartition, MaterializeAfterJoins: 1, Known: fx.known, PollEvery: 500}
	}
	return []layoutLeg{
		{name: "planpart/spj", spj: true, o: planPart},
		{name: "planpart/agg", o: planPart},
		{name: "blocking/static", o: static(opt.PreAggTraditional)},
		{name: "blocking/corrective", o: corrective(opt.PreAggTraditional)},
		{name: "windowed/static", o: static(opt.PreAggWindowed)},
		{name: "windowed/corrective", o: corrective(opt.PreAggWindowed)},
	}
}

// layoutRun executes one leg at the given width over equal-bandwidth links
// (so the three relations interleave and every join sees both inputs grow).
func layoutRun(t *testing.T, leg layoutLeg, parts int) *Report {
	t.Helper()
	fx := sharedKeyFixture(7)
	q := *fx.q
	if leg.spj {
		q.GroupBy, q.Aggs = nil, nil
		q.Project = []string{"U.z", "R.k", "R.name", "S.x"}
	}
	o := leg.o(fx)
	o.Partitions = parts
	rels := map[string]*source.Relation{}
	for name, p := range fx.cat().Providers {
		rels[name] = source.NewRelation(name, p.Schema(), drainProvider(p))
	}
	cat := NewCatalog(rels, func(*source.Relation) source.Schedule {
		return source.Bandwidth{TuplesPerSec: 1e5}
	})
	rep, err := Run(cat, &q, o)
	if err != nil {
		t.Fatalf("%s P=%d: %v", leg.name, parts, err)
	}
	return rep
}

// drainProvider reads a fresh local provider to its end.
func drainProvider(p source.Provider) (rows []types.Tuple) {
	for {
		r, ok := p.Next()
		if !ok {
			return rows
		}
		rows = append(rows, r.T)
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}

// layoutCounts renders everything of a Report that is a count or a name:
// rows (in order, or as a sorted multiset), phases with their plans and
// deliveries, switches and the stitch-up's accounting.
func layoutCounts(rep *Report, ordered bool) string {
	rows := bitRows(rep.Rows)
	if !ordered {
		lines := strings.Split(rows, "\n")
		slices.Sort(lines)
		rows = strings.Join(lines, "\n")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "rows=%d/%d:%s switches=%d combos=%d reused=%d discarded=%d phases=",
		len(rep.Rows), rep.RowCount, digest(rows), rep.Switches, rep.StitchCombos, rep.Reused, rep.Discarded)
	for _, ph := range rep.Phases {
		fmt.Fprintf(&sb, "[%s %d]", digest(ph.Plan), ph.Delivered)
	}
	return sb.String()
}

// layoutClocks lists a serial Report's clock readings: the run's virtual
// and CPU seconds, the stitch-up's, every phase's.
func layoutClocks(rep *Report) []float64 {
	out := []float64{rep.VirtualSeconds, rep.CPUSeconds, rep.StitchTime}
	for _, ph := range rep.Phases {
		out = append(out, ph.Seconds)
	}
	return out
}

type layoutGolden struct {
	counts string
	clocks []float64
}

var layoutSerialGoldens = map[string]layoutGolden{
	"planpart/spj": {
		counts: "rows=3208/3208:692b7d6642db6c38 switches=0 combos=0 reused=0 discarded=0 phases=[d24e88e0ed182691 4000][b8509b0e0eaab4ec 9733]",
		clocks: []float64{0.0661133, 0.0649174, 0.0, 0.0411828, 0.0249305},
	},
	"planpart/agg": {
		counts: "rows=468/468:dbbb36658871b87e switches=0 combos=0 reused=0 discarded=0 phases=[d24e88e0ed182691 4000][b8509b0e0eaab4ec 9733]",
		clocks: []float64{0.0688201, 0.0676242, 0.0, 0.0411828, 0.0274969},
	},
	"blocking/static": {
		counts: "rows=468/468:dba93f4f9c4b0224 switches=0 combos=0 reused=0 discarded=0 phases=[9e6856cf12666642 4133]",
		clocks: []float64{0.0356732, 0.0172317, 0.0, 0.0355328},
	},
	"blocking/corrective": {
		counts: "rows=468/468:dbbb36658871b87e switches=2 combos=24 reused=5 discarded=38 phases=[9e6856cf12666642 300][30c6377da20437b6 150][84e1febb99f6bf81 3683]",
		clocks: []float64{0.0480589, 0.0330351, 0.0239164, 0.0013879, 0.0003611, 0.0222531},
	},
	"windowed/static": {
		counts: "rows=468/468:dd8acf419013ac5d switches=0 combos=0 reused=0 discarded=0 phases=[a23c56360ea076cc 4133]",
		clocks: []float64{0.0734055, 0.0730805, 0.0, 0.0732651},
	},
	"windowed/corrective": {
		counts: "rows=468/468:dbbb36658871b87e switches=1 combos=6 reused=0 discarded=78 phases=[a23c56360ea076cc 400][51adc8c7d99444e9 3733]",
		clocks: []float64{0.0473839, 0.0334298, 0.0232411, 0.0016635, 0.0223389},
	},
}

var layoutParallelGoldens = map[string]string{
	"planpart/spj/P=2":        "rows=3208/3208:d22e6c7a47bb1c9f switches=0 combos=0 reused=0 discarded=0 phases=[d24e88e0ed182691 4000][b8509b0e0eaab4ec 9733]",
	"planpart/spj/P=4":        "rows=3208/3208:d22e6c7a47bb1c9f switches=0 combos=0 reused=0 discarded=0 phases=[d24e88e0ed182691 4000][b8509b0e0eaab4ec 9733]",
	"planpart/agg/P=2":        "rows=468/468:db1c9a3d5ff73ffa switches=0 combos=0 reused=0 discarded=0 phases=[d24e88e0ed182691 4000][b8509b0e0eaab4ec 9733]",
	"planpart/agg/P=4":        "rows=468/468:db1c9a3d5ff73ffa switches=0 combos=0 reused=0 discarded=0 phases=[d24e88e0ed182691 4000][b8509b0e0eaab4ec 9733]",
	"blocking/static/P=2":     "rows=468/468:80ecfe21b805a9f7 switches=0 combos=0 reused=0 discarded=0 phases=[9e6856cf12666642 4133]",
	"blocking/static/P=4":     "rows=468/468:80ecfe21b805a9f7 switches=0 combos=0 reused=0 discarded=0 phases=[9e6856cf12666642 4133]",
	"blocking/corrective/P=2": "rows=468/468:db1c9a3d5ff73ffa switches=2 combos=24 reused=5 discarded=38 phases=[9e6856cf12666642 300][30c6377da20437b6 150][84e1febb99f6bf81 3683]",
	"blocking/corrective/P=4": "rows=468/468:db1c9a3d5ff73ffa switches=2 combos=24 reused=5 discarded=38 phases=[9e6856cf12666642 300][30c6377da20437b6 150][84e1febb99f6bf81 3683]",
	"windowed/static/P=2":     "rows=468/468:d5fa788283c9b3b8 switches=0 combos=0 reused=0 discarded=0 phases=[a23c56360ea076cc 4133]",
	"windowed/static/P=4":     "rows=468/468:a77ce799be0d0d6c switches=0 combos=0 reused=0 discarded=0 phases=[a23c56360ea076cc 4133]",
	"windowed/corrective/P=2": "rows=468/468:db1c9a3d5ff73ffa switches=1 combos=6 reused=0 discarded=69 phases=[a23c56360ea076cc 400][51adc8c7d99444e9 3733]",
	"windowed/corrective/P=4": "rows=468/468:db1c9a3d5ff73ffa switches=1 combos=6 reused=0 discarded=146 phases=[a23c56360ea076cc 600][51adc8c7d99444e9 3533]",
}

// TestLayoutGoldensSerial: rows in order, counters, phases and clocks of
// every leg at P=1.
func TestLayoutGoldensSerial(t *testing.T) {
	for _, leg := range layoutLegs() {
		t.Run(leg.name, func(t *testing.T) {
			rep := layoutRun(t, leg, 1)
			got := layoutGolden{counts: layoutCounts(rep, true), clocks: layoutClocks(rep)}
			want, ok := layoutSerialGoldens[leg.name]
			if !ok {
				t.Fatalf("no golden; got %q: {counts: %q, clocks: %#v},", leg.name, got.counts, got.clocks)
			}
			if got.counts != want.counts {
				t.Errorf("counts = %q\n        want %q", got.counts, want.counts)
			}
			if len(got.clocks) != len(want.clocks) {
				t.Fatalf("clocks = %#v, want %#v", got.clocks, want.clocks)
			}
			for i, w := range want.clocks {
				if g := got.clocks[i]; g != w {
					t.Errorf("clock %d = %v, want %v", i, g, w)
				}
			}
		})
	}
}

// TestLayoutGoldensParallel: the same legs at P in {2,4}. Partition clocks
// and the order in which partitions' rows interleave belong to the
// scheduler, so a leg pins its rows as a multiset and its counters. (Every
// join of the fixture hashes on one key: rows never change partition, an
// aggregate leg's float sums are exact, and PlanPartition runs serially
// whatever the width.)
func TestLayoutGoldensParallel(t *testing.T) {
	for _, leg := range layoutLegs() {
		for _, parts := range []int{2, 4} {
			name := fmt.Sprintf("%s/P=%d", leg.name, parts)
			t.Run(name, func(t *testing.T) {
				rep := layoutRun(t, leg, parts)
				if leg.o(sharedKeyFixture(7)).Strategy != PlanPartition && rep.Partitions != parts {
					t.Fatalf("run fell back to %d partitions", rep.Partitions)
				}
				got := layoutCounts(rep, false)
				want, ok := layoutParallelGoldens[name]
				if !ok {
					t.Fatalf("no golden; got %q: %q,", name, got)
				}
				if got != want {
					t.Errorf("counts = %q\n        want %q", got, want)
				}
			})
		}
	}
}
