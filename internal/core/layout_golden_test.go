package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Layout goldens. Every value below was written by the commit before
// unsigned execution settled on one layout between operators, on the runs
// whose layout that commit changes and that no benchmark workload reaches:
// both plan-partitioning stages (the one strategy that wired columnar leaf
// entries), trees with a blocking or a windowed pre-aggregate under Static
// and under Corrective with forced switching, and trees of hybrid-hash and
// of nested-loops joins. A leg pins the result rows in order, every counter
// of the Report, the phases and the virtual clock.
//
// Clocks are compared with == wherever every operator was already handed
// batches. Three kinds of leg are held to 1e-12 relative instead, because
// what their operators hand downstream changes from one row per call to one
// batch per call and the order in which a clock adds its charges shows in
// the last bits of a float sum: the output of a windowed pre-aggregate, the
// drained probes of a hybrid-hash join, and the hits of a nested-loops
// join. Their rows, counters and phases are pinned exactly like the others'.

// layoutLeg is one golden run.
type layoutLeg struct {
	name string
	spj  bool
	o    func(fx parAggFixture) Options
	// algorithm, when set, replaces the join algorithm of every join of the
	// optimizer's plan, which then runs as Options.InitialPlan.
	algorithm algebra.JoinAlgorithm
	// clockTol is the relative tolerance on clocks (0 = ==).
	clockTol float64
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
	const granular = 1e-12
	return []layoutLeg{
		{name: "planpart/spj", spj: true, o: planPart},
		{name: "planpart/agg", o: planPart},
		{name: "blocking/static", o: static(opt.PreAggTraditional)},
		{name: "blocking/corrective", o: corrective(opt.PreAggTraditional)},
		{name: "windowed/static", o: static(opt.PreAggWindowed), clockTol: granular},
		{name: "windowed/corrective", o: corrective(opt.PreAggWindowed), clockTol: granular},
		{name: "hybrid-hash/spj", spj: true, o: static(opt.PreAggNone), algorithm: algebra.JoinHybridHash, clockTol: granular},
		{name: "hybrid-hash/agg", o: static(opt.PreAggNone), algorithm: algebra.JoinHybridHash, clockTol: granular},
		{name: "nested-loops/spj", spj: true, o: static(opt.PreAggNone), algorithm: algebra.JoinNestedLoops, clockTol: granular},
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
	if leg.algorithm != "" {
		best, err := opt.Optimize(opt.Inputs{Query: &q, Known: fx.known})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range algebra.CollectJoins(best.Root) {
			j.Algorithm = leg.algorithm
		}
		o.InitialPlan = best.Root
	}
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
		clocks: []float64{0.06611329999999174, 0.06491739999999574, 0, 0.04118280000002299, 0.024930499999968755},
	},
	"planpart/agg": {
		counts: "rows=468/468:dbbb36658871b87e switches=0 combos=0 reused=0 discarded=0 phases=[d24e88e0ed182691 4000][b8509b0e0eaab4ec 9733]",
		clocks: []float64{0.06882009999997404, 0.06762419999998147, 0, 0.04118280000002299, 0.027496899999953514},
	},
	"blocking/static": {
		counts: "rows=468/468:dba93f4f9c4b0224 switches=0 combos=0 reused=0 discarded=0 phases=[9e6856cf12666642 4133]",
		clocks: []float64{0.035673200000006726, 0.017231700000000908, 0, 0.035532800000005936},
	},
	"blocking/corrective": {
		counts: "rows=468/468:dbbb36658871b87e switches=2 combos=24 reused=5 discarded=38 phases=[9e6856cf12666642 300][30c6377da20437b6 150][84e1febb99f6bf81 3683]",
		clocks: []float64{0.048058900000041774, 0.03303510000003327, 0.023916400000040982, 0.0013878999999999795, 0.0003610999999999816, 0.02225310000000004},
	},
	"windowed/static": {
		counts: "rows=468/468:dd8acf419013ac5d switches=0 combos=0 reused=0 discarded=0 phases=[a23c56360ea076cc 4133]",
		clocks: []float64{0.07340550000000569, 0.07308050000000607, 0, 0.07326510000000815},
	},
	"windowed/corrective": {
		counts: "rows=468/468:dbbb36658871b87e switches=1 combos=6 reused=0 discarded=78 phases=[a23c56360ea076cc 400][51adc8c7d99444e9 3733]",
		clocks: []float64{0.04738390000004259, 0.03342980000003773, 0.023241100000041797, 0.0016634999999999684, 0.022338900000000037},
	},
	"hybrid-hash/spj": {
		counts: "rows=3208/3208:571a66554581fef9 switches=0 combos=0 reused=0 discarded=0 phases=[e471e1478f2f6c1d 4133]",
		clocks: []float64{0.07813449999997872, 0.05826650000003084, 0, 0.07813449999997872},
	},
	"hybrid-hash/agg": {
		counts: "rows=468/468:dbbb36658871b87e switches=0 combos=0 reused=0 discarded=0 phases=[e471e1478f2f6c1d 4133]",
		clocks: []float64{0.07987889999997787, 0.060010900000033236, 0, 0.07973849999998033},
	},
	"nested-loops/spj": {
		counts: "rows=3208/3208:08bc264e828fb365 switches=0 combos=0 reused=0 discarded=0 phases=[b14cf95882b3d57b 4133]",
		clocks: []float64{1.2882124000902768, 1.2881247000902647, 0, 1.2882124000902768},
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
	"hybrid-hash/spj/P=2":     "rows=3208/3208:d22e6c7a47bb1c9f switches=0 combos=0 reused=0 discarded=0 phases=[e471e1478f2f6c1d 4133]",
	"hybrid-hash/spj/P=4":     "rows=3208/3208:d22e6c7a47bb1c9f switches=0 combos=0 reused=0 discarded=0 phases=[e471e1478f2f6c1d 4133]",
	"hybrid-hash/agg/P=2":     "rows=468/468:db1c9a3d5ff73ffa switches=0 combos=0 reused=0 discarded=0 phases=[e471e1478f2f6c1d 4133]",
	"hybrid-hash/agg/P=4":     "rows=468/468:db1c9a3d5ff73ffa switches=0 combos=0 reused=0 discarded=0 phases=[e471e1478f2f6c1d 4133]",
	"nested-loops/spj/P=2":    "rows=3208/3208:d22e6c7a47bb1c9f switches=0 combos=0 reused=0 discarded=0 phases=[b14cf95882b3d57b 4133]",
	"nested-loops/spj/P=4":    "rows=3208/3208:d22e6c7a47bb1c9f switches=0 combos=0 reused=0 discarded=0 phases=[b14cf95882b3d57b 4133]",
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
				if g := got.clocks[i]; g != w && !(math.Abs(g-w) <= leg.clockTol*math.Abs(w)) {
					t.Errorf("clock %d = %v, want %v (tolerance %g)", i, g, w, leg.clockTol)
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
