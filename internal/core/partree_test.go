package core

import (
	"context"
	"sort"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// sortedStrings renders tuples as sorted strings for multiset comparison.
func sortedStrings(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestParallelStaticMatchesSerial pins the Run-level P>1 vs P=1 contract
// on the three-way flights join (two different join keys plus a group-by
// on a third column set, so both the join→join and join→agg exchanges
// carry cross-partition traffic): identical aggregate output, identical
// delivered counts, per-partition clocks reported, and the makespan
// folded into VirtualSeconds.
func TestParallelStaticMatchesSerial(t *testing.T) {
	for _, parts := range []int{2, 4} {
		f, tr, c := flightsData(900, 1200, 800, 11)
		serial, err := Run(catalogOf(f, tr, c), flightsQuery(), Options{Strategy: Static})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Run(catalogOf(f, tr, c), flightsQuery(), Options{Strategy: Static, Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		checkFlightsResult(t, par, refFlights(f, tr, c))
		// The shared aggregate emits sorted groups, so output must be
		// byte-identical, not just multiset-equal.
		if len(par.Rows) != len(serial.Rows) {
			t.Fatalf("P=%d: rows = %d, serial %d", parts, len(par.Rows), len(serial.Rows))
		}
		for i := range par.Rows {
			if par.Rows[i].String() != serial.Rows[i].String() {
				t.Fatalf("P=%d: row %d = %v, serial %v", parts, i, par.Rows[i], serial.Rows[i])
			}
		}
		if par.Partitions != parts {
			t.Errorf("report partitions = %d, want %d", par.Partitions, parts)
		}
		if len(par.Phases) != 1 {
			t.Fatalf("static must run one phase, got %d", len(par.Phases))
		}
		ph := par.Phases[0]
		if ph.Delivered != serial.Phases[0].Delivered {
			t.Errorf("delivered = %d, serial %d", ph.Delivered, serial.Phases[0].Delivered)
		}
		if len(ph.PartitionSeconds) != parts {
			t.Fatalf("partition clocks = %d, want %d", len(ph.PartitionSeconds), parts)
		}
		makespan := 0.0
		for p, s := range ph.PartitionSeconds {
			if s <= 0 {
				t.Errorf("partition %d clock = %g, want > 0", p, s)
			}
			if s > makespan {
				makespan = s
			}
		}
		if par.VirtualSeconds < makespan {
			t.Errorf("virtual seconds %g below partition makespan %g", par.VirtualSeconds, makespan)
		}
		if par.CPUSeconds <= serial.CPUSeconds/2 {
			t.Errorf("parallel CPU %g implausibly low vs serial %g", par.CPUSeconds, serial.CPUSeconds)
		}
	}
}

// TestParallelSPJMultisetMatchesSerial pins SPJ output as a multiset (the
// partition-ordered merge makes global order differ from the serial
// stream, which the contract allows).
func TestParallelSPJMultisetMatchesSerial(t *testing.T) {
	q := &algebra.Query{
		Name: "spj",
		Relations: []algebra.RelRef{
			{Name: "T", Schema: tSchema()},
			{Name: "C", Schema: cSchema()},
		},
		Joins:   []algebra.JoinPred{{LeftRel: "T", LeftCol: "ssn", RightRel: "C", RightCol: "p"}},
		Project: []string{"T.flight", "C.num"},
	}
	_, tr, c := flightsData(10, 1500, 1000, 13)
	serial, err := Run(catalogOf(tr, c), q, Options{Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(catalogOf(tr, c), q, Options{Strategy: Static, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	ss, ps := sortedStrings(serial.Rows), sortedStrings(par.Rows)
	if len(ss) != len(ps) {
		t.Fatalf("rows = %d, serial %d", len(ps), len(ss))
	}
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("multiset mismatch at %d: %s vs %s", i, ps[i], ss[i])
		}
	}
}

// TestParallelCorrectiveForcedSwitching runs the corrective monitor with
// aggressive switching on partitioned phases: plan switches, stitch-up,
// and the final shared aggregate must still produce the brute-force
// result (the paper's invariant — any phase sequence is correct).
func TestParallelCorrectiveForcedSwitching(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f, tr, c := flightsData(150, 400, 300, seed)
		rep, err := Run(catalogOf(f, tr, c), flightsQuery(), Options{
			Strategy:     Corrective,
			PollEvery:    50,
			SwitchFactor: 0.99,
			MaxPhases:    5,
			Partitions:   3,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkFlightsResult(t, rep, refFlights(f, tr, c))
		// Per-phase partition clocks are deltas, bounded by the phase's
		// own makespan — even for phases after a plan switch.
		for i, ph := range rep.Phases {
			for p, s := range ph.PartitionSeconds {
				if s < 0 || s > ph.Seconds {
					t.Errorf("seed %d phase %d partition %d: %g outside [0, %g]", seed, i, p, s, ph.Seconds)
				}
			}
		}
	}
}

// TestParallelFallsBackWhenNotPartitionable: single-relation plans have
// no join/group key to scatter on; Partitions > 1 must degrade to the
// serial executor, not fail.
func TestParallelFallsBackWhenNotPartitionable(t *testing.T) {
	q := &algebra.Query{
		Name:      "scan",
		Relations: []algebra.RelRef{{Name: "C", Schema: cSchema()}},
		Project:   []string{"C.num"},
	}
	_, _, c := flightsData(5, 5, 400, 3)
	serial, err := Run(catalogOf(c), q, Options{Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(catalogOf(c), q, Options{Strategy: Static, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Partitions > 1 {
		t.Errorf("fallback run should stay serial, got partitions=%d", par.Partitions)
	}
	ss, ps := sortedStrings(serial.Rows), sortedStrings(par.Rows)
	if len(ss) != len(ps) {
		t.Fatalf("rows = %d, serial %d", len(ps), len(ss))
	}
}

// TestPartitionedLoweringCountersSumToSerial drives the lowered pipelines
// directly and pins the aggregation contract: every logical join's
// counters summed across the partition clones equal the serial node's
// counters exactly, the root output multisets coincide, and every
// partition performed work on its own clock.
func TestPartitionedLoweringCountersSumToSerial(t *testing.T) {
	f, tr, c := flightsData(800, 1000, 700, 5)
	rels := map[string]*source.Relation{"F": f, "T": tr, "C": c}
	q := flightsQuery()
	res, err := opt.Optimize(opt.Inputs{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Root

	// Serial reference.
	sctx := exec.NewContext()
	var srows []types.Tuple
	stree, err := lower(sctx, root, exec.SinkFunc(func(ts []types.Tuple, _ int) { srows = append(srows, ts...) }), true)
	if err != nil {
		t.Fatal(err)
	}
	var sleaves []*exec.Leaf
	for _, rel := range q.Relations {
		sleaves = append(sleaves, &exec.Leaf{
			Provider:  source.NewProvider(rels[rel.Name], nil),
			PushBatch: exec.Feed(stree.Entry[rel.Name]),
		})
	}
	exec.NewDriver(sctx, sleaves...).Run(0, nil)
	stree.Finish()

	// Partitioned pipelines.
	const parts = 4
	merge := exec.NewPartitionMerge(parts)
	pt, err := lowerPartitioned(parts, exec.NewContext, root, mergeRoots(merge), true)
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
	pd := exec.NewParallelDriver(exec.NewContext(), pt.Ctxs)
	pd.Bind(handlers, pt.RunFinisher, pt.FinishSteps())
	pt.Bind(pd.StageSend, len(names))
	var pleaves []*exec.Leaf
	for i, rel := range q.Relations {
		pleaves = append(pleaves, &exec.Leaf{
			Provider:  source.NewProvider(rels[rel.Name], nil),
			PushBatch: exec.Feed(pd.LeafScatter(i, pt.LeafKeys[rel.Name])),
		})
	}
	if exhausted, err := pd.RunContext(context.Background(), pleaves, 0, nil); err != nil || !exhausted {
		t.Fatal("parallel run did not exhaust sources")
	}
	pd.Finish()
	pd.Close()
	var prows []types.Tuple
	merge.Drain(exec.SinkFunc(func(ts []types.Tuple, _ int) { prows = append(prows, ts...) }))

	// Root output multisets coincide.
	ss, ps := sortedStrings(srows), sortedStrings(prows)
	if len(ss) != len(ps) {
		t.Fatalf("root rows = %d, serial %d", len(ps), len(ss))
	}
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("root multiset mismatch at %d: %s vs %s", i, ps[i], ss[i])
		}
	}
	// Join counters sum to the serial totals.
	sviews, pviews := joinViews([]*Tree{stree}), joinViews(pt.Trees)
	if len(sviews) != len(pviews) {
		t.Fatalf("join count = %d, serial %d", len(pviews), len(sviews))
	}
	for i := range sviews {
		if sviews[i].Key != pviews[i].Key {
			t.Fatalf("join %d key %q, serial %q", i, pviews[i].Key, sviews[i].Key)
		}
		if pviews[i].Out != sviews[i].Out || pviews[i].InLeft != sviews[i].InLeft || pviews[i].InRight != sviews[i].InRight {
			t.Errorf("join %s counters = %+v, serial %+v", sviews[i].Key, pviews[i], sviews[i])
		}
	}
	// Merged intermediates cover the serial materialization; the root
	// join materializes nothing on either side and is counted instead.
	interm, rootRows := intermediates(pt.Trees)
	for _, j := range stree.Joins {
		if j.ResultBuf == nil {
			if _, ok := interm[j.Key]; ok || rootRows != j.Node.Counters().Out {
				t.Errorf("root join %s: merged list %v, root rows %d, serial output %d", j.Key, ok, rootRows, j.Node.Counters().Out)
			}
			continue
		}
		m, ok := interm[j.Key]
		if !ok || m.Len() != j.ResultBuf.Len() {
			t.Errorf("interm %s = %v rows, serial %d", j.Key, m, j.ResultBuf.Len())
		}
	}
	// Every partition worked on its own clock.
	for p, ctx := range pt.Ctxs {
		if ctx.Clock.CPU <= 0 {
			t.Errorf("partition %d charged no CPU", p)
		}
	}
}
