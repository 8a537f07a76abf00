package core

import (
	"slices"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

func treeFixtureQuery() *algebra.Query {
	return &algebra.Query{
		Name: "t",
		Relations: []algebra.RelRef{
			{Name: "A", Schema: types.NewSchema(
				types.Column{Name: "A.k", Kind: types.KindInt},
				types.Column{Name: "A.v", Kind: types.KindInt})},
			{Name: "B", Schema: types.NewSchema(
				types.Column{Name: "B.k", Kind: types.KindInt})},
		},
		Joins: []algebra.JoinPred{
			{LeftRel: "A", LeftCol: "k", RightRel: "B", RightCol: "k"},
		},
		GroupBy: []string{"B.k"},
		Aggs:    []algebra.AggSpec{{Kind: algebra.AggSum, Arg: expr.Column("A.v"), As: "s"}},
	}
}

func TestLowerSimpleJoin(t *testing.T) {
	q := treeFixtureQuery()
	res, err := opt.Optimize(opt.Inputs{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewContext()
	var out []types.Tuple
	tree, err := Lower(ctx, res.Root, exec.SinkFunc(func(ts []types.Tuple, _ int) { out = append(out, ts...) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Entry) != 2 || len(tree.Joins) != 1 {
		t.Fatalf("tree shape wrong: %d entries %d joins", len(tree.Entry), len(tree.Joins))
	}
	// A pipelined join has nothing to do at end of stream: a join-only
	// plan runs no finish step, and its partitioned lowering no broadcast
	// finish round.
	if n := tree.FinishSteps(); n != 0 {
		t.Errorf("FinishSteps = %d, want 0", n)
	}
	pt, err := LowerPartitioned(2, nil, res.Root, exec.NewPartitionMerge(2))
	if err != nil {
		t.Fatal(err)
	}
	if n := pt.FinishSteps(); n != 0 {
		t.Errorf("partitioned FinishSteps = %d, want 0", n)
	}
	tree.Entry["A"].Push([]types.Tuple{types.Tuple{types.Int(1), types.Int(10)}}, 0)
	tree.Entry["B"].Push([]types.Tuple{types.Tuple{types.Int(1)}}, 0)
	tree.Entry["A"].Push([]types.Tuple{types.Tuple{types.Int(1), types.Int(20)}}, 0)
	tree.Entry["B"].Push([]types.Tuple{types.Tuple{types.Int(2)}}, 0)
	tree.Finish()
	if len(out) != 2 {
		t.Fatalf("outputs = %d, want 2", len(out))
	}
	// A plan lowered to run alone materializes nothing; its only join is
	// the root, which would not be captured for stitch-up reuse either.
	j := tree.Joins[0]
	if j.ResultBuf != nil {
		t.Error("root join output materialized with no reader")
	}
	if j.Node.Counters().Out != 2 {
		t.Errorf("root join counted %d output rows, want 2", j.Node.Counters().Out)
	}
	if j.Key != algebra.CanonKey([]string{"A", "B"}) {
		t.Errorf("join key = %q", j.Key)
	}
	if _, ok := tree.JoinFor(j.Key); !ok {
		t.Error("JoinFor lookup failed")
	}
	if _, ok := tree.JoinFor("nope"); ok {
		t.Error("JoinFor should miss")
	}
}

func TestLowerWindowedPreAgg(t *testing.T) {
	q := treeFixtureQuery()
	res, err := opt.Optimize(opt.Inputs{
		Query:  q,
		Known:  map[string]float64{"A": 10000, "B": 10},
		PreAgg: opt.PreAggWindowed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreAggLeaf != "A" {
		t.Skipf("optimizer chose no pre-agg (leaf %q)", res.PreAggLeaf)
	}
	ctx := exec.NewContext()
	tree, err := Lower(ctx, res.Root, exec.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.HasPreAgg || tree.PreAggWindow == nil {
		t.Fatal("windowed pre-agg not lowered")
	}
	if n := tree.FinishSteps(); n != 1 {
		t.Errorf("FinishSteps = %d, want 1: the pre-aggregate's flush", n)
	}
	// Push repetitive A tuples; the window operator should coalesce.
	for i := 0; i < 512; i++ {
		tree.Entry["A"].Push([]types.Tuple{types.Tuple{types.Int(int64(i % 4)), types.Int(1)}}, 0)
	}
	tree.Entry["B"].Push([]types.Tuple{types.Tuple{types.Int(1)}}, 0)
	tree.Finish()
	if tree.PreAggWindow.Coalesced == 0 {
		t.Error("window pre-agg did not coalesce repetitive input")
	}
}

func TestLowerTraditionalPreAggBlocksUntilFinish(t *testing.T) {
	q := treeFixtureQuery()
	res, err := opt.Optimize(opt.Inputs{
		Query:  q,
		Known:  map[string]float64{"A": 10000, "B": 10},
		PreAgg: opt.PreAggTraditional,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreAggLeaf != "A" {
		t.Skip("traditional pre-agg not inserted")
	}
	ctx := exec.NewContext()
	var out []types.Tuple
	tree, err := Lower(ctx, res.Root, exec.SinkFunc(func(ts []types.Tuple, _ int) { out = append(out, ts...) }))
	if err != nil {
		t.Fatal(err)
	}
	tree.Entry["B"].Push([]types.Tuple{types.Tuple{types.Int(0)}}, 0)
	for i := 0; i < 100; i++ {
		tree.Entry["A"].Push([]types.Tuple{types.Tuple{types.Int(0), types.Int(1)}}, 0)
	}
	if len(out) != 0 {
		t.Fatal("blocking pre-agg emitted before finish")
	}
	tree.Finish()
	if len(out) != 1 {
		t.Fatalf("outputs = %d, want 1 coalesced partial join result", len(out))
	}
}

func TestLowerRejectsFinalGroupInsideTree(t *testing.T) {
	q := treeFixtureQuery()
	scan := algebra.NewScan(q.Relations[0])
	final := algebra.NewGroup(scan, []string{"A.k"}, q.Aggs)
	ctx := exec.NewContext()
	if _, err := Lower(ctx, final, exec.Discard); err == nil {
		t.Error("final aggregation inside a phase tree must be rejected")
	}

	// A join algorithm lowering cannot run is rejected by name, not run as
	// a pipelined hash join under a plan string naming another join.
	join := func(alg algebra.JoinAlgorithm) algebra.Plan {
		j := algebra.NewJoin(algebra.NewScan(q.Relations[0]), algebra.NewScan(q.Relations[1]), q.Joins)
		j.Algorithm = alg
		return j
	}
	for _, alg := range []algebra.JoinAlgorithm{algebra.JoinComplementary, "hybrid-hash", "nested-loops", "merge", "sort-merge"} {
		_, err := Lower(ctx, join(alg), exec.Discard)
		if err == nil || !strings.Contains(err.Error(), string(alg)) {
			t.Errorf("join algorithm %q: err = %v, want a rejection naming it", alg, err)
		}
	}
	for _, alg := range []algebra.JoinAlgorithm{"", algebra.JoinPipelinedHash} {
		if _, err := Lower(ctx, join(alg), exec.Discard); err != nil {
			t.Errorf("join algorithm %q: %v", alg, err)
		}
	}
}

func TestLowerDuplicateRelationRejected(t *testing.T) {
	q := treeFixtureQuery()
	a := algebra.NewScan(q.Relations[0])
	j := algebra.NewJoin(a, algebra.NewScan(q.Relations[0]), []algebra.JoinPred{q.Joins[0]})
	ctx := exec.NewContext()
	if _, err := Lower(ctx, j, exec.Discard); err == nil {
		t.Error("duplicate relation in plan must be rejected")
	}
}

func TestSamePlanShape(t *testing.T) {
	q := treeFixtureQuery()
	a := algebra.NewScan(q.Relations[0])
	b := algebra.NewScan(q.Relations[1])
	ab := algebra.NewJoin(a, b, q.Joins)
	ba := algebra.NewJoin(b, a, q.Joins)
	if samePlanShape(ab, ba) {
		t.Error("mirrored joins are different physical shapes")
	}
	if !samePlanShape(ab, algebra.NewJoin(a, b, q.Joins)) {
		t.Error("identical shapes should match")
	}
}

// TestTreeCollisionFactor: healthy tables cost nothing extra, one overfilled
// fixed-bucket table anywhere in the lowered plan — its one tree, or any of
// its partition clones — raises the factor.
func TestTreeCollisionFactor(t *testing.T) {
	q := treeFixtureQuery()
	res, err := opt.Optimize(opt.Inputs{Query: q, Known: map[string]float64{"A": 64, "B": 64}})
	if err != nil {
		t.Fatal(err)
	}
	for name, lowered := range map[string]func() ([]*Tree, error){
		"one tree": func() ([]*Tree, error) {
			tree, err := Lower(exec.NewContext(), res.Root, exec.Discard)
			return []*Tree{tree}, err
		},
		"4 clones": func() ([]*Tree, error) {
			pt, err := LowerPartitioned(4, nil, res.Root, exec.NewPartitionMerge(4))
			if err != nil {
				return nil, err
			}
			return pt.Trees, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			trees, err := lowered()
			if err != nil {
				t.Fatal(err)
			}
			if f := collisionFactor(trees); f != 1 {
				t.Errorf("empty tables should have factor 1, got %g", f)
			}
			// Overfill: estimates said 64, feed 10k distinct keys.
			last := trees[len(trees)-1]
			for i := 0; i < 10000; i++ {
				last.Entry["A"].Push([]types.Tuple{types.Tuple{types.Int(int64(i)), types.Int(1)}}, 0)
			}
			if f := collisionFactor(trees); f <= 2 {
				t.Errorf("overfilled fixed table should raise factor, got %g", f)
			}
		})
	}
}

// TestSerialPhaseIsOneTreePhase: a serial phase is the one-tree case of the
// monitor's view over []*Tree, not a second implementation. Over one lowered
// tree the helpers return what Tree.joinViews and treeCollisionFactor
// returned before they went (the literals were written by commit a34c48a
// for this plan and data), and the intermediates registered for a stitch-up
// are the joins' own buffers — every row is buffered once.
func TestSerialPhaseIsOneTreePhase(t *testing.T) {
	f, tr, c := flightsData(800, 1000, 700, 5)
	rels := map[string]*source.Relation{"F": f, "T": tr, "C": c}
	q := flightsQuery()
	res, err := opt.Optimize(opt.Inputs{Query: q, Known: map[string]float64{"F": 50, "T": 60, "C": 40}})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := lower(exec.NewContext(), res.Root, exec.Discard, true)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []*exec.Leaf
	for _, rel := range q.Relations {
		leaves = append(leaves, &exec.Leaf{Provider: source.NewProvider(rels[rel.Name], nil), PushBatch: exec.Feed(tree.Entry[rel.Name])})
	}
	exec.NewDriver(exec.NewContext(), leaves...).Run(0, nil)
	tree.Finish()
	trees := []*Tree{tree}

	want := []joinView{
		{Key: "⋈{F,T}", Out: 970, InLeft: 1000, InRight: 800},
		{Key: "⋈{C,F,T}", Out: 626, InLeft: 970, InRight: 700},
	}
	views := joinViews(trees)
	if len(views) != len(want) {
		t.Fatalf("%d join views, want %d", len(views), len(want))
	}
	for i, v := range views {
		j := tree.Joins[i]
		if v.Key != want[i].Key || v.Out != want[i].Out || v.InLeft != want[i].InLeft || v.InRight != want[i].InRight {
			t.Errorf("view %d = %+v, want %+v", i, v, want[i])
		}
		if v.Key != j.Key || !slices.Equal(v.Rels, j.Rels) || len(v.Preds) != len(j.Preds) || v.Out != j.Node.Counters().Out {
			t.Errorf("view %d = %+v does not describe join %s", i, v, j.Key)
		}
	}
	if got := collisionFactor(trees); got != 8.3125 {
		t.Errorf("collision factor = %v, want 8.3125", got)
	}
	interm, rootRows := intermediates(trees)
	inner, root := tree.Joins[0], tree.Joins[1]
	if len(interm) != 1 || interm[inner.Key] != inner.ResultBuf || inner.ResultBuf.Len() != 970 {
		t.Errorf("intermediates = %v, want the inner join's own 970-row buffer %p", interm, inner.ResultBuf)
	}
	if root.ResultBuf != nil || rootRows != 626 {
		t.Errorf("root join: buffer %v, %d root rows, want none and 626", root.ResultBuf, rootRows)
	}
}

// TestLowerForReuseMaterializesBelowTheRootOnly pins the lowering rule —
// materialise only for a reader that can exist. A plan lowered to run
// alone keeps no join output; one lowered for stitch-up reuse tees every
// join below the root into its ResultBuf and leaves the root join, whose
// uniform vector the exclusion list rules out, with a row count.
func TestLowerForReuseMaterializesBelowTheRootOnly(t *testing.T) {
	res, err := opt.Optimize(opt.Inputs{Query: flightsQuery()})
	if err != nil {
		t.Fatal(err)
	}
	f, tr, c := flightsData(30, 80, 60, 1)
	for _, reuse := range []bool{false, true} {
		var out int64
		tree, err := lower(exec.NewContext(), res.Root, exec.SinkFunc(func(ts []types.Tuple, _ int) { out += int64(len(ts)) }), reuse)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.Joins) != 2 {
			t.Fatalf("flights plan has %d joins, want 2", len(tree.Joins))
		}
		for name, rel := range map[string][]types.Tuple{"F": f.Rows, "T": tr.Rows, "C": c.Rows} {
			tree.Entry[name].Push(rel, 0)
		}
		tree.Finish()
		inner, root := tree.Joins[0], tree.Joins[1]
		if len(root.Rels) != 3 || len(inner.Rels) != 2 {
			t.Fatalf("joins not bottom-up: %v then %v", inner.Rels, root.Rels)
		}
		if root.ResultBuf != nil {
			t.Errorf("reuse=%v: root join output materialized", reuse)
		}
		if got := root.Node.Counters().Out; got != out || out == 0 {
			t.Errorf("reuse=%v: root join counted %d rows, sink received %d", reuse, got, out)
		}
		switch {
		case !reuse && inner.ResultBuf != nil:
			t.Error("a plan lowered to run alone materialized a join output")
		case reuse && (inner.ResultBuf == nil || int64(inner.ResultBuf.Len()) != inner.Node.Counters().Out):
			t.Errorf("lowered for reuse, the inner join's buffer is %v for %d output rows", inner.ResultBuf, inner.Node.Counters().Out)
		}
	}
}
