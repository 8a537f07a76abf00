package core

import (
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/opt"
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
	tree, err := Lower(ctx, res.Root, exec.SinkFunc(func(ts []types.Tuple) { out = append(out, ts...) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.EntryBatch) != 2 || len(tree.Joins) != 1 {
		t.Fatalf("tree shape wrong: %d entries %d joins", len(tree.EntryBatch), len(tree.Joins))
	}
	tree.EntryBatch["A"]([]types.Tuple{types.Tuple{types.Int(1), types.Int(10)}})
	tree.EntryBatch["B"]([]types.Tuple{types.Tuple{types.Int(1)}})
	tree.EntryBatch["A"]([]types.Tuple{types.Tuple{types.Int(1), types.Int(20)}})
	tree.EntryBatch["B"]([]types.Tuple{types.Tuple{types.Int(2)}})
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
	// Push repetitive A tuples; the window operator should coalesce.
	for i := 0; i < 512; i++ {
		tree.EntryBatch["A"]([]types.Tuple{types.Tuple{types.Int(int64(i % 4)), types.Int(1)}})
	}
	tree.EntryBatch["B"]([]types.Tuple{types.Tuple{types.Int(1)}})
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
	tree, err := Lower(ctx, res.Root, exec.SinkFunc(func(ts []types.Tuple) { out = append(out, ts...) }))
	if err != nil {
		t.Fatal(err)
	}
	tree.EntryBatch["B"]([]types.Tuple{types.Tuple{types.Int(0)}})
	for i := 0; i < 100; i++ {
		tree.EntryBatch["A"]([]types.Tuple{types.Tuple{types.Int(0), types.Int(1)}})
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
}

func TestLowerProjectNode(t *testing.T) {
	q := treeFixtureQuery()
	scan := algebra.NewScan(q.Relations[0])
	proj, err := algebra.NewProject(scan, []string{"A.v"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewContext()
	var out []types.Tuple
	tree, err := Lower(ctx, proj, exec.SinkFunc(func(ts []types.Tuple) { out = append(out, ts...) }))
	if err != nil {
		t.Fatal(err)
	}
	tree.EntryBatch["A"]([]types.Tuple{types.Tuple{types.Int(1), types.Int(42)}})
	if len(out) != 1 || out[0][0].I != 42 || len(out[0]) != 1 {
		t.Errorf("projection wrong: %v", out)
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

func TestTreeCollisionFactor(t *testing.T) {
	q := treeFixtureQuery()
	res, err := opt.Optimize(opt.Inputs{Query: q, Known: map[string]float64{"A": 64, "B": 64}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewContext()
	tree, err := Lower(ctx, res.Root, exec.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if f := treeCollisionFactor(tree); f != 1 {
		t.Errorf("empty tables should have factor 1, got %g", f)
	}
	// Overfill: estimates said 64, feed 10k distinct keys.
	for i := 0; i < 10000; i++ {
		tree.EntryBatch["A"]([]types.Tuple{types.Tuple{types.Int(int64(i)), types.Int(1)}})
	}
	if f := treeCollisionFactor(tree); f <= 2 {
		t.Errorf("overfilled fixed table should raise factor, got %g", f)
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
		tree, err := lower(exec.NewContext(), res.Root, exec.SinkFunc(func(ts []types.Tuple) { out += int64(len(ts)) }), reuse)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.Joins) != 2 {
			t.Fatalf("flights plan has %d joins, want 2", len(tree.Joins))
		}
		for name, rel := range map[string][]types.Tuple{"F": f.Rows, "T": tr.Rows, "C": c.Rows} {
			tree.EntryBatch[name](rel)
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
