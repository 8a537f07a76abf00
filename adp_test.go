package adp_test

import (
	"context"
	"strings"
	"testing"

	adp "github.com/tukwila/adp"
)

// TestPublicAPIStreaming smokes the streaming cursor through the public
// surface: functional options, the rows iterator, the event replay, and
// Execute/Stream equivalence.
func TestPublicAPIStreaming(t *testing.T) {
	eng, q := buildDemo()
	ref, err := eng.Execute(q, adp.Options{Strategy: adp.StrategyCorrective, PollEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Stream(context.Background(), q,
		adp.WithStrategy(adp.StrategyCorrective),
		adp.WithPollEvery(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var rows []adp.Tuple
	for r, rerr := range s.Rows() {
		if rerr != nil {
			t.Fatal(rerr)
		}
		rows = append(rows, r)
	}
	rep, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ref.Rows) {
		t.Fatalf("streamed %d rows, Execute returned %d", len(rows), len(ref.Rows))
	}
	for i := range rows {
		if rows[i].String() != ref.Rows[i].String() {
			t.Fatalf("row %d: %s vs %s", i, rows[i], ref.Rows[i])
		}
	}
	if rep.VirtualSeconds != ref.VirtualSeconds {
		t.Errorf("clocks differ: %g vs %g", rep.VirtualSeconds, ref.VirtualSeconds)
	}
	var sawPhase bool
	var final adp.RowsDelivered
	for ev := range s.Events() {
		switch e := ev.(type) {
		case adp.PhaseStarted:
			sawPhase = true
		case adp.RowsDelivered:
			final = e
		}
	}
	if !sawPhase || final.Rows != int64(len(rows)) {
		t.Errorf("event replay incomplete: phase=%v finalRows=%d want %d", sawPhase, final.Rows, len(rows))
	}
}

// buildDemo assembles a tiny orders/customers engine through the public
// API only — this is the package's integration smoke test.
func buildDemo() (*adp.Engine, *adp.Query) {
	orders := adp.NewRelation("orders", adp.NewSchema(
		adp.Col{Name: "orders.id", Kind: adp.KindInt},
		adp.Col{Name: "orders.custkey", Kind: adp.KindInt},
		adp.Col{Name: "orders.total", Kind: adp.KindFloat},
	), nil)
	for i := int64(0); i < 500; i++ {
		orders.Rows = append(orders.Rows, adp.Tuple{
			adp.Int(i), adp.Int(i % 25), adp.Float(float64(i)),
		})
	}
	custs := adp.NewRelation("customers", adp.NewSchema(
		adp.Col{Name: "customers.custkey", Kind: adp.KindInt},
		adp.Col{Name: "customers.name", Kind: adp.KindString},
	), nil)
	for i := int64(0); i < 25; i++ {
		custs.Rows = append(custs.Rows, adp.Tuple{adp.Int(i), adp.Str("cust" + adp.Int(i).String())})
	}
	eng := adp.NewEngine()
	eng.Register(orders)
	eng.Register(custs)
	q := eng.Query("spend").
		From("orders", "customers").
		Join("orders", "custkey", "customers", "custkey").
		GroupBy("customers.name").
		Agg(adp.AggSum, adp.Column("orders.total"), "spend").
		Agg(adp.AggCount, nil, "orders").
		MustBuild()
	return eng, q
}

func TestPublicAPIEndToEnd(t *testing.T) {
	eng, q := buildDemo()
	for _, strat := range []adp.Strategy{adp.StrategyStatic, adp.StrategyCorrective, adp.StrategyPlanPartition} {
		rep, err := eng.Execute(q, adp.Options{Strategy: strat, PollEvery: 64})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(rep.Rows) != 25 {
			t.Fatalf("%v: %d groups, want 25", strat, len(rep.Rows))
		}
		var spend float64
		var n int64
		for _, r := range rep.Rows {
			spend += r[1].AsFloat()
			n += r[2].AsInt()
		}
		if spend != 499*500/2 || n != 500 {
			t.Errorf("%v: totals wrong: spend=%g n=%d", strat, spend, n)
		}
	}
}

func TestPublicAPIPartitionParallel(t *testing.T) {
	eng, q := buildDemo()
	rep, err := eng.Execute(q, adp.Options{Strategy: adp.StrategyStatic, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partitions != 4 {
		t.Errorf("partitions = %d, want 4", rep.Partitions)
	}
	if len(rep.Phases) != 1 || len(rep.Phases[0].PartitionSeconds) != 4 {
		t.Fatalf("per-partition clocks not reported: %+v", rep.Phases)
	}
	if len(rep.Rows) != 25 {
		t.Fatalf("%d groups, want 25", len(rep.Rows))
	}
	var spend float64
	var n int64
	for _, r := range rep.Rows {
		spend += r[1].AsFloat()
		n += r[2].AsInt()
	}
	if spend != 499*500/2 || n != 500 {
		t.Errorf("totals wrong: spend=%g n=%d", spend, n)
	}
}

func TestPublicAPIPreAggAndRemote(t *testing.T) {
	eng, q := buildDemo()
	rel, _ := eng.Relation("orders")
	eng.RegisterRemote(rel, adp.Bandwidth{TuplesPerSec: 100000})
	rep, err := eng.Execute(q, adp.Options{
		Strategy: adp.StrategyStatic,
		PreAgg:   adp.PreAggWindowed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 25 {
		t.Fatalf("groups = %d", len(rep.Rows))
	}
	if rep.VirtualSeconds <= 0 {
		t.Error("no virtual time recorded")
	}
	out := adp.FormatRows(rep.Schema, rep.Rows, 5)
	if !strings.Contains(out, "spend") {
		t.Errorf("FormatRows missing header:\n%s", out)
	}
}

func TestPublicAPIDatasetAndComplementaryJoin(t *testing.T) {
	d := adp.GenerateDataset(adp.DatagenConfig{ScaleFactor: 0.002, Seed: 3})
	li, ord := d.Lineitem, d.Orders
	ctx := adp.NewExecContext()
	var n int
	cj := adp.NewComplementaryJoin(ctx, li.Schema, ord.Schema,
		[]int{li.Schema.MustIndexOf("l_orderkey")},
		[]int{ord.Schema.MustIndexOf("o_orderkey")},
		adp.DefaultPQCap,
		adp.SinkFunc(func(ts []adp.Tuple, _ int) { n += len(ts) }))
	cj.PushLeftBatch(li.Rows)
	cj.PushRightBatch(ord.Rows)
	cj.Finish()
	if n != li.Len() {
		t.Errorf("FK join output %d, want %d", n, li.Len())
	}
	if cj.Stats.MergeOut != int64(n) {
		t.Errorf("sorted inputs should all merge-join: %+v", cj.Stats)
	}
	// Reorder helpers exposed.
	sh := adp.Shuffle(ord, 1)
	if sh.Len() != ord.Len() {
		t.Error("Shuffle broken")
	}
	rf := adp.ReorderFraction(ord, 0.5, 1)
	srt := adp.SortBy(rf, "o_orderkey")
	if srt.Rows[0][0].I != 0 {
		t.Error("SortBy broken")
	}
}
