package engine

import (
	"context"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// ordersDeltas is a churn script against the testEngine fixture: new
// orders for customer 3, a retracted original, and an insert/delete pair
// that must cancel.
func ordersDeltas() []source.Delta {
	return []source.Delta{
		source.Ins(0.01, types.Int(1000), types.Int(3), types.Float(500)),
		source.Del(0.02, types.Int(13), types.Int(3), types.Float(13)),
		source.Ins(0.03, types.Int(1001), types.Int(7), types.Float(40)),
		source.Del(0.04, types.Int(1001), types.Int(7), types.Float(40)),
		source.Ins(0.05, types.Int(1002), types.Int(3), types.Float(250)),
	}
}

func standingSpendQuery(e *Engine) *algebra.Query {
	return e.Query("spend").
		From("orders", "cust").
		Join("orders", "cust", "cust", "id").
		GroupBy("cust.name").
		Agg(algebra.AggSum, expr.Column("orders.total"), "spend").
		MustBuild()
}

func TestRegisterStandingMaintainsAggregate(t *testing.T) {
	e := testEngine()
	q := standingSpendQuery(e)
	sq, err := e.RegisterStanding(context.Background(), q, map[string][]source.Delta{
		"orders": ordersDeltas(),
	}, WithStrategy(core.Static), WithPollEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()

	// Initial result streams through the row cursor like any run.
	var initial []types.Tuple
	for row, err := range sq.Rows() {
		if err != nil {
			t.Fatal(err)
		}
		initial = append(initial, row)
	}
	if len(initial) != 10 {
		t.Fatalf("initial groups = %d, want 10", len(initial))
	}

	// Updates arrive through the update cursor; their concatenation is
	// the report's update log.
	var ups []ivm.Update
	for u, err := range sq.Updates() {
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u)
	}
	rep, err := sq.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != len(rep.Updates) {
		t.Fatalf("cursor updates = %d, report updates = %d", len(ups), len(rep.Updates))
	}
	if rep.DeltaRows != int64(len(ordersDeltas())) {
		t.Errorf("DeltaRows = %d, want %d", rep.DeltaRows, len(ordersDeltas()))
	}

	// Folding the updates from empty reproduces Maintained: the baseline
	// watermark (Seq 0) asserts the initial result itself.
	fold := ivm.NewMultiset()
	for _, u := range ups {
		fold.Apply(u)
	}
	if fold.Negative() {
		t.Fatal("folded view went negative")
	}
	got := fold.Rows()
	if len(got) != len(rep.Maintained) {
		t.Fatalf("folded rows = %d, maintained = %d", len(got), len(rep.Maintained))
	}
	for i := range got {
		if got[i].String() != rep.Maintained[i].String() {
			t.Fatalf("row %d: folded %v != maintained %v", i, got[i], rep.Maintained[i])
		}
	}

	// Customer 3's spend: baseline 3+13+...+93 = 480, minus order 13,
	// plus 500 and 250; the 1001 pair cancels.
	want := 480.0 - 13 + 500 + 250
	found := false
	for _, r := range rep.Maintained {
		if r[0].S == "c3" {
			found = true
			if r[1].F != want {
				t.Errorf("c3 spend = %g, want %g", r[1].F, want)
			}
		}
	}
	if !found {
		t.Error("group c3 missing from maintained view")
	}
}

func TestRegisterStandingWatermarkEvents(t *testing.T) {
	e := testEngine()
	q := standingSpendQuery(e)
	sq, err := e.RegisterStanding(context.Background(), q, map[string][]source.Delta{
		"orders": ordersDeltas(),
	}, WithStrategy(core.Static), WithPollEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()
	if _, err := sq.Report(); err != nil {
		t.Fatal(err)
	}
	var started bool
	var marks []core.UpdateWatermark
	for ev := range sq.Events() {
		switch v := ev.(type) {
		case core.MaintenanceStarted:
			started = true
		case core.UpdateWatermark:
			marks = append(marks, v)
		}
	}
	if !started {
		t.Error("no MaintenanceStarted event")
	}
	if len(marks) < 2 {
		t.Fatalf("watermarks = %d, want baseline + >=1 delta window", len(marks))
	}
	if marks[0].Seq != 0 {
		t.Errorf("first watermark Seq = %d, want 0 (baseline)", marks[0].Seq)
	}
	for i := 1; i < len(marks); i++ {
		if marks[i].Seq <= marks[i-1].Seq {
			t.Errorf("watermark seqs not increasing: %d then %d", marks[i-1].Seq, marks[i].Seq)
		}
		if marks[i].Updates == 0 {
			t.Errorf("non-baseline watermark %d carries no updates", marks[i].Seq)
		}
	}
}

func TestRegisterStandingDeltaFaultFailover(t *testing.T) {
	e := testEngine()
	q := standingSpendQuery(e)
	rel, _ := e.Relation("orders")
	mirror := source.DeltaRelation("orders", rel.Schema, ordersDeltas())
	e.InjectDeltaFaults("orders", source.NewFaultSchedule(
		source.Fault{At: 2, Kind: source.FaultPermanent},
	))
	sq, err := e.RegisterStanding(context.Background(), q, map[string][]source.Delta{
		"orders": ordersDeltas(),
	},
		WithStrategy(core.Static), WithPollEvery(2),
		WithSourcePolicy("orders", source.RetryPolicy{
			MaxAttempts: 2, Backoff: 0.1, Mirror: mirror, FailoverDelay: 0.5,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()
	rep, err := sq.Report()
	if err != nil {
		t.Fatal(err)
	}
	fs, ok := rep.SourceFaults["orders.delta"]
	if !ok || !fs.FailedOver {
		t.Fatalf("delta stream should have failed over: %+v", rep.SourceFaults)
	}

	// The maintained result must match a fault-free standing run.
	e2 := testEngine()
	sq2, err := e2.RegisterStanding(context.Background(), standingSpendQuery(e2), map[string][]source.Delta{
		"orders": ordersDeltas(),
	}, WithStrategy(core.Static), WithPollEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sq2.Close()
	rep2, err := sq2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Maintained) != len(rep2.Maintained) {
		t.Fatalf("maintained sizes differ: %d vs %d", len(rep.Maintained), len(rep2.Maintained))
	}
	for i := range rep.Maintained {
		if rep.Maintained[i].String() != rep2.Maintained[i].String() {
			t.Fatalf("row %d differs after failover: %v vs %v", i, rep.Maintained[i], rep2.Maintained[i])
		}
	}
	// InjectDeltaFaults(nil) clears the schedule.
	e.InjectDeltaFaults("orders", nil)
	if len(e.deltaFaults) != 0 {
		t.Error("nil schedule should clear delta faults")
	}
}

func TestRegisterStandingCancel(t *testing.T) {
	e := testEngine()
	q := standingSpendQuery(e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sq, err := e.RegisterStanding(ctx, q, map[string][]source.Delta{"orders": ordersDeltas()},
		WithStrategy(core.Static))
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()
	if _, err := sq.Report(); err == nil {
		t.Error("canceled standing query should report an error")
	}
	if _, ok := sq.NextUpdate(); ok {
		t.Error("canceled standing query should have an exhausted update cursor")
	}
}

func TestRegisterStandingValidation(t *testing.T) {
	e := testEngine()
	q := standingSpendQuery(e)
	if _, err := e.RegisterStanding(context.Background(), q, map[string][]source.Delta{
		"ghost": {source.Ins(0.01, types.Int(1))},
	}); err == nil {
		t.Error("delta script for unregistered relation should fail")
	}
	if _, err := e.RegisterStanding(context.Background(), q, map[string][]source.Delta{
		"orders": {source.Ins(0.01, types.Int(1))}, // wrong width
	}); err == nil {
		t.Error("delta width mismatch should fail")
	}
}

// TestRegisterStandingRefusesRelationOutsideQuery: a delta script for a
// registered relation the query does not read is refused by
// RegisterStanding itself — before any run starts — and of several bad
// scripts the first by name is the one named.
func TestRegisterStandingRefusesRelationOutsideQuery(t *testing.T) {
	e := testEngine()
	q := e.Query("ids").From("orders").Select("orders.id").MustBuild()
	sq, err := e.RegisterStanding(context.Background(), q, map[string][]source.Delta{
		"orders": ordersDeltas(),
		"cust":   {source.Ins(0.01, types.Int(99), types.Str("zed"))},
	})
	if sq != nil || err == nil {
		t.Fatalf("RegisterStanding = %v, %v; want a refusal", sq, err)
	}
	if want := `engine: delta stream "cust" is not a relation of query "ids"`; err.Error() != want {
		t.Fatalf("refused with %q, want %q", err, want)
	}
	_, err = e.RegisterStanding(context.Background(), q, map[string][]source.Delta{
		"orders": ordersDeltas(),
		"cust":   {source.Ins(0.01, types.Int(99), types.Str("zed"))},
		"aghost": {source.Ins(0.01, types.Int(1))},
	})
	if want := `engine: delta stream for unregistered relation "aghost"`; err == nil || err.Error() != want {
		t.Fatalf("refused with %v, want %q", err, want)
	}
}
