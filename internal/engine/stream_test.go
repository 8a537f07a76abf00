package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// chainEngine builds a 5-relation 1:1 chain-join engine (R0 ⋈ R1 ⋈ … ⋈
// R4, n rows each): 4 joins, so plan partitioning genuinely splits into
// two stages (MaterializeAfterJoins = 3) and renames stage-2 columns.
func chainEngine(n int) (*Engine, *algebra.Query) {
	e := New()
	q := &algebra.Query{Name: "chain"}
	for r := 0; r < 5; r++ {
		name := fmt.Sprintf("R%d", r)
		schema := types.NewSchema(
			types.Column{Name: name + ".a", Kind: types.KindInt},
			types.Column{Name: name + ".b", Kind: types.KindInt},
		)
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i))}
		}
		e.Register(source.NewRelation(name, schema, rows))
		q.Relations = append(q.Relations, algebra.RelRef{Name: name, Schema: schema})
		if r > 0 {
			q.Joins = append(q.Joins, algebra.JoinPred{
				LeftRel: fmt.Sprintf("R%d", r-1), LeftCol: "b",
				RightRel: name, RightCol: "a",
			})
		}
	}
	q.GroupBy = []string{"R0.a"}
	q.Aggs = []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}}
	return e, q
}

// spjEngine builds a two-relation SPJ join engine whose root delivers
// result rows incrementally (no blocking aggregate), with every source
// under the given schedule factory (nil = local).
func spjEngine(nOrders int, sched func(*source.Relation) source.Schedule) (*Engine, *algebra.Query) {
	oSchema := types.NewSchema(
		types.Column{Name: "orders.id", Kind: types.KindInt},
		types.Column{Name: "orders.cust", Kind: types.KindInt},
	)
	cSchema := types.NewSchema(
		types.Column{Name: "cust.id", Kind: types.KindInt},
		types.Column{Name: "cust.name", Kind: types.KindString},
	)
	oRows := make([]types.Tuple, nOrders)
	for i := range oRows {
		oRows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 50))}
	}
	cRows := make([]types.Tuple, 50)
	for i := range cRows {
		cRows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("c%02d", i))}
	}
	e := New()
	orders := source.NewRelation("orders", oSchema, oRows)
	cust := source.NewRelation("cust", cSchema, cRows)
	if sched != nil {
		e.RegisterRemote(orders, sched(orders))
		e.RegisterRemote(cust, sched(cust))
	} else {
		e.Register(orders)
		e.Register(cust)
	}
	// cust leads the relation list: with Immediate sources the driver
	// exhausts leaves in relation order, so the small build side loads
	// first and join output then flows continuously while orders stream —
	// the shape the mid-run delivery and cancellation tests need.
	q := &algebra.Query{
		Name:      "spj",
		Relations: []algebra.RelRef{{Name: "cust", Schema: cSchema}, {Name: "orders", Schema: oSchema}},
		Joins:     []algebra.JoinPred{{LeftRel: "orders", LeftCol: "cust", RightRel: "cust", RightCol: "id"}},
		Project:   []string{"orders.id", "cust.name"},
	}
	return e, q
}

// TestStreamDeliversRowsBeforeCompletion is the headline acceptance test:
// over Bandwidth- and Bursty-scheduled sources, the cursor must hand out
// first rows before the run completes — multiple increasing RowsDelivered
// watermarks, the first strictly below the final count and strictly
// earlier on the virtual timeline — and what it hands out must be, byte
// for byte and in order, the Report.Rows of a blocking Execute of the same
// query (the stream's own report counts its rows and retains none).
func TestStreamDeliversRowsBeforeCompletion(t *testing.T) {
	schedules := map[string]func(*source.Relation) source.Schedule{
		"bandwidth": func(*source.Relation) source.Schedule {
			return source.Bandwidth{TuplesPerSec: 50000}
		},
		"bursty": func(rel *source.Relation) source.Schedule {
			return source.NewBursty(rel.Len(), 200000, 2000, 0.01, int64(rel.Len()))
		},
	}
	for name, sched := range schedules {
		t.Run(name, func(t *testing.T) {
			e, q := spjEngine(20000, sched)
			s, err := e.Stream(context.Background(), q, WithStrategy(core.Static), WithPollEvery(512))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			events := s.Events()
			if sc := s.Schema(); sc == nil || sc.Len() != 2 {
				t.Fatalf("schema = %v", sc)
			}
			var got []types.Tuple
			for tup, err := range s.Rows() {
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, tup)
			}
			rep, err := s.Report()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := e.Execute(q, core.Options{Strategy: core.Static, PollEvery: 512})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref.Rows) || len(got) != 20000 {
				t.Fatalf("streamed %d rows, Execute returned %d, want 20000", len(got), len(ref.Rows))
			}
			if rep.Rows != nil || rep.RowCount != 20000 || ref.RowCount != 20000 {
				t.Fatalf("stream report retains %d rows and counts %d, Execute counts %d; want 0, 20000, 20000",
					len(rep.Rows), rep.RowCount, ref.RowCount)
			}
			for i := range got {
				if got[i].String() != ref.Rows[i].String() {
					t.Fatalf("streamed row %d differs from Execute's", i)
				}
			}
			if rep.VirtualSeconds != ref.VirtualSeconds || rep.CPUSeconds != ref.CPUSeconds {
				t.Errorf("stream clocks %g/%g, Execute %g/%g", rep.VirtualSeconds, rep.CPUSeconds,
					ref.VirtualSeconds, ref.CPUSeconds)
			}
			var marks []core.RowsDelivered
			for ev := range events {
				if rd, ok := ev.(core.RowsDelivered); ok {
					marks = append(marks, rd)
				}
			}
			if len(marks) < 2 {
				t.Fatalf("only %d delivery watermarks; rows did not stream mid-run", len(marks))
			}
			first, last := marks[0], marks[len(marks)-1]
			if first.Rows <= 0 || first.Rows >= last.Rows {
				t.Errorf("first watermark %d of %d: not an incremental delivery", first.Rows, last.Rows)
			}
			if first.VirtualSeconds >= rep.VirtualSeconds {
				t.Errorf("first delivery at %gs, run ended at %gs: not before completion",
					first.VirtualSeconds, rep.VirtualSeconds)
			}
			prev := int64(-1)
			for _, m := range marks {
				if m.Rows < prev {
					t.Fatalf("watermarks not monotone: %d after %d", m.Rows, prev)
				}
				prev = m.Rows
			}
		})
	}
}

// TestExecuteMatchesCoreRunBaseline is the equivalence pin: Execute —
// core.RunStream over the engine's own catalog and option defaults — must
// return byte-identical rows, counters, and clocks to the direct core.Run
// path (the PR-4 baseline semantics) for every strategy at P ∈ {1, 4}.
func TestExecuteMatchesCoreRunBaseline(t *testing.T) {
	for _, strat := range []core.Strategy{core.Static, core.Corrective, core.PlanPartition} {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/partitions=%d", strat, parts), func(t *testing.T) {
				e, q := chainEngine(3000)
				o := core.Options{Strategy: strat, PollEvery: 256, Partitions: parts}
				base, err := core.Run(e.catalog(o), q, o)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Execute(q, o)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Rows) != len(base.Rows) {
					t.Fatalf("rows = %d, baseline %d", len(got.Rows), len(base.Rows))
				}
				for i := range base.Rows {
					if got.Rows[i].String() != base.Rows[i].String() {
						t.Fatalf("row %d = %s, baseline %s", i, got.Rows[i], base.Rows[i])
					}
				}
				if got.Schema.String() != base.Schema.String() {
					t.Errorf("schema %v, baseline %v", got.Schema, base.Schema)
				}
				if got.Switches != base.Switches || len(got.Phases) != len(base.Phases) ||
					got.StitchCombos != base.StitchCombos || got.Partitions != base.Partitions {
					t.Errorf("counters differ: %+v vs %+v", got, base)
				}
				for i := range base.Phases {
					if got.Phases[i].Delivered != base.Phases[i].Delivered {
						t.Errorf("phase %d delivered %d, baseline %d",
							i, got.Phases[i].Delivered, base.Phases[i].Delivered)
					}
				}
				if got.CPUSeconds != base.CPUSeconds {
					t.Errorf("CPU clock %g, baseline %g", got.CPUSeconds, base.CPUSeconds)
				}
				// Serial virtual clocks are exactly reproducible; the
				// parallel makespan is scheduling-dependent run-to-run
				// (see exec.ParallelDriver.FoldClocks) so it gets a
				// bound, not equality.
				if parts == 1 {
					if got.VirtualSeconds != base.VirtualSeconds {
						t.Errorf("virtual clock %.12g, baseline %.12g", got.VirtualSeconds, base.VirtualSeconds)
					}
				} else if d := got.VirtualSeconds - base.VirtualSeconds; d > 0.1*base.VirtualSeconds || -d > 0.1*base.VirtualSeconds {
					t.Errorf("virtual clock diverges: %g vs %g", got.VirtualSeconds, base.VirtualSeconds)
				}
			})
		}
	}
}

// TestStreamCancelMidConsumption cancels the stream's context after the
// first row arrives, while the producer is provably still running (the
// row buffer holds ~16 of ~80 flushes, so the run cannot have finished),
// and asserts a clean terminal state and no goroutine leaks. Serial only:
// a partitioned phase drains its root merge after the phase, so rows
// cannot pace a mid-phase cancel there (see TestStreamCancelPartitioned).
func TestStreamCancelMidConsumption(t *testing.T) {
	base := runtime.NumGoroutine()
	e, q := spjEngine(40000, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := e.Stream(ctx, q, WithStrategy(core.Static), WithPollEvery(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Next(); !ok {
		t.Fatal("no first row")
	}
	cancel()
	n := 1
	for {
		_, ok := s.Next()
		if !ok {
			break
		}
		n++
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	if _, err := s.Report(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Report error = %v, want context.Canceled", err)
	}
	if n >= 40000 {
		t.Errorf("consumed all %d rows despite cancellation", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base)
}

// TestStreamCancelPartitioned cancels a 4-partition streaming run from
// the corrective monitor poll — the pipeline is quiesced there, the
// parallel analogue of a consistent suspension state — and asserts the
// workers all join and the cursor terminates with context.Canceled.
func TestStreamCancelPartitioned(t *testing.T) {
	base := runtime.NumGoroutine()
	e, q := spjEngine(40000, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := core.Options{Strategy: core.Corrective, PollEvery: 512, Partitions: 4}
	polls := 0
	o.OnPoll = func(cur, cand, pen float64, switched bool) {
		polls++
		if polls == 2 {
			cancel()
		}
	}
	s, err := e.Stream(ctx, q, WithOptions(o))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range s.Rows() {
		n++
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled (polls=%d, rows=%d)", err, polls, n)
	}
	if polls < 2 {
		t.Fatalf("monitor polled %d times; cancellation untested", polls)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base)
}

// TestStreamCloseWithoutConsuming: Close alone must cancel the run,
// unblock the producer, and leak nothing.
func TestStreamCloseWithoutConsuming(t *testing.T) {
	base := runtime.NumGoroutine()
	e, q := spjEngine(40000, nil)
	s, err := e.Stream(context.Background(), q, WithStrategy(core.Static), WithPollEvery(512), WithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Events() // an abandoned subscription must be reaped too
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base)
}

// TestStreamEventsReplay: every subscription — including one opened after
// completion — sees the identical full event sequence.
func TestStreamEventsReplay(t *testing.T) {
	e, q := spjEngine(5000, nil)
	s, err := e.Stream(context.Background(), q, WithStrategy(core.Static), WithPollEvery(512))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := s.Events()
	if _, err := s.Report(); err != nil {
		t.Fatal(err)
	}
	var a, b []core.Event
	for ev := range live {
		a = append(a, ev)
	}
	for ev := range s.Events() { // late subscription: full replay
		b = append(b, ev)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("replay lengths: live=%d late=%d", len(a), len(b))
	}
	for i := range a {
		if fmt.Sprintf("%#v", a[i]) != fmt.Sprintf("%#v", b[i]) {
			t.Fatalf("event %d differs between subscriptions:\n%#v\n%#v", i, a[i], b[i])
		}
	}
	if _, ok := a[0].(core.PhaseStarted); !ok {
		t.Errorf("first event %#v, want PhaseStarted", a[0])
	}
	// The log survives Close: a post-Close subscription still gets the
	// full replay.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var c []core.Event
	for ev := range s.Events() {
		c = append(c, ev)
	}
	if len(c) != len(a) {
		t.Fatalf("post-Close replay has %d events, want %d", len(c), len(a))
	}
}

// TestStreamCloseFromAnotherGoroutine: Close is the documented way to
// abort a run from outside, so it must be safe concurrently with a
// consumer blocked in (or looping on) Next — it touches only the row
// channel, never the consumer-owned cursor state.
func TestStreamCloseFromAnotherGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e, q := spjEngine(40000, nil)
	s, err := e.Stream(context.Background(), q, WithStrategy(core.Static), WithPollEvery(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Next(); !ok {
		t.Fatal("no first row")
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		_ = s.Close() // watchdog-style abort while the consumer holds the cursor
	}()
	// The consumer parks (without consuming) until the abort lands — the
	// producer is flow-blocked on the full row buffer, so it cannot
	// finish first — then drains concurrently with Close's own drain.
	for s.Err() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	<-closed
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	waitForGoroutines(t, base)
}

// TestStreamReportWithoutRows: calling Report without touching the cursor
// must run the query to its end exactly like blocking Execute — no
// deadlock although the result is more batches than the lender's window
// (Report gives each back as it discards it), the full result counted,
// and every counter and clock equal to Execute's.
func TestStreamReportWithoutRows(t *testing.T) {
	e, q := spjEngine(20000, nil)
	ref, err := e.Execute(q, core.Options{Strategy: core.Static, PollEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) != 20000 {
		t.Fatalf("Execute returned %d rows, want 20000", len(ref.Rows))
	}
	s, err := e.Stream(context.Background(), q, WithStrategy(core.Static), WithPollEvery(512))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowCount != int64(len(ref.Rows)) || rep.Rows != nil {
		t.Fatalf("report counts %d rows and retains %d, want %d and none", rep.RowCount, len(rep.Rows), len(ref.Rows))
	}
	if rep.VirtualSeconds != ref.VirtualSeconds || rep.CPUSeconds != ref.CPUSeconds ||
		len(rep.Phases) != len(ref.Phases) || rep.Phases[0].Delivered != ref.Phases[0].Delivered {
		t.Errorf("report %+v diverges from Execute's %+v", rep, ref)
	}
}

// TestStreamValidationErrors: bad queries fail synchronously.
func TestStreamValidationErrors(t *testing.T) {
	e, q := spjEngine(10, nil)
	if _, err := e.Stream(context.Background(), &algebra.Query{
		Name:      "unknown",
		Relations: []algebra.RelRef{{Name: "nope", Schema: q.Relations[0].Schema}},
	}); err == nil {
		t.Error("unregistered relation must fail synchronously")
	}
}

// TestStreamOptionComposition: options layer over core.Options and
// WithOptions replaces wholesale.
func TestStreamOptionComposition(t *testing.T) {
	var o core.Options
	for _, f := range []Option{
		WithOptions(core.Options{Strategy: core.Corrective, PollEvery: 7}),
		WithPartitions(3),
		WithSwitchFactor(0.5),
		WithMaxPhases(2),
		WithKnownCardinality("r", 123),
		WithInstrument(true),
	} {
		f(&o)
	}
	if o.Strategy != core.Corrective || o.PollEvery != 7 || o.Partitions != 3 ||
		o.SwitchFactor != 0.5 || o.MaxPhases != 2 || o.Known["r"] != 123 || !o.Instrument {
		t.Errorf("composed options wrong: %+v", o)
	}
}

// waitForGoroutines polls (bounded) for the goroutine count to return to
// the given baseline.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
