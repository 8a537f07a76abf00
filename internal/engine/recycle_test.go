package engine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

// A finished run gives its join tables' index storage, its lists' row
// chunks and its emitted rows' slabs to a pooled spare that the next run
// takes, and a stream whose consumer gave every batch back lends the same
// batches to the next stream. The tests below pin that no run sees what an
// earlier one left behind, and that nothing the caller still holds is
// overwritten.

// recycleEngine registers TPC-H at SF 0.002 (seed 42), every relation
// behind a link of 1e5 tuples/s.
func recycleEngine() *Engine {
	data := datagen.Generate(datagen.Config{ScaleFactor: 0.002, Seed: 42})
	e := New()
	for _, rel := range data.Relations() {
		e.RegisterRemote(rel, source.Bandwidth{TuplesPerSec: 1e5})
	}
	return e
}

// wideSPJ is customer ⋈ orders ⋈ lineitem with ten output columns of every
// kind: one row per lineitem of a customer.
func wideSPJ(e *Engine) *algebra.Query {
	return e.Query("wide").
		From("customer", "orders", "lineitem").
		Join("customer", "c_custkey", "orders", "o_custkey").
		Join("orders", "o_orderkey", "lineitem", "l_orderkey").
		Select("customer.c_name", "customer.c_acctbal", "orders.o_orderkey", "orders.o_orderstatus",
			"orders.o_totalprice", "orders.o_orderdate", "lineitem.l_linenumber", "lineitem.l_quantity",
			"lineitem.l_extendedprice", "lineitem.l_returnflag").
		MustBuild()
}

// narrowSPJ is orders ⋈ customer with two output columns.
func narrowSPJ(e *Engine) *algebra.Query {
	return e.Query("narrow").
		From("orders", "customer").
		Join("orders", "o_custkey", "customer", "c_custkey").
		Select("orders.o_orderkey", "customer.c_name").
		MustBuild()
}

// lineitemChurn retracts every fifth of the first 600 lineitem rows and
// inserts a copy of every seventh under a new order key.
func lineitemChurn(e *Engine) []source.Delta {
	rel, _ := e.Relation("lineitem")
	var ds []source.Delta
	for i, row := range rel.Rows[:600] {
		at := float64(i) * 1e-4
		if i%5 == 0 {
			ds = append(ds, source.Del(at, row...))
		}
		if i%7 == 0 {
			ins := row.Clone()
			ins[0] = types.Int(ins[0].I + 1_000_000)
			ds = append(ds, source.Ins(at, ins...))
		}
	}
	return ds
}

// minMaxAvg is orders ⋈ lineitem grouped by order key: the smallest
// quantity, the largest price and the average discount of each order.
func minMaxAvg(e *Engine) *algebra.Query {
	return e.Query("minmaxavg").
		From("orders", "lineitem").
		Join("orders", "o_orderkey", "lineitem", "l_orderkey").
		GroupBy("lineitem.l_orderkey").
		Agg(algebra.AggMin, expr.Column("lineitem.l_quantity"), "mnq").
		Agg(algebra.AggMax, expr.Column("lineitem.l_extendedprice"), "mxp").
		Agg(algebra.AggAvg, expr.Column("lineitem.l_discount"), "avd").
		MustBuild()
}

// lineitemEmptyRevive retracts each of the first 300 lineitem rows and
// inserts every other one of them back, 300 deltas later.
func lineitemEmptyRevive(e *Engine) []source.Delta {
	rel, _ := e.Relation("lineitem")
	var ds []source.Delta
	for i, row := range rel.Rows[:300] {
		ds = append(ds, source.Del(float64(i)*1e-4, row...))
	}
	for i, row := range rel.Rows[:300] {
		if i%2 == 0 {
			ds = append(ds, source.Ins(float64(300+i)*1e-4, row...))
		}
	}
	return ds
}

// standingDigest registers q as a standing query fed deltas on lineitem,
// corrective and polled every 100 tuples, and digests every update window
// and the report.
func standingDigest(e *Engine, q *algebra.Query, deltas []source.Delta) (string, error) {
	sq, err := e.RegisterStanding(context.Background(), q,
		map[string][]source.Delta{"lineitem": deltas},
		WithStrategy(core.Corrective), WithPollEvery(100))
	if err != nil {
		return "", err
	}
	defer sq.Close()
	var b strings.Builder
	for w, ok := sq.NextWindow(); ok; w, ok = sq.NextWindow() {
		rows := make([]types.Tuple, len(w.Updates))
		for i, u := range w.Updates {
			rows[i] = append(u.Row.Clone(), types.Int(int64(u.Sign)))
		}
		fmt.Fprintf(&b, "w%d=%s@%x ", w.Watermark.Seq, rowsDigest(rows), math.Float64bits(w.Watermark.VirtualSeconds))
	}
	rep, err := sq.Report()
	if err != nil {
		return "", err
	}
	if rep.DeltaClamped != 0 || rep.UpdateCount == 0 {
		return "", fmt.Errorf("%d deltas clamped, %d updates: the script no longer retracts live rows", rep.DeltaClamped, rep.UpdateCount)
	}
	fmt.Fprintf(&b, "updates=%d deltas=%d maint-switches=%d replayed=%d maintained=%s %s",
		rep.UpdateCount, rep.DeltaRows, rep.MaintSwitches, rep.MaintReplayed, rowsDigest(rep.Maintained), reportDigest(rep, nil, true))
	return b.String(), nil
}

// rowsDigest renders rows, in order, as their count and a digest of their
// key-codec encodings (types.AppendKeyAll): the rows themselves, whatever
// hash the engine keys its tables by.
func rowsDigest(rows []types.Tuple) string {
	var b []byte
	for _, r := range rows {
		b = types.AppendKeyAll(b, r)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%d:%x", len(rows), sum[:8])
}

// reportDigest renders what a run must reproduce: its rows in order, its
// counters and phases, and, when serial, its clocks.
func reportDigest(rep *core.Report, rows []types.Tuple, clocks bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%s count=%d phases=%d switches=%d combos=%d reused=%d discarded=%d opt=%d",
		rowsDigest(rows), rep.RowCount, len(rep.Phases), rep.Switches, rep.StitchCombos, rep.Reused, rep.Discarded, rep.OptCalls)
	for _, ph := range rep.Phases {
		fmt.Fprintf(&b, " [%d", ph.Delivered)
		if clocks {
			fmt.Fprintf(&b, " %x", math.Float64bits(ph.Seconds))
		}
		b.WriteString("]")
	}
	if clocks {
		fmt.Fprintf(&b, " virtual=%x cpu=%x stitch=%x", math.Float64bits(rep.VirtualSeconds),
			math.Float64bits(rep.CPUSeconds), math.Float64bits(rep.StitchTime))
	}
	return b.String()
}

// streamDigest reads q's stream to the end on lent batches and digests it.
func streamDigest(e *Engine, q *algebra.Query, opts ...Option) (string, error) {
	s, err := e.Stream(context.Background(), q, opts...)
	if err != nil {
		return "", err
	}
	defer s.Close()
	var rows []types.Tuple
	for batch, ok := s.NextBatch(); ok; batch, ok = s.NextBatch() {
		for _, r := range batch {
			rows = append(rows, r.Clone())
		}
	}
	rep, err := s.Report()
	if err != nil {
		return "", err
	}
	return reportDigest(rep, rows, true), nil
}

// recycleLegs is the sequence TestRecycledRunsKeepGoldens runs, each leg
// with the digest the commit before any storage outlived its run wrote; its
// row digests were written again, by key-codec bytes (rowsDigest), by commit
// 802f969, where they were hashes of the same rows.
var recycleLegs = []struct {
	name, want string
	run        func(e *Engine) (string, error)
}{
	{
		name: "wide-spj",
		want: "rows=12032:9a2b1e546afdc255 count=12032 phases=1 switches=0 combos=0 reused=0 discarded=0 opt=1 [15332 3fbecd8a61ee31a1] virtual=3fbecd8a61ee31a1 cpu=3fb081a4b04e1105 stitch=0",
		run: func(e *Engine) (string, error) {
			return streamDigest(e, wideSPJ(e), WithStrategy(core.Static))
		},
	},
	{
		name: "q5-corrective-switching",
		want: "rows=3:3808a3f5c05552b5 count=3 phases=3 switches=2 combos=726 reused=4 discarded=7 opt=302 [250 3f460814a177b46d] [500 3f5b5b70691ea78b] [14632 3fbe33eff1950332] virtual=3fc1a1d4d17e0c75 cpu=3fa719ac79702e66 stitch=3f91d8b2b41cd29f",
		run: func(e *Engine) (string, error) {
			rep, err := e.Execute(workload.Q5(), core.Options{Strategy: core.Corrective, PollEvery: 50, SwitchFactor: 0.99, MaxPhases: 5})
			if err != nil {
				return "", err
			}
			if rep.Switches < 2 || rep.StitchCombos == 0 {
				return "", fmt.Errorf("%d switches, %d stitch-up combinations: the leg no longer switches and stitches up", rep.Switches, rep.StitchCombos)
			}
			return reportDigest(rep, rep.Rows, true), nil
		},
	},
	{
		// Partition clocks are scheduling-dependent; Q3A's rows and
		// counters are not.
		name: "q3a-p4",
		want: "rows=682:be7197001ec05803 count=682 phases=1 switches=0 combos=0 reused=0 discarded=0 opt=6 [15332]",
		run: func(e *Engine) (string, error) {
			rep, err := e.Execute(workload.Q3A(), core.Options{Strategy: core.Corrective, Partitions: 4})
			if err != nil {
				return "", err
			}
			if rep.Partitions != 4 {
				return "", fmt.Errorf("ran at %d partitions", rep.Partitions)
			}
			return reportDigest(rep, rep.Rows, false), nil
		},
	},
	{
		name: "standing-q3a-churn",
		want: "w0=682:c7ef58386c63e0f2@3fbedafb63b90cfc w1=38:5b698392501e101b@3fbeed2b1125c231 w2=8:fdf26ea41ab27524@3fbefcf660440d76 updates=728 deltas=206 maint-switches=0 replayed=0 maintained=680:c7604e55616fff03 rows=0:e3b0c44298fc1c14 count=682 phases=1 switches=0 combos=0 reused=0 discarded=0 opt=154 [15332 3fbecd92c56a01fc] virtual=3fbefdc9c4da9004 cpu=3fa60535c9e6687f stitch=0",
		run: func(e *Engine) (string, error) {
			return standingDigest(e, workload.Q3A(), lineitemChurn(e))
		},
	},
	{
		// Every lineitem row of the first orders is retracted, which
		// empties their groups, and every other one comes back two windows
		// later, which revives them: MIN and MAX fall back on their value
		// bags, AVG on its count.
		name: "standing-minmaxavg-revive",
		want: "w0=3000:79bc643223de50b5@3fbf088e43fb0193 w1=29:99965bbbaf6b9d42@3fbf254e6e221c8a w2=33:b18fe6658acd6c97@3fbf4573a797891e w3=26:f0021f43da505a0b@3fbf6395d18dfcad w4=52:d454890be44b804b@3fbf825fc130b758 w5=22:a04dbebee4406fce@3fbf919e2295563e updates=3162 deltas=450 maint-switches=0 replayed=0 maintained=2988:ecb09d1bb542889e rows=0:e3b0c44298fc1c14 count=3000 phases=1 switches=0 combos=0 reused=0 discarded=0 opt=153 [15032 3fbecd92c56a01fc] virtual=3fbf919e2295563e cpu=3fafed12bd71e5f6 stitch=0",
		run: func(e *Engine) (string, error) {
			return standingDigest(e, minMaxAvg(e), lineitemEmptyRevive(e))
		},
	},
	{
		name: "narrow-spj",
		want: "rows=3000:e636d4c90dc55211 count=3000 phases=1 switches=0 combos=0 reused=0 discarded=0 opt=1 [3300 3f9eb950ef05dcb9] virtual=3f9eb950ef05dcb9 cpu=3f88a32f44912989 stitch=0",
		run: func(e *Engine) (string, error) {
			return streamDigest(e, narrowSPJ(e), WithStrategy(core.Static))
		},
	},
}

// TestRecycledRunsKeepGoldens runs the sequence above twice on one engine —
// a wide SPJ stream, Q5 corrective with two forced switches and a stitch-up,
// Q3A at four partitions, a standing Q3A fed retractions, a narrow SPJ
// stream — so that every run after the first takes storage an earlier run
// of another shape released, and requires each run to reproduce its leg's
// golden: rows in order, counters, phases and serial clocks.
func TestRecycledRunsKeepGoldens(t *testing.T) {
	e := recycleEngine()
	for round := 1; round <= 2; round++ {
		for _, leg := range recycleLegs {
			got, err := leg.run(e)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, leg.name, err)
			}
			if got != leg.want {
				t.Errorf("round %d %s:\n got %s\nwant %s", round, leg.name, got, leg.want)
			}
		}
	}
}

// TestRecycledLenderSparesHeldBatch: a consumer that holds a NextBatch batch
// and closes its stream without Report keeps that batch unchanged while
// later streams — the same query, the wide SPJ — run to completion on
// lenders and storage that finished runs gave back.
func TestRecycledLenderSparesHeldBatch(t *testing.T) {
	e := recycleEngine()
	q := wideSPJ(e)
	if _, err := streamDigest(e, q); err != nil { // a lender and a spare for the pools
		t.Fatal(err)
	}
	s, err := e.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	held, ok := s.NextBatch()
	if !ok {
		t.Fatal("the stream delivered nothing")
	}
	want := rowsDigest(held)
	s.Close()
	for i := 0; i < 3; i++ {
		if _, err := streamDigest(e, q); err != nil {
			t.Fatal(err)
		}
		if got := rowsDigest(held); got != want {
			t.Fatalf("after %d later streams the held batch reads %s, want %s", i+1, got, want)
		}
	}
}

// TestRecycledExecuteRowsStable: the rows of Execute's report are the
// caller's; later queries, which run on the storage earlier runs gave back,
// never change them.
func TestRecycledExecuteRowsStable(t *testing.T) {
	e := recycleEngine()
	q := wideSPJ(e)
	rep, err := e.Execute(q, core.Options{Strategy: core.Corrective})
	if err != nil {
		t.Fatal(err)
	}
	want := rowsDigest(rep.Rows)
	for _, leg := range recycleLegs {
		if _, err := leg.run(e); err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if got := rowsDigest(rep.Rows); got != want {
			t.Fatalf("after %s the first report's rows read %s, want %s", leg.name, got, want)
		}
	}
}

// TestRecycledConcurrentRuns runs every leg of the sequence at once, twice
// over, so that runs on several goroutines take spares and lenders from the
// pools and give them back concurrently; each run must still reproduce its
// leg's golden.
func TestRecycledConcurrentRuns(t *testing.T) {
	e := recycleEngine()
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for _, leg := range recycleLegs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := leg.run(e)
				if err != nil {
					t.Errorf("%s: %v", leg.name, err)
				} else if got != leg.want {
					t.Errorf("%s:\n got %s\nwant %s", leg.name, got, leg.want)
				}
			}()
		}
	}
	wg.Wait()
}
