package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/datagen"
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

// rowsDigest renders rows, in order, as their count and one hash.
func rowsDigest(rows []types.Tuple) string {
	h := uint64(17)
	for _, r := range rows {
		h = h*1099511628211 ^ r.HashKey(types.Identity(len(r)))
	}
	return fmt.Sprintf("%d:%016x", len(rows), h)
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
// with the digest the commit before any storage outlived its run wrote.
var recycleLegs = []struct {
	name, want string
	run        func(e *Engine) (string, error)
}{
	{
		name: "wide-spj",
		want: "rows=12032:4d52ada2f9419de2 count=12032 phases=1 switches=0 combos=0 reused=0 discarded=0 opt=1 [15332 3fbecd8a61ee31a1] virtual=3fbecd8a61ee31a1 cpu=3fb081a4b04e1105 stitch=0",
		run: func(e *Engine) (string, error) {
			return streamDigest(e, wideSPJ(e), WithStrategy(core.Static))
		},
	},
	{
		name: "q5-corrective-switching",
		want: "rows=3:9e8320bdd68f345d count=3 phases=3 switches=2 combos=726 reused=4 discarded=7 opt=302 [250 3f460814a177b46d] [500 3f5b5b70691ea78b] [14632 3fbe33eff1950332] virtual=3fc1a1d4d17e0c75 cpu=3fa719ac79702e66 stitch=3f91d8b2b41cd29f",
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
		want: "rows=682:5b8387e83921dac3 count=682 phases=1 switches=0 combos=0 reused=0 discarded=0 opt=6 [15332]",
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
		want: "w0=682:88826480f25b084f@3fbedafb63b90cfc w1=38:b77e738611f766fb@3fbeed2b1125c231 w2=8:319723201f31bdb4@3fbefcf660440d76 updates=728 deltas=206 maint-switches=0 replayed=0 maintained=680:fe8aeff84c3e5e0c rows=0:0000000000000011 count=682 phases=1 switches=0 combos=0 reused=0 discarded=0 opt=154 [15332 3fbecd92c56a01fc] virtual=3fbefdc9c4da9004 cpu=3fa60535c9e6687f stitch=0",
		run: func(e *Engine) (string, error) {
			sq, err := e.RegisterStanding(context.Background(), workload.Q3A(),
				map[string][]source.Delta{"lineitem": lineitemChurn(e)},
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
		},
	},
	{
		name: "narrow-spj",
		want: "rows=3000:509d3c53cc781b57 count=3000 phases=1 switches=0 combos=0 reused=0 discarded=0 opt=1 [3300 3f9eb950ef05dcb9] virtual=3f9eb950ef05dcb9 cpu=3f88a32f44912989 stitch=0",
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
