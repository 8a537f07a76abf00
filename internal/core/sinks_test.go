package core

import (
	"fmt"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// TestSignedChainReachesRoot holds core's sinks to the one sink contract
// that exec's TestInsertOnlySignedMatchesPlain pins for exec's: a signed
// batch pushed into a join side reaches a maintained root — the aggregate
// through aggSink, an SPJ run's rootSink, which projects — through teeSink
// and forwardSink with its sign intact, and teeSink materializes unsigned
// batches only. listSink,
// which no maintenance tree reaches, takes +1 as it takes 0 and refuses a
// retraction.
func TestSignedChainReachesRoot(t *testing.T) {
	a := types.NewSchema(
		types.Column{Name: "A.k", Kind: types.KindInt},
		types.Column{Name: "A.v", Kind: types.KindInt})
	b := types.NewSchema(types.Column{Name: "B.k", Kind: types.KindInt})
	joined := a.Concat(b)
	aRow := func(k, v int64) types.Tuple { return types.Tuple{types.Int(k), types.Int(v)} }
	bRows := []types.Tuple{{types.Int(1)}, {types.Int(2)}}
	// chain wires join side → teeSink → forwardSink → root and pushes the
	// same churn into it: two assertions, then one retraction.
	chain := func(ctx *exec.Context, root exec.Sink) *TreeJoin {
		tj := &TreeJoin{ResultBuf: state.NewList(joined)}
		tee := &teeSink{join: tj, out: &forwardSink{out: root}}
		j := exec.NewHashJoin(ctx, exec.Pipelined, a, b, []int{0}, []int{0}, tee)
		j.RightSink().Push(bRows, 1)
		j.LeftSink().Push([]types.Tuple{aRow(1, 10), aRow(2, 3), aRow(1, 5)}, 1)
		j.LeftSink().Push([]types.Tuple{aRow(1, 10)}, -1)
		if n := tj.ResultBuf.Len(); n != 0 {
			t.Fatalf("teeSink materialized %d signed rows", n)
		}
		return tj
	}

	t.Run("aggregate", func(t *testing.T) {
		ctx := exec.NewContext()
		in := types.NewSchema(joined.Cols[0], joined.Cols[1]) // (A.k, A.v)
		agg, err := exec.NewAggTable(ctx, in, []string{"A.k"}, []algebra.AggSpec{
			{Kind: algebra.AggSum, Arg: expr.Column("A.v"), As: "s"},
			{Kind: algebra.AggCount, As: "n"},
		})
		if err != nil {
			t.Fatal(err)
		}
		agg.EnableMaintenance()
		ad, err := types.NewAdapter(joined, in)
		if err != nil {
			t.Fatal(err)
		}
		chain(ctx, &aggSink{agg: agg, ad: ad})
		var got []string
		agg.EmitRevisions(func(r types.Tuple, sign int) { got = append(got, fmt.Sprintf("%v/%+d", r, sign)) })
		if want := "[[1 5 1]/+1 [2 3 1]/+1]"; fmt.Sprint(got) != want {
			t.Fatalf("revisions %v, want %s", got, want)
		}
	})

	t.Run("spj", func(t *testing.T) {
		ctx := exec.NewContext()
		proj := types.NewSchema(joined.Cols[1], joined.Cols[0]) // (A.v, A.k)
		ad, err := types.NewAdapter(joined, proj)
		if err != nil {
			t.Fatal(err)
		}
		out := &rootRows{}
		chain(ctx, &rootSink{ctx: ctx, ad: ad, out: out, move: ctx.Cost.Move})
		var got []string
		for _, u := range out.updates {
			got = append(got, fmt.Sprintf("%v/%+d", u.Row, u.Sign))
		}
		if want := "[[10 1]/+1 [3 2]/+1 [5 1]/+1 [10 1]/-1]"; fmt.Sprint(got) != want {
			t.Fatalf("updates %v, want %s", got, want)
		}
		if want := 4 * ctx.Cost.Move; ctx.Clock.CPU < want {
			t.Fatalf("root charged %d ns in all, less than its %d of Moves", ctx.Clock.CPU, want)
		}
	})

	t.Run("tee materializes unsigned rows", func(t *testing.T) {
		tj := &TreeJoin{ResultBuf: state.NewList(a)}
		var fwd []int
		(&teeSink{join: tj, out: &forwardSink{out: exec.SinkFunc(func(ts []types.Tuple, sign int) {
			fwd = append(fwd, sign)
		})}}).Push([]types.Tuple{{types.Int(3), types.Int(2)}}, 0)
		if tj.ResultBuf.Len() != 1 || fmt.Sprint(fwd) != "[0]" {
			t.Fatalf("unsigned batch: %d rows teed, signs forwarded %v", tj.ResultBuf.Len(), fwd)
		}
	})

	t.Run("listSink", func(t *testing.T) {
		rows := []types.Tuple{aRow(1, 10), aRow(2, 3)}
		push := func(sign int) (int, exec.Clock) {
			ctx := exec.NewContext()
			s := &listSink{ctx: ctx, dst: state.NewList(a)}
			s.Push(rows, sign)
			return s.dst.Len(), *ctx.Clock
		}
		plainN, plainClock := push(0)
		signedN, signedClock := push(+1)
		if plainN != len(rows) || signedN != plainN || signedClock != plainClock {
			t.Fatalf("+1 kept %d rows at %+v, 0 kept %d at %+v", signedN, signedClock, plainN, plainClock)
		}
		defer func() {
			if got, want := recover(), "exec: retraction delta reached a sign-blind Push"; got != want {
				t.Fatalf("a retraction panicked with %v, want %q", got, want)
			}
		}()
		push(-1)
	})
}
