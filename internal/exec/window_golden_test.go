package exec

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// windowGoldens were written by the commit before the windowed
// pre-aggregate kept its window's groups in the aggregate's flat group store
// (it kept a map keyed by the encoded group key, made anew at every flush).
// Each leg pins the partial stream — every delivered batch's rows to the bit,
// in order — and the operator's window, counters and clock.
var windowGoldens = map[string]string{
	"adaptive/w0=8/coalescing": "stream=da995ce72dab8f9e batches=8 rows=94 W=4096 flushed=9 coalesced=2906 in=3000 out=94 clock=2428200/2428200",
	"adaptive/w0=64/distinct":  "stream=ffebc18a90502f57 batches=23 rows=2297 W=2048 flushed=23 coalesced=703 in=3000 out=2297 clock=3089100/3089100",
	"fixed/w=1":                "stream=d4a7bf93eb42cf5b batches=14 rows=500 W=1 flushed=0 coalesced=0 in=500 out=500 clock=150000/150000",
	"fixed/w=100":              "stream=b9390bd0d8b598c4 batches=30 rows=1615 W=100 flushed=30 coalesced=1385 in=3000 out=1615 clock=2884500/2884500",
	"fixed/w=4096":             "stream=7b21fb10dd0369b6 batches=3 rows=5329 W=4096 flushed=3 coalesced=3671 in=9000 out=5329 clock=8798700/8798700",
}

// windowInput mixes keys that tie under Compare but are distinct groups
// (Int(k) and Float(k), ±0, NaN), strings and NULLs, with float arguments
// that do not add exactly and a share of NULL arguments.
func windowInput(seed int64, n, keys int) []types.Tuple {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]types.Tuple, n)
	for i := range rows {
		k := rng.Int63n(int64(keys))
		var g types.Value
		switch rng.Intn(8) {
		case 0:
			g = types.Float(float64(k))
		case 1:
			g = types.Float([]float64{0, math.Copysign(0, -1), math.NaN()}[rng.Intn(3)])
		case 2:
			g = types.Str(fmt.Sprint(k))
		case 3:
			g = types.Null()
		default:
			g = types.Int(k)
		}
		v := types.Float(float64(rng.Int63n(2000)-1000) * 0.1)
		if rng.Intn(10) == 0 {
			v = types.Null()
		}
		rows[i] = types.Tuple{g, v}
	}
	return rows
}

// TestWindowPreAggStreamGolden: the legs above, each pushed in batches of 37
// and finished.
func TestWindowPreAggStreamGolden(t *testing.T) {
	for _, leg := range []struct {
		name     string
		w0, keys int
		fixed    bool
		seed     int64
		n        int
	}{
		{name: "adaptive/w0=8/coalescing", w0: 8, keys: 3, seed: 1, n: 3000},
		{name: "adaptive/w0=64/distinct", w0: 64, keys: 5000, seed: 2, n: 3000},
		{name: "fixed/w=1", w0: 1, keys: 40, fixed: true, seed: 3, n: 500},
		{name: "fixed/w=100", w0: 100, keys: 40, fixed: true, seed: 4, n: 3000},
		{name: "fixed/w=4096", w0: 4096, keys: 3000, fixed: true, seed: 5, n: 9000},
	} {
		t.Run(leg.name, func(t *testing.T) {
			ctx := NewContext()
			h := fnv.New64a()
			batches, rows := 0, 0
			w, err := NewWindowPreAgg(ctx, aggIn, []string{"t.g"}, allAggs(), SinkFunc(func(ts []types.Tuple, _ int) {
				batches++
				rows += len(ts)
				fmt.Fprintf(h, "%d:%s", len(ts), exactRows(ts))
			}))
			if err != nil {
				t.Fatal(err)
			}
			w.W = leg.w0
			if leg.fixed {
				w.GrowBelow, w.ShrinkAbove = -1, 2
			}
			in := windowInput(leg.seed, leg.n, leg.keys)
			for len(in) > 0 {
				n := min(37, len(in))
				w.Push(in[:n], 0)
				in = in[n:]
			}
			w.Finish()
			got := fmt.Sprintf("stream=%016x batches=%d rows=%d W=%d flushed=%d coalesced=%d in=%d out=%d clock=%d/%d",
				h.Sum64(), batches, rows, w.W, w.WindowsFlushed, w.Coalesced, w.Counters().In, w.Counters().Out, ctx.Clock.Now, ctx.Clock.CPU)
			if want := windowGoldens[leg.name]; got != want {
				t.Errorf("got  %s\nwant %s", got, want)
			}
		})
	}
}
