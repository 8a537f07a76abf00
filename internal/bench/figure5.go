package bench

import (
	"fmt"
	"strings"

	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Fig5Result is one bar of Figure 5 plus its Table 3 row.
type Fig5Result struct {
	Dataset  string  // "uniform" | "skewed"
	Reorder  float64 // fraction of tuples displaced
	Strategy string  // "hash" | "comp" | "comp+pq"

	Seconds float64 // virtual seconds
	Output  int64

	// Table 3 distribution: output tuples produced by each component.
	MergeOut  int64
	HashOut   int64
	StitchOut int64
	// Routed input counts.
	MergeRouted int64
	HashRouted  int64
}

// Figure5 reproduces the LINEITEM ⋈ ORDERS order-exploitation experiment:
// pipelined hash join vs complementary join pair (naive router) vs
// complementary pair with a 1024-tuple priority queue, over uniform and
// skewed data, with 0%, 1%, 10% and 50% of the tuples randomly swapped.
func Figure5(cfg Config) ([]Fig5Result, error) {
	cfg.defaults()
	uni, skw := cfg.datasets()
	var out []Fig5Result
	for _, ds := range []struct {
		name string
		d    *datagen.Dataset
	}{{"uniform", uni}, {"skewed", skw}} {
		for _, frac := range []float64{0, 0.01, 0.10, 0.50} {
			li := ds.d.Lineitem
			ord := ds.d.Orders
			if frac > 0 {
				li = source.ReorderFraction(li, frac, cfg.Seed+1)
				ord = source.ReorderFraction(ord, frac, cfg.Seed+2)
			}
			for _, strat := range []string{"hash", "comp", "comp+pq"} {
				r, err := runFig5Cell(li, ord, strat)
				if err != nil {
					return nil, err
				}
				r.Dataset = ds.name
				r.Reorder = frac
				out = append(out, *r)
			}
		}
	}
	return out, nil
}

func runFig5Cell(li, ord *source.Relation, strat string) (*Fig5Result, error) {
	ctx := exec.NewContext()
	res := &Fig5Result{Strategy: strat}
	count := exec.SinkFunc(func(ts []types.Tuple, _ int) { res.Output += int64(len(ts)) })

	lKey := []int{li.Schema.MustIndexOf("l_orderkey")}
	oKey := []int{ord.Schema.MustIndexOf("o_orderkey")}
	lp := source.NewProvider(li, nil)
	op := source.NewProvider(ord, nil)

	switch strat {
	case "hash":
		j := exec.NewHashJoin(ctx, exec.Pipelined, li.Schema, ord.Schema, lKey, oKey, count)
		d := exec.NewDriver(ctx,
			&exec.Leaf{Provider: lp, PushBatch: exec.Feed(j.LeftSink())},
			&exec.Leaf{Provider: op, PushBatch: exec.Feed(j.RightSink())},
		)
		d.Run(0, nil)
		j.FinishLeft()
		j.FinishRight()
		res.HashOut = j.Counters().Out
		res.HashRouted = j.Counters().In
	case "comp", "comp+pq":
		pq := 0
		if strat == "comp+pq" {
			pq = core.DefaultPQCap
		}
		cj := core.NewComplementaryJoin(ctx, li.Schema, ord.Schema, lKey, oKey, pq, count)
		d := exec.NewDriver(ctx,
			&exec.Leaf{Provider: lp, PushBatch: cj.PushLeftBatch},
			&exec.Leaf{Provider: op, PushBatch: cj.PushRightBatch},
		)
		d.Run(0, nil)
		cj.Finish()
		st := cj.Stats
		res.MergeOut = st.MergeOut
		res.HashOut = st.HashOut
		res.StitchOut = st.StitchOut
		res.MergeRouted = st.MergeRoutedLeft + st.MergeRoutedRight
		res.HashRouted = st.HashRoutedLeft + st.HashRoutedRight
	default:
		return nil, fmt.Errorf("bench: unknown figure-5 strategy %q", strat)
	}
	res.Seconds = exec.Seconds(ctx.Clock.Now)
	return res, nil
}

// FormatFigure5 renders the runtime comparison.
func FormatFigure5(rs []Fig5Result) string {
	var b strings.Builder
	b.WriteString("Figure 5: pipelined hash join vs complementary joins (LINEITEM ⋈ ORDERS)\n")
	fmt.Fprintf(&b, "%-8s %-9s | %12s %12s %12s\n", "dataset", "reorder", "hash", "comp", "comp+pq")
	b.WriteString(strings.Repeat("-", 64) + "\n")
	type key struct {
		d string
		f float64
	}
	m := map[key]map[string]float64{}
	var order []key
	for _, r := range rs {
		k := key{r.Dataset, r.Reorder}
		if m[k] == nil {
			m[k] = map[string]float64{}
			order = append(order, k)
		}
		m[k][r.Strategy] = r.Seconds
	}
	for _, k := range order {
		fmt.Fprintf(&b, "%-8s %8.0f%% | %11.3fs %11.3fs %11.3fs\n",
			k.d, k.f*100, m[k]["hash"], m[k]["comp"], m[k]["comp+pq"])
	}
	return b.String()
}

// FormatTable3 renders the processing distribution across the pair's
// components.
func FormatTable3(rs []Fig5Result) string {
	var b strings.Builder
	b.WriteString("Table 3: distribution of join outputs in complementary joins\n")
	fmt.Fprintf(&b, "%-8s %-9s %-8s | %10s %10s %10s\n",
		"dataset", "reorder", "router", "hash", "merge", "stitch")
	b.WriteString(strings.Repeat("-", 66) + "\n")
	for _, r := range rs {
		if r.Strategy == "hash" {
			continue
		}
		router := "naive"
		if r.Strategy == "comp+pq" {
			router = "pq"
		}
		fmt.Fprintf(&b, "%-8s %8.0f%% %-8s | %10d %10d %10d\n",
			r.Dataset, r.Reorder*100, router, r.HashOut, r.MergeOut, r.StitchOut)
	}
	return b.String()
}

var _ = datagen.DefaultZ
