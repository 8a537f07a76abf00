package bench

import (
	"fmt"
	"strings"

	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

// AblationRow is one measurement of a design-choice sweep.
type AblationRow struct {
	Experiment string
	Setting    string
	Seconds    float64
	Detail     string
}

// Ablations sweeps the engine's design choices, one experiment each: the
// corrective polling interval (§4.1 "how often to make decisions"), the
// priority-queue length of the complementary router (§5), the
// window-adaptation policy of pre-aggregation (§6), and stitch-up reuse
// (§3.4.2).
func Ablations(cfg Config) ([]AblationRow, error) {
	cfg.defaults()
	uni, _ := cfg.datasets()
	var out []AblationRow

	// 1. Polling interval: corrective Q10A with no statistics.
	for _, poll := range []int{512, 2048, 8192, 32768} {
		cat := core.NewCatalog(uni.Relations(), nil)
		rep, err := core.Run(cat, workload.Q10A(), core.Options{
			Strategy: core.Corrective, PollEvery: poll,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Experiment: "poll-interval",
			Setting:    fmt.Sprintf("%d tuples", poll),
			Seconds:    rep.VirtualSeconds,
			Detail:     fmt.Sprintf("phases=%d stitch=%.3fs", len(rep.Phases), rep.StitchTime),
		})
	}

	// 2. Priority-queue length on 1%-reordered LINEITEM ⋈ ORDERS.
	li := source.ReorderFraction(uni.Lineitem, 0.01, cfg.Seed+1)
	ord := source.ReorderFraction(uni.Orders, 0.01, cfg.Seed+2)
	for _, pq := range []int{0, 64, 256, 1024, 4096} {
		ctx := exec.NewContext()
		var n int64
		cj := core.NewComplementaryJoin(ctx, li.Schema, ord.Schema,
			[]int{li.Schema.MustIndexOf("l_orderkey")},
			[]int{ord.Schema.MustIndexOf("o_orderkey")},
			pq, exec.SinkFunc(func(ts []types.Tuple, _ int) { n += int64(len(ts)) }))
		d := exec.NewDriver(ctx,
			&exec.Leaf{Provider: source.NewProvider(li, nil), PushBatch: cj.PushLeftBatch},
			&exec.Leaf{Provider: source.NewProvider(ord, nil), PushBatch: cj.PushRightBatch},
		)
		d.Run(0, nil)
		cj.Finish()
		mergeFrac := float64(cj.Stats.MergeRoutedLeft+cj.Stats.MergeRoutedRight) /
			float64(li.Len()+ord.Len())
		out = append(out, AblationRow{
			Experiment: "pq-length",
			Setting:    fmt.Sprintf("%d", pq),
			Seconds:    exec.Seconds(ctx.Clock.Now),
			Detail:     fmt.Sprintf("merge-routed=%.1f%% out=%d", mergeFrac*100, n),
		})
	}

	// 3. Window adaptation policy: adaptive vs fixed windows on the Q10A
	// pre-aggregation input (lineitem grouped by order key).
	liS := uni.Lineitem.Schema
	groupBy := []string{"lineitem.l_orderkey"}
	aggs := workload.Q10A().Aggs
	for _, setting := range []struct {
		label    string
		fixed    bool
		initialW int
	}{
		{"adaptive(w0=64)", false, 64},
		{"fixed(w=1)", true, 1},
		{"fixed(w=64)", true, 64},
		{"fixed(w=4096)", true, 4096},
	} {
		ctx := exec.NewContext()
		var partials int64
		pre, err := exec.NewWindowPreAgg(ctx, liS, groupBy, aggs,
			exec.SinkFunc(func(ts []types.Tuple, _ int) { partials += int64(len(ts)) }))
		if err != nil {
			return nil, err
		}
		pre.W = setting.initialW
		if setting.fixed {
			pre.GrowBelow, pre.ShrinkAbove = -1, 2 // never adapt
		}
		pre.Push(uni.Lineitem.Rows, 0)
		pre.Finish()
		out = append(out, AblationRow{
			Experiment: "window-policy",
			Setting:    setting.label,
			Seconds:    exec.Seconds(ctx.Clock.Now),
			Detail: fmt.Sprintf("partials=%d coalesced=%d finalW=%d",
				partials, pre.Coalesced, pre.W),
		})
	}

	// 4. Stitch-up reuse on/off under forced switching.
	for _, disable := range []bool{false, true} {
		cat := core.NewCatalog(uni.Relations(), nil)
		rep, err := core.Run(cat, workload.Q3A(), core.Options{
			Strategy:           core.Corrective,
			PollEvery:          1024,
			SwitchFactor:       0.99,
			MaxPhases:          4,
			DisableStitchReuse: disable,
		})
		if err != nil {
			return nil, err
		}
		label := "reuse"
		if disable {
			label = "no-reuse"
		}
		out = append(out, AblationRow{
			Experiment: "stitch-reuse",
			Setting:    label,
			Seconds:    rep.VirtualSeconds,
			Detail: fmt.Sprintf("phases=%d stitch=%.3fs reused=%d",
				len(rep.Phases), rep.StitchTime, rep.Reused),
		})
	}
	return out, nil
}

// FormatAblations renders the sweeps.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations\n")
	fmt.Fprintf(&b, "%-15s %-18s %12s  %s\n", "experiment", "setting", "seconds", "detail")
	b.WriteString(strings.Repeat("-", 86) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %-18s %11.3fs  %s\n", r.Experiment, r.Setting, r.Seconds, r.Detail)
	}
	return b.String()
}
