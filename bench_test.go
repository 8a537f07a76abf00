package adp_test

// Benchmarks regenerating the paper's tables and figures, one per
// experiment of internal/bench (cmd/adpbench's -experiment names the same
// list). Each benchmark iteration
// executes the full experiment at a reduced scale factor so `go test
// -bench=.` completes quickly; run cmd/adpbench with -sf 0.05 or larger
// for paper-regime numbers. Benchmarks report the headline metric of the
// experiment as custom units alongside ns/op.

import (
	"testing"

	"github.com/tukwila/adp/internal/bench"
)

const benchSF = 0.01

func benchCfg() bench.Config {
	return bench.Config{SF: benchSF, Seed: 42, PollEvery: 2048}
}

// BenchmarkFigure2_Comparison regenerates Figure 2: static vs corrective
// vs plan partitioning over uniform and skewed TPC-H, with and without
// cardinalities.
func BenchmarkFigure2_Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.Comparison(benchCfg(), false)
		if err != nil {
			b.Fatal(err)
		}
		reportGap(b, cells)
	}
}

// reportGap publishes static-none / adaptive-none virtual-time ratios.
func reportGap(b *testing.B, cells []bench.CellResult) {
	b.Helper()
	var staticNone, adaptNone float64
	for _, c := range cells {
		if c.Query == "Q10A" && c.Dataset == "uniform" {
			switch c.Strategy + "-" + c.Stats {
			case "static-none":
				staticNone = c.VirtualSeconds
			case "adaptive-none":
				adaptNone = c.VirtualSeconds
			}
		}
	}
	if adaptNone > 0 {
		b.ReportMetric(staticNone/adaptNone, "q10a_speedup")
	}
}

// BenchmarkTable1_StitchUpBreakdown regenerates Table 1 (phases, stitch-up
// time, reused/discarded tuples) from the corrective cells.
func BenchmarkTable1_StitchUpBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.Comparison(benchCfg(), false)
		if err != nil {
			b.Fatal(err)
		}
		var reused int64
		for _, c := range cells {
			if c.Strategy == "adaptive" {
				reused += c.Reused
			}
		}
		b.ReportMetric(float64(reused), "reused_tuples")
	}
}

// BenchmarkFigure3_Wireless regenerates Figure 3: the strategy comparison
// over the simulated bursty 802.11b link.
func BenchmarkFigure3_Wireless(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = []string{"Q3A", "Q10A"} // wireless matrix is slow; subset
	for i := 0; i < b.N; i++ {
		cells, err := bench.Comparison(cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, c := range cells {
			sum += c.VirtualSeconds
		}
		b.ReportMetric(sum/float64(len(cells)), "avg_response_s")
	}
}

// BenchmarkTable2_WirelessBreakdown regenerates Table 2.
func BenchmarkTable2_WirelessBreakdown(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = []string{"Q10A"}
	for i := 0; i < b.N; i++ {
		cells, err := bench.Comparison(cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		var stitch float64
		for _, c := range cells {
			if c.Strategy == "adaptive" {
				stitch += c.StitchSeconds
			}
		}
		b.ReportMetric(stitch, "stitch_s")
	}
}

// BenchmarkSection45_Predictability regenerates the §4.5 study: histogram
// + order-detection join-size estimation and its overhead.
func BenchmarkSection45_Predictability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Section45(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Est2Way/last.True2Way, "est_over_true")
		b.ReportMetric((res.InstrumentedSeconds/res.PlainSeconds-1)*100, "overhead_pct")
	}
}

// BenchmarkFigure5_ComplementaryJoins regenerates Figure 5: hash join vs
// complementary pair vs pair+priority-queue across reordering levels.
func BenchmarkFigure5_ComplementaryJoins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.Figure5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var hash, comp float64
		for _, c := range cells {
			if c.Dataset == "uniform" && c.Reorder == 0 {
				switch c.Strategy {
				case "hash":
					hash = c.Seconds
				case "comp":
					comp = c.Seconds
				}
			}
		}
		if comp > 0 {
			b.ReportMetric(hash/comp, "sorted_speedup")
		}
	}
}

// BenchmarkTable3_JoinDistribution regenerates Table 3 (merge/hash/stitch
// output distribution).
func BenchmarkTable3_JoinDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.Figure5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var mergeFrac float64
		for _, c := range cells {
			if c.Strategy == "comp+pq" && c.Reorder == 0.01 && c.Dataset == "uniform" {
				total := c.MergeOut + c.HashOut + c.StitchOut
				if total > 0 {
					mergeFrac = float64(c.MergeOut) / float64(total)
				}
			}
		}
		b.ReportMetric(mergeFrac*100, "pq_merge_pct")
	}
}

// BenchmarkFigure6_PreAggregation regenerates Figure 6: single vs
// adjustable-window vs traditional pre-aggregation.
func BenchmarkFigure6_PreAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := bench.Figure6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var single, windowed float64
		for _, c := range cells {
			if c.Query == "Q10A" && c.Dataset == "uniform" {
				switch c.Mode {
				case "single":
					single = c.Seconds
				case "windowed":
					windowed = c.Seconds
				}
			}
		}
		if windowed > 0 {
			b.ReportMetric(single/windowed, "q10a_preagg_speedup")
		}
	}
}

// Benchmark_Ablation_DesignChoices sweeps the polling interval, the
// priority-queue length, the window policy, and stitch-up reuse.
func Benchmark_Ablation_DesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Ablations(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "sweep_points")
	}
}
