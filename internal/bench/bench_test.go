package bench

import (
	"strings"
	"testing"
)

// tiny keeps harness tests fast.
func tiny() Config { return Config{SF: 0.002, Seed: 7, PollEvery: 512} }

func TestComparisonLocalShape(t *testing.T) {
	cfg := tiny()
	cfg.Queries = []string{"Q3A", "Q10A"}
	cells, err := Comparison(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	// 2 queries × 2 datasets × 5 variants.
	if len(cells) != 2*2*5 {
		t.Fatalf("cells = %d, want 20", len(cells))
	}
	byKey := map[string]CellResult{}
	for _, c := range cells {
		byKey[c.Query+"/"+c.Dataset+"/"+c.Strategy+"-"+c.Stats] = c
		if c.VirtualSeconds <= 0 || c.Groups == 0 {
			t.Errorf("%s/%s/%s-%s produced no work (%.3fs, %d groups)",
				c.Query, c.Dataset, c.Strategy, c.Stats, c.VirtualSeconds, c.Groups)
		}
	}
	// All strategies must agree on result cardinality per (query,dataset).
	for _, q := range cfg.Queries {
		for _, d := range []string{"uniform", "skewed"} {
			base := byKey[q+"/"+d+"/static-cards"].Groups
			for _, v := range []string{"static-none", "adaptive-none", "adaptive-cards", "planpart-none"} {
				if got := byKey[q+"/"+d+"/"+v].Groups; got != base {
					t.Errorf("%s/%s/%s groups = %d, want %d", q, d, v, got, base)
				}
			}
		}
	}
	txt := FormatComparison("Figure 2", cells)
	if !strings.Contains(txt, "Q3A") || !strings.Contains(txt, "uniform") {
		t.Error("FormatComparison missing content")
	}
	tbl := FormatPhaseTable("Table 1", cells)
	if !strings.Contains(tbl, "phases") {
		t.Error("FormatPhaseTable missing content")
	}
}

func TestComparisonWireless(t *testing.T) {
	cfg := tiny()
	cfg.Queries = []string{"Q3A"}
	cells, err := Comparison(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if !c.Wireless {
			t.Fatal("wireless flag lost")
		}
		// Over a bursty constrained link, response time must exceed pure
		// CPU time.
		if c.VirtualSeconds <= c.CPUSeconds {
			t.Errorf("%s/%s/%s: wireless response %.3fs <= CPU %.3fs",
				c.Query, c.Dataset, c.Strategy, c.VirtualSeconds, c.CPUSeconds)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	cells, err := Figure5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*4*3 {
		t.Fatalf("cells = %d, want 24", len(cells))
	}
	byKey := map[string]Fig5Result{}
	for _, c := range cells {
		byKey[c.Dataset+"/"+ftoa(c.Reorder)+"/"+c.Strategy] = c
	}
	// All strategies produce identical outputs per cell.
	for _, d := range []string{"uniform", "skewed"} {
		for _, f := range []float64{0, 0.01, 0.10, 0.50} {
			h := byKey[d+"/"+ftoa(f)+"/hash"].Output
			for _, s := range []string{"comp", "comp+pq"} {
				if got := byKey[d+"/"+ftoa(f)+"/"+s].Output; got != h {
					t.Errorf("%s/%.0f%%/%s output %d != hash %d", d, f*100, s, got, h)
				}
			}
		}
	}
	// Shape: on fully sorted data the complementary pair beats hash.
	for _, d := range []string{"uniform", "skewed"} {
		hash := byKey[d+"/0/hash"].Seconds
		comp := byKey[d+"/0/comp"].Seconds
		if comp >= hash {
			t.Errorf("%s sorted: comp %.3fs should beat hash %.3fs", d, comp, hash)
		}
		// Sorted data routes everything to merge.
		if byKey[d+"/0/comp"].HashOut != 0 || byKey[d+"/0/comp"].StitchOut != 0 {
			t.Errorf("%s sorted: unexpected hash/stitch output", d)
		}
	}
	// At 1% reordering the priority queue beats the naive router.
	for _, d := range []string{"uniform", "skewed"} {
		naive := byKey[d+"/0.01/comp"]
		pq := byKey[d+"/0.01/comp+pq"]
		if pq.MergeRouted <= naive.MergeRouted {
			t.Errorf("%s 1%%: pq merge-routed %d should exceed naive %d",
				d, pq.MergeRouted, naive.MergeRouted)
		}
	}
	_ = FormatFigure5(cells)
	if !strings.Contains(FormatTable3(cells), "stitch") {
		t.Error("Table 3 formatting broken")
	}
}

func ftoa(f float64) string {
	switch f {
	case 0:
		return "0"
	case 0.01:
		return "0.01"
	case 0.10:
		return "0.1"
	default:
		return "0.5"
	}
}

func TestFigure6Shape(t *testing.T) {
	cfg := tiny()
	cfg.Queries = []string{"Q3A", "Q10A", "Q5"}
	cells, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig6Result{}
	for _, c := range cells {
		byKey[c.Query+"/"+c.Dataset+"/"+c.Mode] = c
	}
	// Result cardinality identical across modes (correctness).
	for _, q := range cfg.Queries {
		for _, d := range []string{"uniform", "skewed"} {
			g := byKey[q+"/"+d+"/single"].Groups
			for _, m := range []string{"windowed", "traditional"} {
				if got := byKey[q+"/"+d+"/"+m].Groups; got != g {
					t.Errorf("%s/%s/%s groups %d != single %d", q, d, m, got, g)
				}
			}
		}
	}
	// Q10A (joins all of ORDERS) should benefit from pre-aggregation.
	single := byKey["Q10A/uniform/single"].Seconds
	windowed := byKey["Q10A/uniform/windowed"].Seconds
	if windowed >= single*1.05 {
		t.Errorf("Q10A windowed pre-agg %.3fs should not exceed single %.3fs", windowed, single)
	}
	_ = FormatFigure6(cells)
}

func TestSection45Shape(t *testing.T) {
	res, err := Section45(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	last := res.Points[len(res.Points)-1]
	if !last.OrdersSorted || !last.OrdersUnique {
		t.Error("ORDERS key should be detected sorted and unique")
	}
	// Estimates converge: full-data estimate within 40% of truth.
	if rel := abs(last.Est2Way-last.True2Way) / last.True2Way; rel > 0.4 {
		t.Errorf("2-way estimate off by %.0f%% at 100%%", rel*100)
	}
	// Instrumentation adds measurable overhead.
	if res.InstrumentedSeconds <= res.PlainSeconds {
		t.Error("instrumentation should cost time")
	}
	if !strings.Contains(res.Format(), "overhead") {
		t.Error("format broken")
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func TestAblationsRun(t *testing.T) {
	rows, err := Ablations(tiny())
	if err != nil {
		t.Fatal(err)
	}
	exps := map[string]int{}
	for _, r := range rows {
		exps[r.Experiment]++
		if r.Seconds <= 0 {
			t.Errorf("%s/%s: no time recorded", r.Experiment, r.Setting)
		}
	}
	for _, e := range []string{"poll-interval", "pq-length", "window-policy", "stitch-reuse"} {
		if exps[e] < 2 {
			t.Errorf("experiment %s has %d rows", e, exps[e])
		}
	}
	if !strings.Contains(FormatAblations(rows), "poll-interval") {
		t.Error("format broken")
	}
}
