// Package bench regenerates every table and figure of the paper's
// evaluation (§4–6): Figure 2 / Table 1 (corrective query processing on
// local data), Figure 3 / Table 2 (the same over a simulated bursty
// wireless network), the §4.5 selectivity-predictability study, Figure 5 /
// Table 3 (complementary join pairs), Figure 6 (pre-aggregation
// strategies), and the design-choice ablations (Ablations).
// Absolute times are virtual seconds from the engine's deterministic cost
// model, so results are stable across machines; the comparisons (who wins,
// by what factor) are the reproduction target.
package bench

import (
	"fmt"
	"strings"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/workload"
)

// Config controls experiment scale. The paper runs TPC-H SF 0.1 (100 MB);
// the default here is SF 0.01 so the full suite completes in seconds —
// pass a larger SF to approach the paper's regime.
type Config struct {
	SF        float64
	Seed      int64
	PollEvery int
	// Queries restricts the workload (nil = all four paper queries).
	Queries []string
	// Partitions runs the comparison matrix with partition-parallel
	// phase execution (core.Options.Partitions); <= 1 is serial.
	Partitions int
}

func (c *Config) defaults() {
	if c.SF <= 0 {
		c.SF = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 2048
	}
	if len(c.Queries) == 0 {
		c.Queries = []string{"Q3A", "Q10", "Q10A", "Q5"}
	}
}

// datasets generates the uniform and skewed databases once.
func (c *Config) datasets() (uniform, skewed *datagen.Dataset) {
	uniform = datagen.Generate(datagen.Config{ScaleFactor: c.SF, Seed: c.Seed})
	skewed = datagen.Generate(datagen.Config{ScaleFactor: c.SF, Seed: c.Seed, Skewed: true, Z: datagen.DefaultZ})
	return
}

// wirelessSchedule models the 802.11b link of §4.4: limited bandwidth
// with alternating bursts and stalls. The paper's wireless runs land at a
// small multiple of the local times with "trends very similar to those in
// the local case" — computation still matters, but delivery is bursty and
// delayed, exercising the delay-masking of availability-ordered
// scheduling and making the monitor rely on pipelined selectivity
// estimates gathered between bursts.
func wirelessSchedule(seed int64) func(rel *source.Relation) source.Schedule {
	return func(rel *source.Relation) source.Schedule {
		return source.NewBursty(rel.Len(), 1_000_000, 8000, 0.01, seed+int64(rel.Len()))
	}
}

// CellResult is one (query, dataset, strategy, statistics) measurement of
// the Figure 2 / Figure 3 comparison, with the Table 1 / Table 2 detail.
type CellResult struct {
	Query    string
	Dataset  string // "uniform" | "skewed"
	Strategy string // "static" | "adaptive" | "planpart"
	Stats    string // "none" | "cards"
	Wireless bool

	VirtualSeconds float64
	CPUSeconds     float64
	RealSeconds    float64
	Phases         int
	StitchSeconds  float64
	Reused         int64
	Discarded      int64
	Groups         int
}

// Comparison runs the Figure 2 (local) or Figure 3 (wireless) matrix:
// {static, adaptive(corrective), plan-partitioning} × {no statistics,
// given cardinalities} × {uniform, skewed} × workload. Plan partitioning
// is run without statistics only, as in the paper.
func Comparison(cfg Config, wireless bool) ([]CellResult, error) {
	cfg.defaults()
	uni, skw := cfg.datasets()
	var out []CellResult
	for _, qname := range cfg.Queries {
		for _, ds := range []struct {
			name string
			d    *datagen.Dataset
		}{{"uniform", uni}, {"skewed", skw}} {
			known := workload.KnownCards(ds.d)
			type variant struct {
				strategy core.Strategy
				label    string
				stats    string
				known    map[string]float64
			}
			variants := []variant{
				{core.Static, "static", "none", nil},
				{core.Static, "static", "cards", known},
				{core.Corrective, "adaptive", "none", nil},
				{core.Corrective, "adaptive", "cards", known},
				{core.PlanPartition, "planpart", "none", nil},
			}
			for _, v := range variants {
				q, err := workload.ByName(qname)
				if err != nil {
					return nil, err
				}
				var sched func(rel *source.Relation) source.Schedule
				if wireless {
					sched = wirelessSchedule(cfg.Seed)
				}
				cat := core.NewCatalog(ds.d.Relations(), sched)
				rep, err := core.Run(cat, q, core.Options{
					Strategy:   v.strategy,
					Known:      v.known,
					PollEvery:  cfg.PollEvery,
					Partitions: cfg.Partitions,
				})
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s-%s: %w", qname, ds.name, v.label, v.stats, err)
				}
				out = append(out, CellResult{
					Query:          qname,
					Dataset:        ds.name,
					Strategy:       v.label,
					Stats:          v.stats,
					Wireless:       wireless,
					VirtualSeconds: rep.VirtualSeconds,
					CPUSeconds:     rep.CPUSeconds,
					RealSeconds:    rep.RealSeconds,
					Phases:         len(rep.Phases),
					StitchSeconds:  rep.StitchTime,
					Reused:         rep.Reused,
					Discarded:      rep.Discarded,
					Groups:         len(rep.Rows),
				})
			}
		}
	}
	return out, nil
}

// FormatComparison renders Figure 2 / Figure 3 as a text table.
func FormatComparison(title string, cells []CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %-8s | %12s %12s | %12s %12s | %12s\n",
		"query", "dataset", "static-none", "static-card", "adapt-none", "adapt-card", "planpart")
	b.WriteString(strings.Repeat("-", 96) + "\n")
	type key struct{ q, d string }
	cellsBy := map[key]map[string]float64{}
	for _, c := range cells {
		k := key{c.Query, c.Dataset}
		if cellsBy[k] == nil {
			cellsBy[k] = map[string]float64{}
		}
		cellsBy[k][c.Strategy+"-"+c.Stats] = c.VirtualSeconds
	}
	seen := map[key]bool{}
	for _, c := range cells {
		k := key{c.Query, c.Dataset}
		if seen[k] {
			continue
		}
		seen[k] = true
		m := cellsBy[k]
		fmt.Fprintf(&b, "%-6s %-8s | %11.3fs %11.3fs | %11.3fs %11.3fs | %11.3fs\n",
			c.Query, c.Dataset,
			m["static-none"], m["static-cards"],
			m["adaptive-none"], m["adaptive-cards"],
			m["planpart-none"])
	}
	return b.String()
}

// FormatPhaseTable renders Table 1 / Table 2: per-query corrective
// breakdown of phases, stitch-up time, reused and discarded tuples.
func FormatPhaseTable(title string, cells []CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %-8s %-6s | %7s %10s %12s %12s\n",
		"query", "dataset", "stats", "phases", "stitch(s)", "reused", "discarded")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	for _, c := range cells {
		if c.Strategy != "adaptive" {
			continue
		}
		fmt.Fprintf(&b, "%-6s %-8s %-6s | %7d %10.3f %12d %12d\n",
			c.Query, c.Dataset, c.Stats, c.Phases, c.StitchSeconds, c.Reused, c.Discarded)
	}
	return b.String()
}

var _ = algebra.CanonKey // keep import for sibling files
