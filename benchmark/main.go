// Command benchmark measures the query service from socket to socket:
// it makes a workload's inputs from a seed, boots internal/server
// in-process on a loopback TCP listener, drives it closed-loop over one
// keep-alive connection, checks every answer against a reference, and
// prints the metrics BENCHMARK.json names. README.md has the glossary.
//
//	bash benchmark/run.sh --workload agg_corrective --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload agg_corrective --trace 1    # per-layer pass
//	bash benchmark/run.sh --aa 10                                # A/A self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// setups is how many times an end-to-end run sets up; setup_s is their
// median and the last one is measured.
const setups = 3

// fast is the quantile of the window's ops the gated latencies report.
// Every op of a run does the same work, and in this sandbox nothing makes
// an op faster, only slower: a concurrent GC cycle takes the second CPU
// from an op that wants both (≈1.7× slower, and whether the median op is
// such an op changes from run to run), and neighbours on the host slow
// whole stretches of a run. The fastest twentieth is what the op costs
// when neither is in the way; across runs it repeats about twice as well
// as the median (README, "Why p05"). The median and p90 are printed
// beside it, ungated.
const fast = 0.05

// metric is one reported number. na marks a per-layer metric this
// workload does not exercise: the result line carries it as 0, since
// the contract wants every name on every workload.
type metric struct {
	name  string
	value float64
	unit  string
	na    bool
}

// result is one run's outcome.
type result struct {
	workload          string
	attempted, failed int
	firstErr          error
	metrics           []metric
	// notes are printed for the reader and left out of the result line.
	notes []metric
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 42, "seed the inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass in place of the end-to-end run")
	flag.BoolVar(&cfg.quick, "quick", false, "small inputs and three ops (smoke test)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory the trace file is written to")
	aa := flag.Int("aa", 0, "A/A self-check: run each workload (or -workload) this many times and compare")
	flag.Parse()
	cfg.trace = *trace != 0

	// The sandbox has two CPUs and go 1.24 ignores CPU quotas; pinning
	// makes a run the same on a larger machine.
	runtime.GOMAXPROCS(2)

	if *aa > 0 {
		os.Exit(runAA(cfg, *aa, os.Stdout))
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if res.attempted == res.failed {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].name
	}
	return names
}

// run performs one run: the end-to-end run, or the traced pass.
func run(cfg config) (*result, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return runTraced(sp, cfg)
	}
	return runEndToEnd(sp, cfg)
}

// runEndToEnd sets up several times, measures the last set-up untraced
// and reports the end-to-end metrics.
func runEndToEnd(sp *spec, cfg config) (*result, error) {
	n, ops := setups, 0
	if cfg.quick {
		n, ops = 1, 3
	}
	var (
		e          *env
		setupTimes []float64
	)
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		elapsed := stopwatch()
		var err error
		if e, err = setup(sp, cfg.seed, cfg.quick); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, elapsed().Seconds())
	}
	defer e.close()
	w := e.measure(cfg.seconds, ops)

	res := &result{workload: sp.name, attempted: w.attempted, failed: w.failed, firstErr: w.firstErr}
	res.metrics = []metric{
		{name: "setup_s", value: median(setupTimes), unit: "s"},
		{name: "first_row_ms_p05", value: quantile(w.firstRow, fast), unit: "ms"},
		{name: "completion_ms_p05", value: quantile(w.completion, fast), unit: "ms"},
		{name: "rows_per_s", value: float64(e.in.workRows) / (quantile(w.cycle, fast) / 1e3), unit: "rows/s"},
		{name: "alloc_mb_per_op", value: float64(w.allocBytes) / 1e6 / float64(w.attempted), unit: "MB"},
		{name: "virtual_s", value: median(w.virtual), unit: "s"},
	}
	res.notes = w.tails()
	return res, nil
}

// tails are the ungated harness numbers of a window: in this sandbox
// they do not repeat within a tenth.
func (w *window) tails() []metric {
	ops := float64(w.attempted)
	return []metric{
		{name: "harness.completion_ms_p50", value: median(w.completion), unit: "ms"},
		{name: "harness.completion_ms_p90", value: quantile(w.completion, 0.9), unit: "ms"},
		{name: "harness.first_row_ms_p50", value: median(w.firstRow), unit: "ms"},
		{name: "harness.first_row_ms_p90", value: quantile(w.firstRow, 0.9), unit: "ms"},
		{name: "harness.ops_per_s", value: float64(w.attempted-w.failed) / w.wall.Seconds(), unit: "ops/s"},
		{name: "harness.cpu_ms_per_op", value: ms(w.cpu) / ops, unit: "ms"},
		{name: "harness.gc_cycles_per_op", value: float64(w.gcCycles) / ops, unit: "count"},
		{name: "harness.gc_pause_ms_per_op", value: ms(w.gcPause) / ops, unit: "ms"},
		{name: "harness.steal_ratio", value: w.steal, unit: "ratio"},
	}
}

// print writes every metric by name with its unit, then the result line
// the driver reads.
func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s: ops %d, failed_ops %d\n", r.workload, r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", r.firstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		if m.na {
			fmt.Fprintf(out, "  %-36s %14s %s (not exercised by this workload)\n", m.name, "n/a", m.unit)
		} else {
			fmt.Fprintf(out, "  %-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	for _, m := range r.notes {
		fmt.Fprintf(out, "  %-36s %14.6g %s (not gated)\n", m.name, m.value, m.unit)
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(out, "%s\n", b)
}
