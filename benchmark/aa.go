package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// contract is the part of BENCHMARK.json the A/A check reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// runAA runs the same code n times per workload, each run a fresh
// process with its own seed, exactly as the driver does, and judges every
// end-to-end metric two ways against its bound in BENCHMARK.json: the
// spread of the n values (distance between the quartiles over the
// median; setup_s is exempt, as in the driver) and the gap between the
// median of the odd and of the even runs. It returns the exit code:
// non-zero on a breach.
func runAA(cfg config, n int, out io.Writer) int {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -aa reads the bounds from the repository root:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	names := workloadNames()
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	breaches := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			args := []string{
				"--workload", name, "--seed", strconv.FormatInt(cfg.seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0",
			}
			if cfg.quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", name, i, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var line struct {
				Failed  int `json:"failed"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: result line: %v\n", name, i, err)
				return 1
			}
			if line.Failed > 0 {
				fmt.Fprintf(out, "%s run %d: %d failed ops\n", name, i, line.Failed)
				breaches++
			}
			for k, v := range line.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Fprintf(out, "%s: %d runs, seeds %d..%d\n", name, n, cfg.seed, cfg.seed+int64(n)-1)
		fmt.Fprintf(out, "  %-20s %12s %9s %9s %7s\n", "metric", "median", "spread", "odd/even", "bound")
		for _, m := range c.EndToEnd {
			vs := values[m.Name]
			var odd, even []float64
			for i, v := range vs {
				if i%2 == 0 {
					even = append(even, v)
				} else {
					odd = append(odd, v)
				}
			}
			spread := quartileSpread(vs)
			gap := math.Abs(median(odd)-median(even)) / median(even)
			verdict := ""
			if (spread > m.Bound && m.Name != "setup_s") || gap > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "  %-20s %12.6g %8.2f%% %8.2f%% %6.0f%%%s\n",
				m.Name, median(vs), 100*spread, 100*gap, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		return 1
	}
	return 0
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the driver's measure).
func quartileSpread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / cut(2)
}
