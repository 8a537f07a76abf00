package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"regexp"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/types"
)

// quickRun runs one workload at -quick size and returns the result and
// everything it printed.
func quickRun(t *testing.T, workload string, seed int64, trace bool) (*result, string) {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, seconds: 1, trace: trace, quick: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	var out bytes.Buffer
	res.print(&out)
	return res, out.String()
}

func value(t *testing.T, res *result, name string) float64 {
	t.Helper()
	for _, m := range res.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("%s: no metric %q", res.workload, name)
	return 0
}

// TestContractNames: every workload prints every end-to-end name of
// BENCHMARK.json once in the end-to-end run and every per-layer name
// once in the traced pass, each with the contract's unit; the result
// line carries exactly those names; no op fails; the waterfall adds up.
func TestContractNames(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(c.Workloads), len(specs); got != want {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", got, want)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	units := [2]map[string]string{{}, {}}
	for _, m := range c.EndToEnd {
		units[0][m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		units[1][m.Name] = m.Unit
	}
	for _, w := range c.Workloads {
		for mode, want := range units {
			res, out := quickRun(t, w.Name, 42, mode == 1)
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s: %d of %d ops failed: %v", w.Name, res.failed, res.attempted, res.firstErr)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var line struct {
				Metrics map[string]struct{ Unit string } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%d: result line has %d metrics, contract %d", w.Name, mode, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				if !nameRE.MatchString(name) {
					t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
				}
				printed := 0
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) >= 3 && f[0] == name {
						printed++
						if f[2] != unit {
							t.Errorf("%s: %s printed with unit %q, contract %q", w.Name, name, f[2], unit)
						}
					}
				}
				if printed != 1 {
					t.Errorf("%s trace=%d: %s printed %d times", w.Name, mode, name, printed)
				}
				if line.Metrics[name].Unit != unit {
					t.Errorf("%s: result line has %s in %q, contract %q", w.Name, name, line.Metrics[name].Unit, unit)
				}
			}
			if mode == 1 && w.Name == "agg_corrective" {
				if sw, calls := value(t, res, "core.switches"), value(t, res, "opt.calls"); sw < 1 || calls <= 1 {
					t.Errorf("agg_corrective: core.switches = %g, opt.calls = %g; want a switch and more than one call", sw, calls)
				}
			}
			if mode == 1 {
				sum := value(t, res, "server.self_ms") + value(t, res, "engine.self_ms") + value(t, res, "core.self_ms") +
					value(t, res, "source.drain_ms") + value(t, res, "opt.optimize_us")*value(t, res, "opt.calls")/1e3
				if op := value(t, res, "server.op_ms"); math.Abs(sum-op) > 1e-6*op {
					t.Errorf("%s: layer self times sum to %g ms, server.op_ms is %g", w.Name, sum, op)
				}
			}
		}
	}
}

// datasetDigest fingerprints every row of a dataset.
func datasetDigest(d *datagen.Dataset) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, name := range []string{"region", "nation", "supplier", "customer", "orders", "lineitem"} {
		for _, row := range d.Relations()[name].Rows {
			buf = types.AppendKeyAll(buf[:0], row)
			h.Write(buf)
		}
	}
	return h.Sum64()
}

// TestInputsFollowTheSeed: equal seeds give byte-identical request
// bodies and datasets; another seed gives another dataset and, where the
// body carries a delta script, another body.
func TestInputsFollowTheSeed(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, err := newInputs(sp, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInputs(sp, 7, true)
		c, _ := newInputs(sp, 8, true)
		if !bytes.Equal(a.body, b.body) || datasetDigest(a.data) != datasetDigest(b.data) {
			t.Errorf("%s: seed 7 gave two different inputs", sp.name)
		}
		if datasetDigest(a.data) == datasetDigest(c.data) {
			t.Errorf("%s: seeds 7 and 8 gave the same dataset", sp.name)
		}
		if sp.standing && bytes.Equal(a.body, c.body) {
			t.Errorf("%s: seeds 7 and 8 gave the same delta script", sp.name)
		}
	}
}

// TestOracleCatchesCorruptReference: with one group of the reference
// changed, every op is a failed op — through the fold when the body is
// kept, through the digest table when it is not.
func TestOracleCatchesCorruptReference(t *testing.T) {
	for _, keep := range []bool{true, false} {
		e, err := setup(&specs[0], 42, true)
		if err != nil {
			t.Fatal(err)
		}
		if w := e.measure(0, 2); w.failed != 0 {
			t.Fatalf("sound reference: %d failed ops: %v", w.failed, w.firstErr)
		}
		for _, g := range e.ref.want.groups {
			g.count++
			break
		}
		e.validated = map[uint64]int{}
		e.keepBodies = keep
		if w := e.measure(0, 2); w.failed != 2 {
			t.Errorf("corrupt reference, keep=%v: %d of 2 ops failed, want 2 (%v)", keep, w.failed, w.firstErr)
		}
		e.close()
	}
}

// TestCorrectiveSwitchesHeldOut: the corrective workload switches plans
// at a seed not used while it was written (TestContractNames checks the
// development seed).
func TestCorrectiveSwitchesHeldOut(t *testing.T) {
	res, _ := quickRun(t, "agg_corrective", 20260927, true)
	if sw := value(t, res, "core.switches"); sw < 1 {
		t.Errorf("core.switches = %g, want at least 1", sw)
	}
}

// TestQuartileSpread pins the driver's measure: Python's
// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	got := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}
