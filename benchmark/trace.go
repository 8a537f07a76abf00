package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/stats"
	"github.com/tukwila/adp/internal/types"
)

// traceOps is how many ops the traced pass replays through the layers.
const traceOps = 10

// span is one timed call into a layer. The program's layers are nested
// calls — HTTP handler ⊃ engine cursor ⊃ core run ⊃ {source reads,
// optimizer} — and the benchmark may only time them from outside, so a
// traced op is replayed once per layer through that layer's public entry
// point. parent names the span the work happens inside in the real op;
// parent and child are measured one after the other, not nested in wall
// time, and a layer's self time is its duration minus its children's.
type span struct {
	ID     int                `json:"id"`
	Name   string             `json:"name"`
	Op     int                `json:"op"`
	Parent int                `json:"parent"` // -1: a root, or a side measurement outside the waterfall
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// traceFile is what the traced pass writes at exit and what the layer
// metrics are computed from.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// record adds a span that ended now and took d, and returns its id.
func (t *tracer) record(name string, op, parent int, d time.Duration, counts map[string]float64) int {
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Op: op, Parent: parent,
		Start: int64(end - d), End: int64(end), Counts: counts,
	})
	return len(t.spans) - 1
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func loadTrace(path string) (*traceFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &tf, nil
}

// durations returns the milliseconds of every span with the name.
func (tf *traceFile) durations(name string) []float64 {
	var out []float64
	for _, s := range tf.Spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// count returns the median of a count recorded on the named spans.
func (tf *traceFile) count(name, key string) float64 {
	var out []float64
	for _, s := range tf.Spans {
		if s.Name == name {
			out = append(out, s.Counts[key])
		}
	}
	return median(out)
}

// ---- Layer replays ---------------------------------------------------------

// replayer enters the program below the HTTP handler, the way the
// handler and the engine do, on the run's own inputs.
type replayer struct {
	e *env
	// scheds are the delivery schedules the engine registered, made once
	// as the engine makes them once.
	scheds map[string]source.Schedule
	// cache mirrors the server's plan cache, so a replay skips the
	// optimizer exactly when the HTTP op does.
	cache *engine.PlanCache
}

func newReplayer(e *env) *replayer {
	r := &replayer{e: e, scheds: map[string]source.Schedule{}, cache: engine.NewPlanCache(0)}
	if e.in.spec.wireless {
		for name, rel := range e.in.data.Relations() {
			r.scheds[name] = wirelessLink(rel)
		}
	}
	return r
}

// options is the run's core.Options after the plan-cache lookup the
// query handler does; the standing handler does none.
func (r *replayer) options() core.Options {
	o := r.e.in.opts
	if !r.e.in.spec.standing {
		r.cache.Lookup(engine.Fingerprint(r.e.in.query, o), &o)
	}
	return o
}

// engineOp drains one op through the engine's cursors as the handler
// does, without the encoding and the socket.
func (r *replayer) engineOp() error {
	in := r.e.in
	ctx := context.Background()
	if !in.spec.standing {
		st, err := r.e.eng.Stream(ctx, in.query, engine.WithOptions(r.options()))
		if err != nil {
			return err
		}
		defer st.Close()
		for {
			if _, ok := st.Next(); !ok {
				break
			}
		}
		_, err = st.Report()
		return err
	}
	sq, err := r.e.eng.RegisterStanding(ctx, in.query,
		map[string][]source.Delta{"lineitem": in.script}, engine.WithOptions(r.options()))
	if err != nil {
		return err
	}
	defer sq.Close()
	rowsDone := make(chan struct{})
	go func() {
		defer close(rowsDone)
		for {
			if _, ok := sq.Next(); !ok {
				return
			}
		}
	}()
	for {
		if _, ok := sq.NextWindow(); !ok {
			break
		}
	}
	<-rowsDone
	_, err = sq.Report()
	return err
}

// providers opens fresh providers over the query's relations, as the
// engine's catalog does.
func (r *replayer) providers() map[string]source.Provider {
	out := map[string]source.Provider{}
	for _, rel := range r.e.in.query.Relations {
		out[rel.Name] = source.NewProvider(r.e.in.data.Relations()[rel.Name], r.scheds[rel.Name])
	}
	return out
}

func (r *replayer) deltaProvider() (source.Provider, error) {
	return source.NewDeltaProvider(source.NewProvider(r.e.in.data.Lineitem, nil), r.e.in.script)
}

// coreRun is one call of core.RunStream (or RunMaintenance) with
// counting hooks.
type coreRun struct {
	d      time.Duration
	counts map[string]float64
}

// coreOp runs the query through core on a fresh catalog; the catalog is
// the engine's work and is built before the clock starts. maintain
// selects RunMaintenance with the delta script.
func (r *replayer) coreOp(o core.Options, maintain bool) (*coreRun, error) {
	var polls, rows, updates float64
	o.OnPoll = func(_, _, _ float64, _ bool) { polls++ }
	hooks := core.RunHooks{
		OnRows:    func(ts []types.Tuple) { rows += float64(len(ts)) },
		OnUpdates: func(_ core.UpdateWatermark, us []ivm.Update) { updates += float64(len(us)) },
	}
	cat := &core.Catalog{Providers: r.providers()}
	var m core.MaintOptions
	if maintain {
		dp, err := r.deltaProvider()
		if err != nil {
			return nil, err
		}
		m.Deltas = map[string]source.Provider{"lineitem": dp}
	}
	var (
		rep *core.Report
		err error
	)
	elapsed := stopwatch()
	if maintain {
		rep, err = core.RunMaintenance(context.Background(), cat, r.e.in.query, o, m, hooks)
	} else {
		rep, err = core.RunStream(context.Background(), cat, r.e.in.query, o, hooks)
	}
	d := elapsed()
	if err != nil {
		return nil, err
	}
	calls := polls
	if o.InitialPlan == nil {
		calls++ // a plan-cache miss runs the optimizer once before phase 0
	}
	return &coreRun{d: d, counts: map[string]float64{
		"polls": polls, "opt_calls": calls, "rows": rows, "updates": updates,
		"switches": float64(rep.Switches + rep.MaintSwitches), "phases": float64(len(rep.Phases)),
		"stitch_virtual_s": rep.StitchTime, "cpu_virtual_s": rep.CPUSeconds,
		"reused": float64(rep.Reused), "discarded": float64(rep.Discarded),
		"delta_rows": float64(rep.DeltaRows), "delta_clamped": float64(rep.DeltaClamped),
	}}, nil
}

// drainSources reads every provider of the op dry through the
// availability-ordered driver into leaves that drop the rows: the source
// layer and the read loop with no operator behind them.
func (r *replayer) drainSources() (rows float64, d time.Duration, err error) {
	var leaves []*exec.Leaf
	for _, p := range r.providers() {
		leaves = append(leaves, &exec.Leaf{Provider: p, PushBatch: func([]types.Tuple) {}})
	}
	if r.e.in.spec.standing {
		dp, err := r.deltaProvider()
		if err != nil {
			return 0, 0, err
		}
		leaves = append(leaves, &exec.Leaf{Provider: dp, PushBatch: func([]types.Tuple) {}})
	}
	elapsed := stopwatch()
	exec.NewDriver(exec.NewContext(), leaves...).Run(0, nil)
	d = elapsed()
	for _, l := range leaves {
		rows += float64(l.Read)
	}
	return rows, d, nil
}

// optimize is one opt.Optimize on the workload's inputs with nothing
// observed yet, the call a plan-cache miss makes.
func (r *replayer) optimize() error {
	_, err := opt.Optimize(opt.Inputs{
		Query: r.e.in.query, Known: r.e.in.opts.Known, Obs: stats.NewRegistry(),
		Cost: exec.NewContext().Cost, PreAgg: r.e.in.opts.PreAgg,
	})
	return err
}

// traceOp replays op number op through every layer, outside in.
func (r *replayer) traceOp(t *tracer, op int) error {
	e := r.e
	cache0 := e.svc.PlanCacheStats()
	res, _, err := e.run()
	if err != nil {
		return fmt.Errorf("traced op %d: %w", op, err)
	}
	cache1 := e.svc.PlanCacheStats()
	root := t.record("server.op", op, -1, res.completion, map[string]float64{
		"frames": float64(res.frames), "wire_bytes": float64(res.wireBytes),
		"request_bytes":     float64(len(e.in.body)),
		"plan_cache_hits":   float64(cache1.Hits - cache0.Hits),
		"plan_cache_misses": float64(cache1.Misses - cache0.Misses),
	})

	elapsed := stopwatch()
	if err := r.engineOp(); err != nil {
		return fmt.Errorf("engine replay %d: %w", op, err)
	}
	es := t.record("engine.stream", op, root, elapsed(), nil)

	run, err := r.coreOp(r.options(), e.in.spec.standing)
	if err != nil {
		return fmt.Errorf("core replay %d: %w", op, err)
	}
	cs := t.record("core.run", op, es, run.d, run.counts)

	rows, d, err := r.drainSources()
	if err != nil {
		return err
	}
	t.record("source.drain", op, cs, d, map[string]float64{"rows": rows})

	// One optimizer call is timed; calls says how often the op makes it
	// (none on a plan-cache hit that never polls), so the span covers
	// calls × its duration of core.run.
	elapsed = stopwatch()
	if err := r.optimize(); err != nil {
		return err
	}
	t.record("opt.optimize", op, cs, elapsed(), map[string]float64{"calls": run.counts["opt_calls"]})

	// Side measurements: the same query through core without what the
	// workload adds, so the addition can be read as a difference.
	side, o := "", r.options()
	switch {
	case e.in.spec.standing:
		side = "core.run_without_deltas"
	case e.in.spec.partitions > 1:
		side, o.Partitions = "core.run_serial", 1
	default:
		return nil
	}
	run, err = r.coreOp(o, false)
	if err != nil {
		return err
	}
	t.record(side, op, -1, run.d, nil)
	return nil
}
