package main

import (
	"path/filepath"
	"time"
)

// runTraced is the per-layer pass: one set-up, a short untraced window
// for the baseline, then traceOps ops replayed through the layers, the
// span file written and read back, and the kernel probes.
func runTraced(sp *spec, cfg config) (*result, error) {
	e, err := setup(sp, cfg.seed, cfg.quick)
	if err != nil {
		return nil, err
	}
	defer e.close()
	ops, traced := 0, traceOps
	if cfg.quick {
		ops, traced = 3, 3
	}
	w := e.measure(cfg.seconds/4, ops)

	r := newReplayer(e)
	// The warm-up filled the server's plan cache; fill the replays' too.
	if err := r.engineOp(); err != nil {
		return nil, err
	}
	t := &tracer{t0: time.Now()}
	for op := 0; op < traced; op++ {
		if err := r.traceOp(t, op); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(cfg.outDir, "trace_"+sp.name+".json")
	if err := t.write(path, sp.name, cfg.seed); err != nil {
		return nil, err
	}
	tf, err := loadTrace(path)
	if err != nil {
		return nil, err
	}
	probes, err := kernelProbes(e, probeReps(cfg.quick))
	if err != nil {
		return nil, err
	}

	res := &result{workload: sp.name, attempted: w.attempted + traced, failed: w.failed, firstErr: w.firstErr}
	res.metrics = layerMetrics(tf, e, w, probes)
	return res, nil
}

// layerMetrics computes the per-layer metrics from the span file, the
// untraced window and the probes. Span times
// are medians over the traced ops; self times are differences of those
// medians, so server.self_ms + engine.self_ms + core.self_ms +
// source.drain_ms + opt.optimize_us × opt.calls add up to server.op_ms.
func layerMetrics(tf *traceFile, e *env, w *window, probes []metric) []metric {
	sp := e.in.spec
	opMs := median(tf.durations("server.op"))
	streamMs := median(tf.durations("engine.stream"))
	runMs := median(tf.durations("core.run"))
	drainMs := median(tf.durations("source.drain"))
	optUs := median(tf.durations("opt.optimize")) * 1e3
	optCalls := tf.count("opt.optimize", "calls")
	core := func(key string) float64 { return tf.count("core.run", key) }

	var hits, misses float64
	for _, s := range tf.Spans {
		hits += s.Counts["plan_cache_hits"]
		misses += s.Counts["plan_cache_misses"]
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rows := tf.count("source.drain", "rows")

	// Only the standing workload maintains and only the partitioned one
	// has a serial twin; elsewhere those metrics are not exercised.
	maint := metric{name: "core.maint_ms", unit: "ms", na: !sp.standing}
	perDelta := metric{name: "core.ns_per_delta", unit: "ns", na: !sp.standing}
	clamped := metric{name: "core.delta_clamped", unit: "count", na: !sp.standing}
	updates := metric{name: "core.updates", unit: "count", na: !sp.standing}
	serial := metric{name: "core.serial_run_ms", unit: "ms", na: sp.partitions < 2}
	speedup := metric{name: "core.par_speedup", unit: "ratio", na: sp.partitions < 2}
	if sp.standing {
		maint.value = runMs - median(tf.durations("core.run_without_deltas"))
		perDelta.value = ratio(maint.value*1e6, core("delta_rows"))
		clamped.value = core("delta_clamped")
		updates.value = core("updates")
	}
	if sp.partitions > 1 {
		serial.value = median(tf.durations("core.run_serial"))
		speedup.value = ratio(serial.value, runMs)
	}

	datagenRows := 0
	for _, rel := range e.in.data.Relations() {
		datagenRows += rel.Len()
	}

	out := []metric{
		{name: "server.op_ms", value: opMs, unit: "ms"},
		{name: "server.self_ms", value: opMs - streamMs, unit: "ms"},
		{name: "server.wire_bytes_per_op", value: tf.count("server.op", "wire_bytes"), unit: "B"},
		{name: "server.request_bytes", value: tf.count("server.op", "request_bytes"), unit: "B"},
		{name: "server.plan_cache_hit_ratio", value: ratio(hits, hits+misses), unit: "ratio"},
		{name: "engine.stream_ms", value: streamMs, unit: "ms"},
		{name: "engine.self_ms", value: streamMs - runMs, unit: "ms"},
		{name: "core.run_ms", value: runMs, unit: "ms"},
		{name: "core.self_ms", value: runMs - drainMs - optUs*optCalls/1e3, unit: "ms"},
		{name: "core.polls", value: core("polls"), unit: "count"},
		{name: "core.switches", value: core("switches"), unit: "count"},
		{name: "core.phases", value: core("phases"), unit: "count"},
		{name: "core.stitch_virtual_s", value: core("stitch_virtual_s"), unit: "s"},
		{name: "core.stitch_reuse_ratio", value: ratio(core("reused"), core("reused")+core("discarded")), unit: "ratio"},
		{name: "core.cpu_virtual_s", value: core("cpu_virtual_s"), unit: "s"},
		serial, speedup, maint, perDelta, clamped, updates,
		{name: "opt.optimize_us", value: optUs, unit: "us"},
		{name: "opt.calls", value: optCalls, unit: "count"},
		{name: "source.drain_ms", value: drainMs, unit: "ms"},
		{name: "source.rows", value: rows, unit: "count"},
		{name: "source.ns_per_row", value: ratio(drainMs*1e6, rows), unit: "ns"},
	}
	out = append(out, probes...)
	out = append(out,
		metric{name: "datagen.generate_s", value: e.in.genSeconds, unit: "s"},
		metric{name: "datagen.rows", value: float64(datagenRows), unit: "count"},
		metric{name: "harness.trace_overhead_ratio", value: ratio(opMs, median(w.completion)) - 1, unit: "ratio"},
	)
	return append(out, w.tails()...)
}
