// Package server exposes the adaptive query engine as a network service:
// an HTTP server streaming Engine.Stream over the wire. POST /v1/query
// streams result rows as NDJSON frames with a trailing report (or error)
// frame, GET /v1/query/{id}/events forwards the run's adaptive-execution
// events as server-sent events, and /healthz + /metrics serve operations.
//
// Production plumbing lives here too: an admission controller with a
// bounded wait queue (scheduler.go), per-query partition/deadline/row
// budgets, a plan cache keyed on query-shape fingerprints so repeated
// queries skip the optimizer, and graceful drain — stop admitting, let
// in-flight cursors finish, bounded by a drain timeout.
//
// The wire protocol is documented in docs/wire-protocol.md and the
// operational surface in docs/operations.md; cmd/adpserve is the
// deployable binary over the TPC-H workload.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Config tunes the query service. Zero values take the documented
// defaults (docs/operations.md has the full tuning guide).
type Config struct {
	// MaxConcurrent is the number of queries executing at once
	// (default 8). Everything above it waits in the admission queue.
	MaxConcurrent int
	// QueueDepth bounds the admission queue (default 32); queries
	// arriving beyond it are rejected with HTTP 429.
	QueueDepth int
	// QueueTimeout bounds how long an admitted-but-waiting query may
	// queue before being rejected with HTTP 503 (default 5s).
	QueueTimeout time.Duration
	// DefaultDeadline bounds a query's execution wall-clock time when
	// the request does not set deadline_ms (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline caps request-supplied deadlines (0 = uncapped).
	MaxDeadline time.Duration
	// MaxPartitions is the per-query partition budget: requests asking
	// for more are clamped (default 8).
	MaxPartitions int
	// MaxRowsPerQuery is the per-query result-row budget — the memory
	// and bandwidth bound of one stream. A query exceeding it is
	// terminated with a resource_exhausted error frame (0 = unlimited).
	MaxRowsPerQuery int64
	// DrainTimeout bounds graceful drain (default 10s); Shutdown uses
	// it when the caller's context carries no deadline.
	DrainTimeout time.Duration
	// PlanCacheSize bounds the plan cache (entries): 0 uses the engine
	// default, negative disables plan caching.
	PlanCacheSize int
	// RetainQueries is how many completed queries keep their event logs
	// available to /v1/query/{id}/events (default 64).
	RetainQueries int
	// SourcePolicies, when set, is the fault-recovery policy table
	// (relation → retry/backoff/failover) applied to every query. The
	// wire protocol intentionally does not let clients pick policies;
	// fault handling is an operator decision (docs/operations.md).
	SourcePolicies map[string]source.RetryPolicy
}

func (c *Config) defaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxPartitions <= 0 {
		c.MaxPartitions = 8
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.RetainQueries <= 0 {
		c.RetainQueries = 64
	}
}

// Server is the adaptive query service over one engine. Create with New,
// mount as an http.Handler, and call Shutdown (or Drain) on SIGTERM.
// Safe for concurrent use; the engine's catalog must not be mutated
// while the server is running (every query opens fresh providers).
type Server struct {
	eng      *engine.Engine
	cfg      Config
	prepared map[string]*algebra.Query
	sched    *scheduler
	met      *metrics
	cache    *engine.PlanCache
	mux      *http.ServeMux
	reg      *queryRegistry
	// bufs holds idle ndjsonWriter buffers, sized to the execution slots:
	// the most writers live at once.
	bufs     chan []byte
	draining atomic.Bool
	idSeq    atomic.Int64
}

// New creates a query service over eng.
func New(eng *engine.Engine, cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		prepared: map[string]*algebra.Query{},
		sched:    newScheduler(cfg.MaxConcurrent, cfg.QueueDepth, cfg.QueueTimeout),
		met:      &metrics{},
		mux:      http.NewServeMux(),
		reg:      newQueryRegistry(cfg.RetainQueries),
		bufs:     make(chan []byte, cfg.MaxConcurrent),
	}
	if cfg.PlanCacheSize >= 0 {
		s.cache = engine.NewPlanCache(cfg.PlanCacheSize)
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/standing", s.handleStanding)
	s.mux.HandleFunc("GET /v1/query/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// RegisterPrepared registers a named query invocable over the wire as
// {"query":{"prepared":"<name>"}}. Not safe to call once serving.
func (s *Server) RegisterPrepared(name string, q *algebra.Query) {
	s.prepared[name] = q
}

func (s *Server) preparedNames() []string {
	out := make([]string, 0, len(s.prepared))
	for n := range s.prepared {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether the server has stopped admitting queries.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admitting new queries and blocks until every in-flight
// query has finished streaming, or ctx expires — in-flight cursors are
// never cut off by Drain itself, so a drained server has lost zero rows.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.sched.drainWait(ctx)
}

// Shutdown is Drain bounded by Config.DrainTimeout when ctx has no
// deadline of its own — the SIGTERM entry point.
func (s *Server) Shutdown(ctx context.Context) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}
	return s.Drain(ctx)
}

// PlanCacheStats exposes the plan cache counters (zero when disabled).
func (s *Server) PlanCacheStats() engine.PlanCacheStats {
	if s.cache == nil {
		return engine.PlanCacheStats{}
	}
	return s.cache.Stats()
}

// ---- Handlers ------------------------------------------------------------

// maxRequestBytes bounds a query-request body.
const maxRequestBytes = 1 << 20

// firstWriteBytes and writeBytes pace a stream's row writes (send): its
// first row frames go out at the first frame boundary past firstWriteBytes,
// so the first rows never wait for a long batch to be encoded; after that a
// batch goes out at its end, and mid-batch only past writeBytes.
const (
	firstWriteBytes = 8 << 10
	writeBytes      = 64 << 10
)

// A stream's row buffer starts at newBufBytes and grows by append to what
// its batches need (a little past writeBytes). done keeps it for the next
// query unless an outsize frame grew it past keepBufBytes. The buffers wait
// in a channel rather than a sync.Pool: a Pool puts a buffer in the
// releasing P's private slot, which a query starting on another P cannot
// take, so a query often grew a fresh one.
const (
	newBufBytes  = 2 * firstWriteBytes
	keepBufBytes = 4 * writeBytes
)

// admission is one request validated and holding an execution slot until
// release: the query, its options, and a context carrying its deadline.
type admission struct {
	q       *algebra.Query
	o       core.Options
	ctx     context.Context
	release func()
}

// admit takes a streaming request from the socket to an execution slot:
// refuse while draining, decode the body into req (bounded, unknown fields
// rejected), build the query and options from its spec and ro parts, run the
// endpoint's own validate over them (nil = none), clamp the deadline, and
// claim a slot or shed load. A request that does not make it has been
// answered with its error envelope (ok false); every reject is counted here.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, req any, spec *QuerySpec, ro *RunOptions, validate func(core.Options) error) (a admission, ok bool) {
	if s.draining.Load() {
		s.met.queriesRejected.Add(1)
		s.reject(w, WireError{Code: CodeDraining, HTTPStatus: http.StatusServiceUnavailable,
			Message: "server is draining; not admitting new queries"})
		return a, false
	}
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), req); err != nil {
		s.badRequest(w, "bad request body: "+err.Error())
		return a, false
	}
	q, err := s.buildQuery(*spec)
	if err == nil {
		a.o, err = s.buildOptions(*ro)
	}
	if err == nil && validate != nil {
		err = validate(a.o)
	}
	if err != nil {
		s.badRequest(w, err.Error())
		return a, false
	}
	deadline := time.Duration(ro.DeadlineMillis) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	if err := s.sched.acquire(r.Context()); err != nil {
		s.met.queriesRejected.Add(1)
		switch {
		case errors.Is(err, errQueueFull):
			s.reject(w, WireError{Code: CodeAdmissionRejected, HTTPStatus: http.StatusTooManyRequests,
				Message: "execution slots busy and admission queue full"})
		case errors.Is(err, errQueueTimeout):
			s.reject(w, WireError{Code: CodeQueueTimeout, HTTPStatus: http.StatusServiceUnavailable,
				Message: "timed out waiting for an execution slot"})
		default: // client went away while queued
			s.reject(w, WireError{Code: CodeCanceled, HTTPStatus: 499, Message: err.Error()})
		}
		return a, false
	}
	s.met.queriesTotal.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	a.q, a.ctx, a.release = q, ctx, func() {
		cancel()
		s.sched.release()
	}
	return a, true
}

// decodeBody decodes the first JSON value of a request body into req,
// refusing unknown fields.
func decodeBody(body io.Reader, req any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// badRequest rejects a request the client got wrong.
func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.reject(w, WireError{Code: CodeInvalidRequest, HTTPStatus: http.StatusBadRequest, Message: msg})
}

// ndjsonWriter is the response side of a streaming endpoint: the run's
// registration for the events endpoint, the schema frame, row or update
// frames encoded into a pooled buffer and written a batch at a time (send),
// the per-query budget on those frames, and the terminal frame.
type ndjsonWriter struct {
	s       *Server
	w       http.ResponseWriter
	flusher http.Flusher
	r       run
	rec     *queryRecord
	buf     []byte // from s.bufs, taken by begin and returned by done
	writeAt int    // buffered bytes that trigger a mid-batch write
	frames  int64  // row/update frames encoded so far
	budget  int64  // Config.MaxRowsPerQuery (0 = unlimited)
	// drained marks the cursor read to its end: no goroutines remain, and
	// done skips the Close that tears a run down on every earlier exit, so
	// live event subscriptions (SSE) are not truncated at the tail.
	drained bool
}

// begin registers the live run under a fresh id for the events endpoint
// (until the deferred done), waits for its schema, and opens the NDJSON
// response with the headers and the schema frame. Schema blocks until the
// run announces output columns — or, if the run died first (validation
// passed but execution failed at once), returns nil with the run finished:
// next drains the cursor and the failure gets a real HTTP error status.
func (s *Server) begin(w http.ResponseWriter, query string, r run, next func() bool, what string) (nw *ndjsonWriter, ok bool) {
	id := fmt.Sprintf("q-%d", s.idSeq.Add(1))
	nw = &ndjsonWriter{s: s, w: w, r: r, rec: s.reg.add(id, r), budget: s.cfg.MaxRowsPerQuery}
	schema := r.Schema()
	if schema == nil {
		for next() {
		}
		err := r.Err()
		if err == nil {
			err = errors.New(what + " produced no schema")
		}
		s.met.queriesFailed.Add(1)
		s.countTerminal(err)
		s.reject(w, mapError(err, 0))
		return nw, false
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Adp-Query-Id", id)
	nw.flusher, _ = w.(http.Flusher)
	select {
	case nw.buf = <-s.bufs:
	default:
		nw.buf = make([]byte, 0, newBufBytes)
	}
	nw.writeAt = firstWriteBytes
	nw.write(mustJSON(schemaFrame{Type: "schema", ID: id, Query: query, Columns: wireSchema(schema)}))
	return nw, true
}

// done releases the run: torn down unless drained, then retired to the
// registry's retain window; the buffer is kept as grown for the next query.
func (nw *ndjsonWriter) done() {
	if !nw.drained {
		nw.r.Close()
	}
	nw.s.reg.markDone(nw.rec)
	if nw.buf != nil && cap(nw.buf) <= keepBufBytes {
		select {
		case nw.s.bufs <- nw.buf[:0]:
		default:
		}
	}
}

// write sends b and flushes it to the client.
func (nw *ndjsonWriter) write(b []byte) {
	nw.w.Write(b)
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
}

// fit counts n more frames against the budget and returns how many of them
// it admits. The query fails when row budget+1 arrives, so a result of
// exactly budget rows fits.
func (nw *ndjsonWriter) fit(n int) int {
	if left := nw.budget - nw.frames; nw.budget > 0 && int64(n) > left {
		n = int(left)
	}
	nw.frames += int64(n)
	return n
}

// send encodes one batch the cursor lent — enc appends frame i of its n —
// and has written all of it to the client when it returns, followed by tail
// (the standing stream's watermark frame; nil for none) if the whole batch
// fit the row budget; over reports that it did not. The first row write of
// a stream goes out at the first frame boundary past firstWriteBytes; after
// that a batch is written at its end, and mid-batch only past writeBytes.
func (nw *ndjsonWriter) send(n int, enc func(buf []byte, i int) []byte, tail []byte) (over bool) {
	fit, buf := nw.fit(n), nw.buf
	for i := 0; i < fit; i++ {
		if buf = enc(buf, i); len(buf) >= nw.writeAt {
			nw.write(buf)
			buf, nw.writeAt = buf[:0], writeBytes
		}
	}
	if over = fit < n; !over {
		buf = append(buf, tail...)
	}
	if len(buf) > 0 {
		nw.write(buf)
		nw.writeAt = writeBytes
	}
	nw.buf = buf[:0]
	return over
}

// end terminates the stream (send left nothing buffered): an error frame if
// the frames ran into the budget — what describes it — or the run ended in
// an error, else the run's report.
func (nw *ndjsonWriter) end(over bool, what, planCache string) {
	met := nw.s.met
	met.rowsDelivered.Add(nw.frames)
	if over {
		met.budgetRowsExhausted.Add(1)
		met.queriesFailed.Add(1)
		nw.write(mustJSON(errorFrame{Type: "error", Error: WireError{
			Code: CodeResourceExhausted, HTTPStatus: http.StatusTooManyRequests,
			Message:       fmt.Sprintf(what, nw.budget),
			RowsDelivered: nw.frames,
		}}))
		return
	}
	if err := nw.r.Err(); err != nil {
		met.queriesFailed.Add(1)
		nw.s.countTerminal(err)
		nw.write(mustJSON(errorFrame{Type: "error", Error: mapError(err, nw.frames)}))
		return
	}
	rep, _ := nw.r.Report()
	met.planSwitches.Add(int64(rep.Switches + rep.MaintSwitches))
	met.sourceFaults.Add(int64(len(rep.SourceFaults)))
	met.deltaRows.Add(rep.DeltaRows)
	if rep.Partial {
		met.partialResults.Add(1)
	}
	nw.write(mustJSON(reportFrame{Type: "report", Report: wireReport(rep, planCache)}))
}

// handleQuery runs POST /v1/query: admission, execution, NDJSON stream.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	a, ok := s.admit(w, r, &req, &req.Query, &req.Options, nil)
	if !ok {
		return
	}
	defer a.release()

	// Plan cache: same query shape, same initial plan, optimizer skipped.
	// PlanPartition re-optimizes mid-run by design and bypasses the cache.
	planCache := ""
	if s.cache != nil && a.o.Strategy != core.PlanPartition {
		if s.cache.Lookup(engine.Fingerprint(a.q, a.o), &a.o) {
			planCache = "hit"
			s.met.planCacheHits.Add(1)
		} else {
			planCache = "miss"
			s.met.planCacheMisses.Add(1)
		}
	}

	execStart := time.Now()
	st, err := s.eng.Stream(a.ctx, a.q, engine.WithOptions(a.o))
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	nw, ok := s.begin(w, a.q.Name, st, func() bool { _, ok := st.NextBatch(); return ok }, "query")
	defer nw.done()
	if !ok {
		return
	}

	// Row streaming: rows are read on the batches the run lends the cursor
	// (nothing is copied between the root join's output and this encode)
	// and encode into the writer's buffer (AppendRowFrame is allocation-free),
	// which is on the wire before the next batch is awaited.
	over := false
	for !over {
		batch, ok := st.NextBatch()
		if !ok {
			break
		}
		if nw.frames == 0 {
			s.met.firstRowMicros.Store(time.Since(execStart).Microseconds())
		}
		over = nw.send(len(batch), func(buf []byte, i int) []byte { return AppendRowFrame(buf, batch[i]) }, nil)
	}
	nw.drained = !over // else done cancels the run; remaining rows are discarded
	nw.end(over, "query exceeded the per-query row budget (%d rows)", planCache)
}

// handleStanding runs POST /v1/standing: admission, an initial run plus
// incremental maintenance against the request's delta scripts, and an
// NDJSON stream of signed update frames punctuated by watermark frames.
// The baseline window (seq 0) asserts the initial result, so a client
// folding update frames from empty always holds the maintained view.
// Standing queries bypass the plan cache.
func (s *Server) handleStanding(w http.ResponseWriter, r *http.Request) {
	req, spec, ro, scripts := s.standingBody()
	var deltas map[string][]source.Delta
	a, ok := s.admit(w, r, req, spec, ro, func(o core.Options) (err error) {
		if o.Strategy == core.PlanPartition {
			return errors.New("strategy planpart cannot maintain a standing query (use static or corrective)")
		}
		deltas, err = scripts.resolve()
		return err
	})
	if !ok {
		return
	}
	defer a.release()
	s.met.standingInflight.Add(1)
	defer s.met.standingInflight.Add(-1)

	sq, err := s.eng.RegisterStanding(a.ctx, a.q, deltas, engine.WithOptions(a.o))
	if err != nil {
		s.badRequest(w, err.Error())
		return
	}
	nw, ok := s.begin(w, a.q.Name, sq, func() bool { _, ok := sq.NextWindow(); return ok }, "standing query")
	defer nw.done()
	if !ok {
		return
	}

	// Update streaming: each watermark window writes its signed update
	// frames (allocation-free encode) and closes with a watermark frame;
	// the first, the baseline, is the initial result. The per-query row
	// budget bounds update frames.
	over := false
	for !over {
		win, ok := sq.NextWindow()
		if !ok {
			break
		}
		over = nw.send(len(win.Updates), func(buf []byte, i int) []byte {
			u := win.Updates[i]
			return AppendUpdateFrame(buf, u.Row, u.Sign)
		}, mustJSON(watermarkFrame{
			Type: "watermark", Seq: win.Watermark.Seq, Updates: win.Watermark.Updates,
			DeltaRows: win.Watermark.DeltaRows, VirtualSeconds: win.Watermark.VirtualSeconds,
		}))
	}
	nw.drained = !over && sq.Err() == nil
	nw.end(over, "standing query exceeded the per-query row budget (%d update frames)", "")
}

// mustJSON marshals a frame and appends the NDJSON newline; frames are
// plain structs, so marshaling cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte("{}\n")
	}
	return append(b, '\n')
}

// countTerminal bumps the per-cause failure counters.
func (s *Server) countTerminal(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.met.deadlinesExceeded.Add(1)
	}
}

// handleEvents serves GET /v1/query/{id}/events as server-sent events:
// the run's full event log replays from the start (subscriptions never
// miss the narrative), then follows the live run until it finishes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		s.reject(w, WireError{Code: CodeNotFound, HTTPStatus: http.StatusNotFound,
			Message: "unknown query id (completed queries are retained for a bounded window)"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	ch := rec.events()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			name, data := eventWire(ev)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			// The client is gone; drain the subscription so the stream's
			// forwarder goroutine (which blocks on delivery) can exit.
			go func() {
				for range ch {
				}
			}()
			return
		}
	}
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight queries finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"status":"draining"}` + "\n"))
		return
	}
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// handleMetrics serves the counter set in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var draining int64
	if s.draining.Load() {
		draining = 1
	}
	var cacheSize int64
	if s.cache != nil {
		cacheSize = int64(s.cache.Stats().Size)
	}
	s.met.write(w, []metricPoint{
		{"adp_queries_inflight", "Queries currently executing.", "gauge", s.sched.Inflight()},
		{"adp_queries_queued", "Queries waiting in the admission queue.", "gauge", s.sched.Queued()},
		{"adp_draining", "1 while the server drains (not admitting).", "gauge", draining},
		{"adp_plan_cache_size", "Plans currently cached.", "gauge", cacheSize},
	})
}

// reject writes a non-2xx error envelope.
func (s *Server) reject(w http.ResponseWriter, we WireError) {
	w.Header().Set("Content-Type", "application/json")
	status := we.HTTPStatus
	if status == 0 {
		status = http.StatusInternalServerError
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: we})
}

// ---- Query registry ------------------------------------------------------

// queryRegistry tracks queries by id for the events endpoint: live
// queries expose their stream's replayable subscription; completed ones
// keep an event-log snapshot (bounded to the retain window) after the
// stream — and its report memory — is dropped.
type queryRegistry struct {
	mu     sync.Mutex
	byID   map[string]*queryRecord
	doneQ  []string // completed ids, oldest first
	retain int
}

// run is what the request pipeline needs from a live execution — the
// registry its replayable event subscription, the response its schema, its
// terminal error or report, and its teardown. Both *engine.Stream and
// *engine.StandingQuery provide it.
type run interface {
	Events() <-chan core.Event
	Schema() *types.Schema
	Err() error
	Report() (*core.Report, error)
	Close() error
}

type queryRecord struct {
	id string

	mu     sync.Mutex
	stream run          // nil once done
	log    []core.Event // snapshot once done
}

func newQueryRegistry(retain int) *queryRegistry {
	return &queryRegistry{byID: map[string]*queryRecord{}, retain: retain}
}

func (r *queryRegistry) add(id string, st run) *queryRecord {
	rec := &queryRecord{id: id, stream: st}
	r.mu.Lock()
	r.byID[id] = rec
	r.mu.Unlock()
	return rec
}

// markDone snapshots the finished stream's event log, releases the
// stream (and the lent row batches it owns), and evicts the oldest
// completed records beyond the retain window.
func (r *queryRegistry) markDone(rec *queryRecord) {
	rec.mu.Lock()
	if st := rec.stream; st != nil {
		var log []core.Event
		for ev := range st.Events() { // finished log: a closed snapshot channel
			log = append(log, ev)
		}
		rec.log = log
		rec.stream = nil
	}
	rec.mu.Unlock()

	r.mu.Lock()
	r.doneQ = append(r.doneQ, rec.id)
	for len(r.doneQ) > r.retain {
		delete(r.byID, r.doneQ[0])
		r.doneQ = r.doneQ[1:]
	}
	r.mu.Unlock()
}

func (r *queryRegistry) get(id string) (*queryRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.byID[id]
	return rec, ok
}

// events returns a replay-from-start subscription: the live stream's
// Events channel while running, a preloaded snapshot once done.
func (rec *queryRecord) events() <-chan core.Event {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.stream != nil {
		return rec.stream.Events()
	}
	ch := make(chan core.Event, len(rec.log))
	for _, ev := range rec.log {
		ch <- ev
	}
	close(ch)
	return ch
}
