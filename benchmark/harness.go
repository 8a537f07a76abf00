package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/server"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/workload"
)

// warmupOps is how many ops a set-up runs before it counts as ready: the
// first is captured whole and folded against the reference, the rest
// fill the plan cache, grow the heap to its working size and make
// setup_s seconds long rather than a blip.
const warmupOps = 10

// stopwatch returns a function reporting the time since the call.
func stopwatch() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}

// env is one booted system under test: the engine behind
// internal/server on a loopback TCP listener, the client, and the
// reference its answers are checked against.
type env struct {
	in      *inputs
	ref     *reference
	eng     *engine.Engine
	svc     *server.Server
	httpSrv *http.Server
	served  chan error
	client  *client
	// validated holds the byte digests of bodies that folded to the
	// reference, with their frame counts: a measured op whose digest is
	// here needs no parsing.
	validated map[uint64]int
	// keepBodies makes the client keep each op's frames so that a body
	// with a new digest can be folded; off for bodies over keepLimit,
	// which are byte-deterministic (static, serial).
	keepBodies bool
	// oracleAlloc is what validate has allocated, which measure takes out
	// of alloc_mb_per_op: parsing a body is the harness's work.
	oracleAlloc uint64
}

// keepLimit is the largest body the client copies on every op.
const keepLimit = 4 << 20

// setup makes the inputs from the seed and brings the system to ready:
// datagen, registration, reference answers, server boot, warm-up ops.
func setup(sp *spec, seed int64, quick bool) (*env, error) {
	in, err := newInputs(sp, seed, quick)
	if err != nil {
		return nil, err
	}
	e := &env{in: in, validated: map[uint64]int{}}
	e.eng = engine.New()
	for name, rel := range in.data.Relations() {
		if sp.wireless {
			e.eng.RegisterRemote(rel, wirelessLink(rel))
		} else {
			e.eng.Register(rel)
		}
		if sp.cards {
			e.eng.AdvertiseCardinality(name, float64(rel.Len()))
		}
	}
	if e.ref, err = newReference(in); err != nil {
		return nil, err
	}

	e.svc = server.New(e.eng, server.Config{})
	for _, q := range workload.All() {
		e.svc.RegisterPrepared(q.Name, q)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.httpSrv = &http.Server{Handler: e.svc}
	e.served = make(chan error, 1)
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	e.client = newClient("http://"+ln.Addr().String()+in.path, in.body)

	warm := warmupOps
	if quick {
		warm = 1
	}
	e.keepBodies = true // the first op is always folded against the reference
	for i := 0; i < warm; i++ {
		if _, _, err := e.run(); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
		if i == 0 && len(e.client.kept) > keepLimit {
			e.keepBodies, e.client.kept = false, nil
		}
	}
	return e, nil
}

// wirelessLink is the bursty link adpserve -wireless puts in front of a
// relation: 1M tuples/s in bursts of 8000 with a mean gap of 10 ms. The
// burst pattern is seeded by the relation alone, not by the run's seed:
// only the data follows --seed, so that virtual_s and alloc_mb_per_op of
// two seeds differ by what the data does to the plan and not by where a
// stall happened to fall.
func wirelessLink(rel *source.Relation) source.Schedule {
	var seed int64
	for _, c := range rel.Name {
		seed = seed*31 + int64(c)
	}
	return source.NewBursty(rel.Len(), 1_000_000, 8000, 0.01, seed)
}

// close drains the service and stops the listener, returning once the
// serve goroutine has exited.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.client.hc.CloseIdleConnections()
	_ = e.svc.Shutdown(ctx)     // drain; nothing is in flight in a closed loop
	_ = e.httpSrv.Shutdown(ctx) // Serve then returns ErrServerClosed
	<-e.served
}

// ---- Client ----------------------------------------------------------------

var (
	rowPrefix    = []byte(`{"type":"row"`)
	updatePrefix = []byte(`{"type":"update"`)
	reportPrefix = []byte(`{"type":"report"`)
	errorPrefix  = []byte(`{"type":"error"`)
)

// client drives the server closed-loop over one keep-alive connection.
// It reads the response a line at a time and tells frames apart by
// their prefix; it never parses a row, so the timings are the server's.
type client struct {
	hc   *http.Client
	url  string
	body []byte
	br   *bufio.Reader
	seed maphash.Seed
	// kept is the last op's row and update frames, when asked for.
	kept []byte
}

func newClient(url string, body []byte) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		url:  url,
		body: body,
		br:   bufio.NewReaderSize(nil, 64<<10),
		seed: maphash.MakeSeed(),
	}
}

// opResult is what the client saw of one op.
type opResult struct {
	firstRow   time.Duration // request write → first row or update frame
	completion time.Duration // request write → terminal report frame
	cycle      time.Duration // request write → body drained, connection free for the next op
	frames     int           // row and update frames
	digest     uint64        // order-insensitive sum of per-frame byte hashes
	wireBytes  int64
	report     []byte
	err        error
}

// do runs one op. keep retains the row and update frames in c.kept for
// the oracle's fold.
func (c *client) do(keep bool) opResult {
	var r opResult
	c.kept = c.kept[:0]
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		r.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return r
	}
	c.br.Reset(resp.Body)
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			if err != io.EOF || len(line) > 0 {
				r.err = fmt.Errorf("reading frame: %w", err)
			}
			break
		}
		r.wireBytes += int64(len(line))
		switch {
		case bytes.HasPrefix(line, rowPrefix), bytes.HasPrefix(line, updatePrefix):
			if r.frames == 0 {
				r.firstRow = time.Since(t0)
			}
			r.frames++
			r.digest += maphash.Bytes(c.seed, line)
			if keep {
				c.kept = append(c.kept, line...)
			}
		case bytes.HasPrefix(line, reportPrefix):
			r.completion = time.Since(t0)
			r.report = append(r.report, line...)
		case bytes.HasPrefix(line, errorPrefix):
			r.err = fmt.Errorf("error frame: %s", bytes.TrimSpace(line))
		}
	}
	r.cycle = time.Since(t0)
	if r.err == nil && r.report == nil {
		r.err = errors.New("stream ended without a report frame")
	}
	if r.frames == 0 {
		r.firstRow = r.completion
	}
	return r
}

// ---- Checking --------------------------------------------------------------

// validate folds the frames kept from op against the reference and,
// when they agree, admits the op's byte digest.
func (e *env) validate(op opResult) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	defer func() {
		runtime.ReadMemStats(&m1)
		e.oracleAlloc += m1.TotalAlloc - m0.TotalAlloc
	}()
	got, err := foldBody(e.ref.schema, e.client.kept)
	if err != nil {
		return err
	}
	if err := got.equal(e.ref.want); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	e.validated[op.digest] = op.frames
	return nil
}

// check decides whether a measured op is correct: its byte digest must
// be one that folded to the reference, and the report frame's counters
// must agree with the frames seen and with the reference. It returns the
// parsed report.
func (e *env) check(op opResult) (*server.WireReport, error) {
	if op.err != nil {
		return nil, op.err
	}
	if n, ok := e.validated[op.digest]; !ok || n != op.frames {
		return nil, fmt.Errorf("oracle: %d frames with an unvalidated digest", op.frames)
	}
	var frame struct {
		Report server.WireReport `json:"report"`
	}
	if err := json.Unmarshal(op.report, &frame); err != nil {
		return nil, fmt.Errorf("report frame: %w", err)
	}
	rep := &frame.Report
	want := int64(len(e.ref.rows))
	switch {
	case !e.in.spec.standing && (rep.Rows != want || int64(op.frames) != want):
		return nil, fmt.Errorf("oracle: %d row frames, report says %d, reference %d", op.frames, rep.Rows, want)
	case e.in.spec.standing && (rep.Updates != int64(op.frames) || rep.MaintainedRows != want ||
		rep.DeltaRows != int64(len(e.in.script)) || rep.DeltaClamped != e.ref.clamped):
		return nil, fmt.Errorf("oracle: report %d updates/%d maintained/%d deltas/%d clamped, want %d/%d/%d/%d",
			rep.Updates, rep.MaintainedRows, rep.DeltaRows, rep.DeltaClamped,
			op.frames, want, len(e.in.script), e.ref.clamped)
	}
	return rep, nil
}

// run does one op and checks it. A kept body whose digest is new is
// folded first: partition merges reorder float adds, so a correct body
// can differ from the last one in the low bits of a sum.
func (e *env) run() (opResult, *server.WireReport, error) {
	op := e.client.do(e.keepBodies)
	if _, seen := e.validated[op.digest]; op.err == nil && !seen && e.keepBodies {
		if err := e.validate(op); err != nil {
			return op, nil, err
		}
	}
	rep, err := e.check(op)
	return op, rep, err
}

// ---- Measuring -------------------------------------------------------------

// window is one measured run of ops.
type window struct {
	attempted, failed    int
	firstRow, completion []float64 // ms, successful ops
	cycle                []float64 // ms, successful ops
	virtual              []float64 // s, from the report frame
	wall                 time.Duration
	cpu                  time.Duration // user + system time of the process over the window
	allocBytes           uint64
	gcCycles             uint32
	gcPause              time.Duration
	steal                float64
	firstErr             error
}

// measure runs ops back to back for the given time (or exactly ops of
// them when ops > 0), untraced. No GC is forced between ops: that would
// reset the heap target and slow every op.
func (e *env) measure(seconds float64, ops int) *window {
	w := &window{}
	var m0, m1 runtime.MemStats
	cpu0, oracle0 := readProcStat(), e.oracleAlloc
	runtime.ReadMemStats(&m0)
	cpuStart := processCPU()
	elapsed := stopwatch()
	for w.attempted == 0 || (ops > 0 && w.attempted < ops) || (ops <= 0 && elapsed().Seconds() < seconds) {
		op, rep, err := e.run()
		w.attempted++
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
			continue
		}
		w.firstRow = append(w.firstRow, ms(op.firstRow))
		w.completion = append(w.completion, ms(op.completion))
		w.cycle = append(w.cycle, ms(op.cycle))
		w.virtual = append(w.virtual, rep.VirtualSeconds)
	}
	w.wall = elapsed()
	w.cpu = processCPU() - cpuStart
	runtime.ReadMemStats(&m1)
	cpu1 := readProcStat()
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc - (e.oracleAlloc - oracle0)
	w.gcCycles = m1.NumGC - m0.NumGC
	w.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	if total := cpu1.total - cpu0.total; total > 0 {
		w.steal = (cpu1.steal - cpu0.steal) / total
	}
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// processCPU is the user and system time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStat is the machine's cumulative CPU time in ticks.
type procStat struct{ total, steal float64 }

// readProcStat reads the aggregate cpu line of /proc/stat; a machine
// without one reports zero steal.
func readProcStat() procStat {
	var st procStat
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return st
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return st
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user … steal; guest time is already inside user
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}
