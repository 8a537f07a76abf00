// Command servesmoke is the `make serve-smoke` driver: it boots a built
// adpserve binary on a random port, runs the full black-box happy path —
// /healthz, a streamed NDJSON query checked frame by frame, the SSE
// events replay, /metrics, a standing query sent with a Content-Length and
// again chunked — then sends SIGTERM and asserts the server drains and
// exits cleanly. It exercises the deployable artifact, not
// the library: a regression in flag parsing, listener bring-up, or
// signal handling fails here even when every unit test passes.
//
// Usage: go run ./scripts/servesmoke -bin bin/adpserve
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"time"
)

func main() {
	bin := flag.String("bin", "bin/adpserve", "path to the built adpserve binary")
	flag.Parse()
	if err := run(*bin); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: ok")
}

func run(bin string) error {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-sf", "0.003", "-max-concurrent", "4")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", bin, err)
	}
	defer cmd.Process.Kill() // no-op if the graceful exit below succeeded

	// The binary prints its bound address once the listener is up.
	addrCh := make(chan string, 1)
	logLines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "adpserve: listening on "); ok {
				addrCh <- rest
			}
			select {
			case logLines <- line:
			default:
			}
		}
		close(logLines)
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server did not announce its listen address within 30s")
	}

	if err := checkHealthz(base); err != nil {
		return err
	}
	if err := checkQueryStream(base); err != nil {
		return err
	}
	if err := checkEvents(base); err != nil {
		return err
	}
	if err := checkMetrics(base); err != nil {
		return err
	}
	if err := checkStanding(base); err != nil {
		return err
	}

	// Graceful shutdown: SIGTERM must drain and exit 0. Read the log
	// scanner to EOF *before* calling Wait — Wait closes the stdout pipe
	// when the process exits, and calling it while the scanner is
	// mid-read races the final log lines away.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	drained := false
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		for line := range logLines {
			if strings.Contains(line, "drained") {
				drained = true
			}
		}
	}()
	select {
	case <-scanDone:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server did not exit within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("server exited non-zero after SIGTERM: %w", err)
	}
	if !drained {
		return fmt.Errorf("server exited without logging a completed drain")
	}
	return nil
}

func checkHealthz(base string) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if body.Status != "ok" {
		return fmt.Errorf("healthz: status %q, want ok", body.Status)
	}
	return nil
}

// checkQueryStream streams a prepared corrective query and validates the
// NDJSON framing: exactly one schema frame first, row frames with the
// schema's arity, one terminal report frame, nothing after it.
func checkQueryStream(base string) error {
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(
		`{"query":{"prepared":"Q3A"},"options":{"strategy":"corrective","partitions":2}}`))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("query: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return fmt.Errorf("query: content-type %q", ct)
	}
	if resp.Header.Get("Adp-Query-Id") == "" {
		return fmt.Errorf("query: missing Adp-Query-Id header")
	}
	var (
		arity, rows int
		sawSchema   bool
		sawReport   bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if sawReport {
			return fmt.Errorf("query: frame after the terminal report frame: %.80s", sc.Text())
		}
		var frame struct {
			Type    string            `json:"type"`
			Columns []json.RawMessage `json:"columns"`
			Values  []json.RawMessage `json:"values"`
			Report  *struct {
				Rows      int    `json:"rows"`
				PlanCache string `json:"plan_cache"`
			} `json:"report"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			return fmt.Errorf("query: bad frame %.80s: %w", sc.Text(), err)
		}
		switch frame.Type {
		case "schema":
			if sawSchema {
				return fmt.Errorf("query: duplicate schema frame")
			}
			sawSchema = true
			arity = len(frame.Columns)
		case "row":
			if !sawSchema {
				return fmt.Errorf("query: row frame before schema frame")
			}
			if len(frame.Values) != arity {
				return fmt.Errorf("query: row arity %d, schema arity %d", len(frame.Values), arity)
			}
			rows++
		case "report":
			sawReport = true
			if frame.Report == nil || frame.Report.Rows != rows {
				return fmt.Errorf("query: report rows mismatch (streamed %d)", rows)
			}
			if frame.Report.PlanCache != "miss" {
				return fmt.Errorf("query: first run plan_cache = %q, want miss", frame.Report.PlanCache)
			}
		default:
			return fmt.Errorf("query: unexpected frame type %q", frame.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !sawSchema || !sawReport || rows == 0 {
		return fmt.Errorf("query: incomplete stream (schema=%v rows=%d report=%v)", sawSchema, rows, sawReport)
	}
	fmt.Printf("servesmoke: streamed %d rows\n", rows)
	return nil
}

func checkEvents(base string) error {
	resp, err := http.Get(base + "/v1/query/q-1/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			events++
		}
	}
	if events == 0 {
		return fmt.Errorf("events: no SSE events replayed")
	}
	fmt.Printf("servesmoke: replayed %d events\n", events)
	return nil
}

func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	want := map[string]bool{"adp_queries_total 1": false, "adp_queries_inflight 0": false}
	for sc.Scan() {
		if _, ok := want[sc.Text()]; ok {
			want[sc.Text()] = true
		}
	}
	for line, seen := range want {
		if !seen {
			return fmt.Errorf("metrics: missing %q", line)
		}
	}
	return nil
}

// standingBody is a small standing query: the orders with keys below 3,
// maintained against an insert, its retraction and a second insert.
const standingBody = `{"query":{"relations":["orders"],"select":["orders.o_orderkey"],
	"filters":[{"col":"orders.o_orderkey","op":"<","value":3}]},
	"deltas":{"orders":[
		{"at":0.001,"sign":1,"row":[1,1,"O",10.5,1000,0]},
		{"at":0.002,"sign":-1,"row":[1,1,"O",10.5,1000,0]},
		{"at":0.003,"sign":1,"row":[2,7,"F",99.25,1200,1]}]},
	"options":{"strategy":"static","poll_every":1}}`

// runVaries matches what differs between two runs of one standing query:
// the query id in its schema frame and the wall time in its report.
var runVaries = regexp.MustCompile(`"id":"q-[0-9]+"|"real_seconds":[-+.0-9eE]+`)

// checkStanding posts standingBody once with a Content-Length and once
// chunked. Each response must hold the baseline watermark (seq 0), at
// least one later watermark and a terminal report frame, and the two must
// be the same bytes but for runVaries.
func checkStanding(base string) error {
	var bodies [2]string
	for i, chunked := range []bool{false, true} {
		var body io.Reader = strings.NewReader(standingBody)
		if chunked {
			body = io.MultiReader(body) // of no known length: sent chunked
		}
		resp, err := http.Post(base+"/v1/standing", "application/json", body)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("standing (chunked=%v): status %d: %.200s", chunked, resp.StatusCode, b)
		}
		seqs, report := []int{}, false
		for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
			var frame struct {
				Type string `json:"type"`
				Seq  int    `json:"seq"`
			}
			if err := json.Unmarshal([]byte(line), &frame); err != nil {
				return fmt.Errorf("standing (chunked=%v): bad frame %.80s: %w", chunked, line, err)
			}
			switch frame.Type {
			case "watermark":
				seqs = append(seqs, frame.Seq)
			case "report":
				report = true
			}
		}
		if len(seqs) < 2 || seqs[0] != 0 || !report {
			return fmt.Errorf("standing (chunked=%v): watermarks %v, report %v; want seq 0, a later one and a report", chunked, seqs, report)
		}
		bodies[i] = runVaries.ReplaceAllString(string(b), "")
	}
	if bodies[0] != bodies[1] {
		return fmt.Errorf("standing: chunked response differs:\n%s\nwant\n%s", bodies[1], bodies[0])
	}
	fmt.Printf("servesmoke: standing query streamed the same %d bytes sent with a length and chunked\n", len(bodies[0]))
	return nil
}
