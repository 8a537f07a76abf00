package server

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// spendBody is a standing body over the spjEngine fixture whose deltas,
// drawn from seed, add customers named from the seed (some names with an
// escape or a non-ASCII letter, of every length up to a dozen letters),
// orders joining them, and retractions of some of those orders; last
// closes the orders script. With poll_every 1 every delta makes a window.
func spendBody(seed int64, n int, last ...string) string {
	rng := rand.New(rand.NewSource(seed))
	var cust, orders, placed []string
	for i := 0; i < n; i++ {
		at := float64(i+1) / 64
		id := 1000*(seed+1) + int64(i)
		name := fmt.Sprintf("s%d-%s", seed, strings.Repeat("x", rng.Intn(12)))
		switch i % 5 {
		case 1:
			name += `\"q`
		case 2:
			name += "é"
		}
		order := fmt.Sprintf(`[%d,%d,%g]`, 100000*(seed+1)+int64(i), id, float64(rng.Intn(1000))/8)
		cust = append(cust, fmt.Sprintf(`{"at":%g,"sign":1,"row":[%d,"%s"]}`, at, id, name))
		orders = append(orders, fmt.Sprintf(`{"at":%g,"sign":1,"row":%s}`, at, order))
		if placed = append(placed, order); i%4 == 3 {
			orders = append(orders, fmt.Sprintf(`{"at":%g,"sign":-1,"row":%s}`, at, placed[rng.Intn(len(placed))]))
		}
	}
	orders = append(orders, last...)
	return `{"query":{"name":"spend","relations":["cust","orders"],"joins":[{"left":"orders.cust","right":"cust.id"}],` +
		`"select":["orders.id","cust.name","orders.total"]},"deltas":{"cust":[` + strings.Join(cust, ",") +
		`],"orders":[` + strings.Join(orders, ",") + `]},"options":{"strategy":"static","poll_every":1}}`
}

// realSeconds is the one field of a report frame that reads the wall clock.
var realSeconds = regexp.MustCompile(`"real_seconds":[^,}]*`)

// standingAnswer posts a standing body and returns the status and every
// frame after the schema frame (which carries the query's id), the report's
// wall-clock time blanked.
func standingAnswer(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp := postStanding(t, ts, body)
	defer resp.Body.Close()
	var out strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for first := true; sc.Scan(); first = false {
		if !first || resp.StatusCode != http.StatusOK {
			out.WriteString(realSeconds.ReplaceAllString(sc.Text(), `"real_seconds":0`) + "\n")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.String()
}

// freshAnswer is standingAnswer from a server that has served nothing.
func freshAnswer(t *testing.T, body string) (int, string) {
	t.Helper()
	_, ts, _, _ := newTestServer(t, 200, Config{})
	return standingAnswer(t, ts, body)
}

// countStores has s count the request stores it makes, in the int returned.
func countStores(s *Server) *int {
	made := new(int)
	s.bodies.New = func() *standingBody {
		*made++
		return &standingBody{deltas: deltaScripts{s: s}}
	}
	return made
}

// idleStores returns the stores s holds for the next requests, the one the
// next request takes first, and leaves them there. It fails the test on a
// store given back twice. The GC is off in the tests that call it, so no
// store ages out of the pool.
func idleStores(t *testing.T, s *Server, made *int) []*standingBody {
	t.Helper()
	var idle []*standingBody
	for before := *made; ; {
		st := s.bodies.Get()
		if *made > before {
			*made = before // made for the asking, and dropped
			break
		}
		if slices.Contains(idle, st) {
			t.Fatal("a store was given back twice")
		}
		idle = append(idle, st)
	}
	giveBack(s, idle)
	return idle
}

// giveBack gives stores back to s's pool, the first to be taken first.
func giveBack(s *Server, stores []*standingBody) {
	for i := len(stores) - 1; i >= 0; i-- {
		s.bodies.Put(stores[i])
	}
}

// TestServeStandingRecycledBodies: a request decodes over the storage of
// the one before it — a longer body, other strings — and answers exactly
// as a server that served nothing before; each request gives its store
// back once.
func TestServeStandingRecycledBodies(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, ts, _, _ := newTestServer(t, 200, Config{})
	made := countStores(s)
	for i, body := range []string{spendBody(1, 60), spendBody(2, 35), spendBody(3, 50)} {
		status, got := standingAnswer(t, ts, body)
		wantStatus, want := freshAnswer(t, body)
		if status != http.StatusOK || status != wantStatus || got != want {
			t.Fatalf("request %d: %d\n%s\nwant %d, as a fresh server answers:\n%s", i, status, got, wantStatus, want)
		}
		if idle := idleStores(t, s, made); len(idle) != 1 || *made != 1 {
			t.Fatalf("request %d: %d stores idle of %d made, want the one", i, len(idle), *made)
		}
	}
}

// stallWriter is a ResponseWriter whose client stops reading mid-stream:
// its second write, the first after the schema frame, waits for release.
type stallWriter struct {
	header  http.Header
	writes  int
	stalled chan struct{} // closed when the write waits
	release chan struct{}
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}

func (w *stallWriter) Write(b []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		close(w.stalled)
		<-w.release
	}
	return len(b), nil
}

// TestServeStandingRecycledAfterDisconnect: a request whose client goes
// away mid-stream holds its store until its handler is done — past the
// last frame and the end of its run, which is still publishing windows
// when the client goes — and the next requests, one started at once and
// one on the store it gave back, answer as a fresh server does. Under the
// race detector, a store given back before the run that reads its rows had
// ended would race with the request that writes over them.
func TestServeStandingRecycledAfterDisconnect(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, ts, _, _ := newTestServer(t, 200, Config{})
	made := countStores(s)
	a := s.bodies.Get() // the store the first request takes
	s.bodies.Put(a)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &stallWriter{header: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/standing", strings.NewReader(spendBody(1, 80))).WithContext(ctx))
	}()
	<-w.stalled
	if idle := idleStores(t, s, made); len(idle) != 0 {
		t.Fatalf("%d stores idle mid-stream, want none: the stalled request holds its own", len(idle))
	}
	cancel()
	close(w.release)

	next := []string{spendBody(2, 40), spendBody(3, 25)}
	status, got := standingAnswer(t, ts, next[0]) // while the first request winds down
	<-served
	idle := idleStores(t, s, made)
	if len(idle) != *made || *made > 2 {
		t.Fatalf("%d stores idle of %d made, want every store back once", len(idle), *made)
	}
	for range idle { // the first request's store on top, for the next one to take
		s.bodies.Get()
	}
	giveBack(s, append([]*standingBody{a}, slices.DeleteFunc(idle, func(st *standingBody) bool { return st == a })...))
	for i, body := range next {
		if i == 1 {
			status, got = standingAnswer(t, ts, body)
		}
		wantStatus, want := freshAnswer(t, body)
		if status != http.StatusOK || status != wantStatus || got != want {
			t.Fatalf("request %d after the disconnect: %d\n%s\nwant %d, as a fresh server answers:\n%s", i, status, got, wantStatus, want)
		}
	}
	if idle := idleStores(t, s, made); len(idle) != *made || idle[0] != a {
		t.Fatalf("%d stores idle of %d made, want all, the first request's on top", len(idle), *made)
	}
}

// TestServeStandingRecycledAfterRefusal: a request refused at its last
// delta — by its script, or by its syntax — gives back a store holding
// every delta before it, and the next request decodes over them and
// answers as a fresh server does.
func TestServeStandingRecycledAfterRefusal(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, ts, _, _ := newTestServer(t, 200, Config{})
	made := countStores(s)
	for _, last := range []string{`{"at":9,"sign":2,"row":[1,2,3]}`, `{"at":9,"sign":1,"row":[1,2,3.]}`, `{"at":9,"sign":1,"row":[1,2,"x"]}`} {
		refused := spendBody(4, 60, last)
		status, got := standingAnswer(t, ts, refused)
		if wantStatus, want := freshAnswer(t, refused); status != http.StatusBadRequest || status != wantStatus || got != want {
			t.Fatalf("last delta %s: %d %s, want %d %s", last, status, got, wantStatus, want)
		}
		body := spendBody(5, 20)
		status, got = standingAnswer(t, ts, body)
		if wantStatus, want := freshAnswer(t, body); status != http.StatusOK || status != wantStatus || got != want {
			t.Fatalf("after a refusal at %s: %d\n%s\nwant %d, as a fresh server answers:\n%s", last, status, got, wantStatus, want)
		}
		if idle := idleStores(t, s, made); len(idle) != 1 || *made != 1 {
			t.Fatalf("%d stores idle of %d made, want the one", len(idle), *made)
		}
	}
}
