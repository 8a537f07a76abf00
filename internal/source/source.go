// Package source models autonomous data-integration sources (paper §3.5):
// relations whose access is sequential-only, delivered over a network whose
// bandwidth and burstiness we simulate with deterministic virtual-time
// arrival schedules. This substitutes for the paper's remote/802.11b
// testbed: every tuple carries an availability timestamp, pipelined
// operators interleave inputs by availability, and a query's response time
// is the virtual completion time — reproducing the delay-masking behaviour
// the paper measures in Figure 3 without real network hardware.
package source

import (
	"fmt"
	"math/rand"

	"github.com/tukwila/adp/internal/types"
)

// Relation is an in-memory named table. Sources in data integration "may
// change between successive accesses"; the engine therefore never assumes
// it can rescan a Relation — all access is through one-pass Streams.
type Relation struct {
	Name   string
	Schema *types.Schema
	Rows   []types.Tuple
}

// NewRelation builds a relation.
func NewRelation(name string, schema *types.Schema, rows []types.Tuple) *Relation {
	return &Relation{Name: name, Schema: schema, Rows: rows}
}

// Len returns the cardinality.
func (r *Relation) Len() int { return len(r.Rows) }

// Clone deep-copies row structure (values shared).
func (r *Relation) Clone() *Relation {
	rows := make([]types.Tuple, len(r.Rows))
	for i, t := range r.Rows {
		rows[i] = t.Clone()
	}
	return &Relation{Name: r.Name, Schema: r.Schema, Rows: rows}
}

// String describes the relation.
func (r *Relation) String() string {
	return fmt.Sprintf("%s%v[%d rows]", r.Name, r.Schema.Names(), len(r.Rows))
}

// Row is one delivered tuple with its virtual availability time in
// seconds.
type Row struct {
	T  types.Tuple
	At float64
}

// Schedule assigns an arrival time (virtual seconds) to the i-th tuple of
// a stream.
type Schedule interface {
	ArrivalAt(i int) float64
}

// Immediate is a schedule for local data: everything available at t=0.
type Immediate struct{}

// ArrivalAt implements Schedule.
func (Immediate) ArrivalAt(int) float64 { return 0 }

// Bandwidth delivers tuples at a constant rate (tuples/second) after an
// initial latency.
type Bandwidth struct {
	TuplesPerSec float64
	Latency      float64
}

// ArrivalAt implements Schedule.
func (b Bandwidth) ArrivalAt(i int) float64 {
	if b.TuplesPerSec <= 0 {
		return b.Latency
	}
	return b.Latency + float64(i+1)/b.TuplesPerSec
}

// Bursty models the paper's 802.11b wireless link: limited bandwidth with
// alternating transmission bursts and stalls ("known to be highly
// bursty"). Burst/gap lengths are drawn deterministically from Seed so
// experiments are reproducible.
type Bursty struct {
	TuplesPerSec float64 // bandwidth during a burst
	BurstTuples  int     // mean tuples delivered per burst
	GapSeconds   float64 // mean stall between bursts
	Seed         int64

	arrivals []float64
}

// NewBursty precomputes an arrival schedule for up to n tuples.
// Degenerate parameters are clamped rather than trusted (mirroring
// Bandwidth.ArrivalAt's guard): burstTuples <= 0 behaves as 1 (it would
// otherwise panic in rand.Intn), tuplesPerSec <= 0 means instantaneous
// in-burst delivery (it would otherwise produce +Inf arrival times), a
// negative gap stalls for 0 seconds, and n < 0 yields an empty schedule.
func NewBursty(n int, tuplesPerSec float64, burstTuples int, gapSeconds float64, seed int64) *Bursty {
	b := &Bursty{TuplesPerSec: tuplesPerSec, BurstTuples: burstTuples, GapSeconds: gapSeconds, Seed: seed}
	if n < 0 {
		n = 0
	}
	if burstTuples < 1 {
		burstTuples = 1
	}
	perTuple := 0.0
	if tuplesPerSec > 0 {
		perTuple = 1 / tuplesPerSec
	}
	if gapSeconds < 0 {
		gapSeconds = 0
	}
	rng := rand.New(rand.NewSource(seed))
	arr := make([]float64, n)
	t := 0.0
	i := 0
	for i < n {
		// Burst length: exponential-ish around BurstTuples.
		blen := 1 + rng.Intn(2*burstTuples)
		for j := 0; j < blen && i < n; j++ {
			t += perTuple
			arr[i] = t
			i++
		}
		// Stall.
		t += gapSeconds * rng.ExpFloat64()
	}
	b.arrivals = arr
	return b
}

// ArrivalAt implements Schedule.
func (b *Bursty) ArrivalAt(i int) float64 {
	if i < len(b.arrivals) {
		return b.arrivals[i]
	}
	if len(b.arrivals) == 0 {
		return 0
	}
	return b.arrivals[len(b.arrivals)-1]
}

// Provider hands out the tuples of one named source across the phases of
// a run; each ADP phase resumes reading where the previous phase stopped,
// so a provider is a single resumable read position, not a rescannable
// stream. It is an interface so the read path can be wrapped: NewProvider
// returns the plain relation-backed provider, NewFaulty layers
// deterministic fault injection and recovery on top of any provider.
type Provider interface {
	// Name identifies the source.
	Name() string
	// Schema is the tuple layout.
	Schema() *types.Schema
	// Total returns the full cardinality (known only to the simulator;
	// the engine must not peek — it learns cardinality by reading).
	Total() int
	// Consumed reports how many tuples have been handed out.
	Consumed() int
	// Exhausted reports whether no further tuples will ever be delivered
	// (all delivered, or the source failed permanently — Faulted
	// distinguishes).
	Exhausted() bool
	// Next delivers the next tuple across all phases (the "resumes
	// reading the source relations — thus consuming all remaining
	// tuples" behaviour, §2.2). ok=false when the source is exhausted or
	// has failed permanently.
	Next() (Row, bool)
	// PeekArrival returns the availability time of the next undelivered
	// tuple (used by availability-ordered interleaving); ok=false when
	// exhausted or permanently failed.
	PeekArrival() (float64, bool)
	// Reset rewinds the provider to the start, including any fault,
	// retry, and mirror bookkeeping (the test/benchmark harness uses
	// this to run the same workload under multiple strategies).
	Reset()
	// Faulted reports the terminal source error, non-nil once the
	// provider has failed permanently (a *SourceError); healthy and
	// merely exhausted providers return nil.
	Faulted() error
}

// relProvider is the plain Provider over an in-memory relation with a
// delivery schedule; it never faults.
type relProvider struct {
	rel   *Relation
	sched Schedule
	// consumed is the number of tuples already delivered to earlier
	// phases; a new phase resumes from here.
	consumed int
}

// NewProvider wraps a relation and delivery schedule.
func NewProvider(rel *Relation, sched Schedule) Provider {
	if sched == nil {
		sched = Immediate{}
	}
	return &relProvider{rel: rel, sched: sched}
}

// Name returns the source name.
func (p *relProvider) Name() string { return p.rel.Name }

// Schema returns the source schema.
func (p *relProvider) Schema() *types.Schema { return p.rel.Schema }

// Total implements Provider.
func (p *relProvider) Total() int { return len(p.rel.Rows) }

// Consumed implements Provider.
func (p *relProvider) Consumed() int { return p.consumed }

// Exhausted implements Provider.
func (p *relProvider) Exhausted() bool { return p.consumed >= len(p.rel.Rows) }

// Next implements Provider.
func (p *relProvider) Next() (Row, bool) {
	if p.consumed >= len(p.rel.Rows) {
		return Row{}, false
	}
	r := Row{T: p.rel.Rows[p.consumed], At: p.sched.ArrivalAt(p.consumed)}
	p.consumed++
	return r, true
}

// Reset implements Provider.
func (p *relProvider) Reset() { p.consumed = 0 }

// PeekArrival implements Provider.
func (p *relProvider) PeekArrival() (float64, bool) {
	if p.consumed >= len(p.rel.Rows) {
		return 0, false
	}
	return p.sched.ArrivalAt(p.consumed), true
}

// Faulted implements Provider: a plain relation provider never faults.
func (p *relProvider) Faulted() error { return nil }
