// Package engine is the user-facing facade over the ADP query processor:
// a catalog of registered sources, a fluent query builder, and execution
// entry points returning rows plus an execution report. The public root
// package (github.com/tukwila/adp) re-exports these types.
package engine

import (
	"context"
	"fmt"
	"sort"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Engine owns a catalog of data sources and executes queries against
// them. Sources are one-pass: after a query consumed a source, re-running
// requires re-registering (or use Snapshot catalogs per run).
type Engine struct {
	rels   map[string]*source.Relation
	scheds map[string]source.Schedule
	// Known cardinalities advertised by sources (often absent in data
	// integration; nil entries mean unknown).
	known map[string]float64
	// faults holds injected fault schedules per relation (chaos testing
	// and the fault-tolerance demos); nil entries mean fault-free.
	faults map[string]*source.FaultSchedule
	// deltaFaults holds injected fault schedules per relation's delta
	// stream (standing-query chaos testing); keyed by base relation name,
	// independent of the base read's schedule in faults.
	deltaFaults map[string]*source.FaultSchedule
}

// New creates an empty engine.
func New() *Engine {
	return &Engine{
		rels:   map[string]*source.Relation{},
		scheds: map[string]source.Schedule{},
		known:  map[string]float64{},
		faults: map[string]*source.FaultSchedule{},
	}
}

// Register adds a relation as a local (immediately available) source.
func (e *Engine) Register(rel *source.Relation) *Engine {
	e.rels[rel.Name] = rel
	return e
}

// RegisterRemote adds a relation delivered under the given schedule
// (bandwidth-limited, bursty, ...).
func (e *Engine) RegisterRemote(rel *source.Relation, sched source.Schedule) *Engine {
	e.rels[rel.Name] = rel
	e.scheds[rel.Name] = sched
	return e
}

// AdvertiseCardinality records a source-supplied cardinality (the "given
// cardinalities" experimental mode).
func (e *Engine) AdvertiseCardinality(rel string, card float64) *Engine {
	e.known[rel] = card
	return e
}

// InjectFaults schedules deterministic faults against a registered
// relation: every subsequent run reads the source through a fault-
// injecting wrapper that replays the schedule (transient read errors,
// stalls, permanent death). Pass nil to clear. How reads recover is a
// per-run decision — see WithSourcePolicy and WithPartialResults.
func (e *Engine) InjectFaults(rel string, fs *source.FaultSchedule) *Engine {
	if fs == nil {
		delete(e.faults, rel)
	} else {
		e.faults[rel] = fs
	}
	return e
}

// Relation returns a registered relation.
func (e *Engine) Relation(name string) (*source.Relation, bool) {
	r, ok := e.rels[name]
	return r, ok
}

// Relations lists registered source names (sorted).
func (e *Engine) Relations() []string {
	out := make([]string, 0, len(e.rels))
	for n := range e.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// catalog opens fresh providers over the registered relations (one-pass
// sources: every run reads each source from the start). Relations with
// injected faults — or a per-run retry policy, whose mirror must be armed
// even without injected faults — are wrapped in a fault-injecting
// provider.
func (e *Engine) catalog(o core.Options) *core.Catalog {
	cat := &core.Catalog{Providers: map[string]source.Provider{}}
	for name, rel := range e.rels {
		var p source.Provider = source.NewProvider(rel, e.scheds[name])
		fs := e.faults[name]
		policy, hasPolicy := o.SourcePolicies[name]
		if fs != nil || hasPolicy {
			p = source.NewFaulty(p, fs, policy)
		}
		cat.Providers[name] = p
	}
	return cat
}

// Execute runs a query to completion under the given options. Every call
// opens fresh providers, so repeated Execute calls see the sources from
// the start (convenient for experiments; a real deployment would stream
// once). Execute is core.RunStream with no row hook — the same execution
// code path a Stream drives, on the caller's goroutine — so the report
// retains the result in Rows, with the identical rows, counters, and
// clocks a Stream delivers.
func (e *Engine) Execute(q *algebra.Query, o core.Options) (*core.Report, error) {
	return e.ExecuteContext(context.Background(), q, o)
}

// ExecuteContext is Execute with cancellation: the run stops at the next
// batch boundary once ctx is canceled and returns ctx's error.
func (e *Engine) ExecuteContext(ctx context.Context, q *algebra.Query, o core.Options) (*core.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.validate(q); err != nil {
		return nil, err
	}
	e.defaultKnown(&o)
	return core.RunStream(ctx, e.catalog(o), q, o, core.RunHooks{})
}

// QueryBuilder assembles an algebra.Query fluently.
type QueryBuilder struct {
	e   *Engine
	q   *algebra.Query
	err error
}

// Query starts building a named query.
func (e *Engine) Query(name string) *QueryBuilder {
	return &QueryBuilder{e: e, q: &algebra.Query{Name: name, Filters: map[string]expr.Predicate{}}}
}

// From adds base relations by registered name.
func (b *QueryBuilder) From(rels ...string) *QueryBuilder {
	for _, name := range rels {
		rel, ok := b.e.rels[name]
		if !ok {
			b.fail(fmt.Errorf("engine: unknown relation %q", name))
			return b
		}
		b.q.Relations = append(b.q.Relations, algebra.RelRef{Name: name, Schema: rel.Schema})
	}
	return b
}

// Join adds an equijoin predicate "lrel.lcol = rrel.rcol".
func (b *QueryBuilder) Join(lrel, lcol, rrel, rcol string) *QueryBuilder {
	b.q.Joins = append(b.q.Joins, algebra.JoinPred{
		LeftRel: lrel, LeftCol: lcol, RightRel: rrel, RightCol: rcol,
	})
	return b
}

// Where attaches a local selection predicate to one relation.
func (b *QueryBuilder) Where(rel string, p expr.Predicate) *QueryBuilder {
	if existing, ok := b.q.Filters[rel]; ok {
		b.q.Filters[rel] = expr.AndOf(existing, p)
	} else {
		b.q.Filters[rel] = p
	}
	return b
}

// GroupBy sets grouping columns.
func (b *QueryBuilder) GroupBy(cols ...string) *QueryBuilder {
	b.q.GroupBy = append(b.q.GroupBy, cols...)
	return b
}

// Agg adds an aggregate to the select list.
func (b *QueryBuilder) Agg(kind algebra.AggKind, arg expr.Expr, as string) *QueryBuilder {
	b.q.Aggs = append(b.q.Aggs, algebra.AggSpec{Kind: kind, Arg: arg, As: as})
	return b
}

// Select sets SPJ output columns (ignored when aggregates exist).
func (b *QueryBuilder) Select(cols ...string) *QueryBuilder {
	b.q.Project = append(b.q.Project, cols...)
	return b
}

func (b *QueryBuilder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates and returns the query.
func (b *QueryBuilder) Build() (*algebra.Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.q.Validate(); err != nil {
		return nil, err
	}
	return b.q, nil
}

// MustBuild is Build that panics on error (tests/examples).
func (b *QueryBuilder) MustBuild() *algebra.Query {
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}

// FormatRows renders result rows as an aligned text table.
func FormatRows(schema *types.Schema, rows []types.Tuple, limit int) string {
	if limit <= 0 || limit > len(rows) {
		limit = len(rows)
	}
	widths := make([]int, schema.Len())
	names := schema.Names()
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, limit)
	for r := 0; r < limit; r++ {
		cells[r] = make([]string, schema.Len())
		for c := range rows[r] {
			if c >= schema.Len() {
				break
			}
			s := rows[r][c].String()
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var out []byte
	pad := func(s string, w int) {
		out = append(out, s...)
		for i := len(s); i < w+2; i++ {
			out = append(out, ' ')
		}
	}
	for i, n := range names {
		pad(n, widths[i])
	}
	out = append(out, '\n')
	for r := 0; r < limit; r++ {
		for c := range cells[r] {
			pad(cells[r][c], widths[c])
		}
		out = append(out, '\n')
	}
	if limit < len(rows) {
		out = append(out, fmt.Sprintf("... (%d more rows)\n", len(rows)-limit)...)
	}
	return string(out)
}
