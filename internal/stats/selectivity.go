package stats

import "sync"

// OpCounters is the per-operator counter block every Tukwila query operator
// maintains (§3.3): "Every query operator maintains a counter indicating
// how many tuples it has output." We also track input counts so observed
// selectivity is derivable, and virtual CPU time for the simulator.
type OpCounters struct {
	In      int64   // tuples consumed (sum over inputs)
	InLeft  int64   // tuples consumed from the left/outer input
	InRight int64   // tuples consumed from the right/inner input
	Out     int64   // tuples produced
	CPU     float64 // virtual CPU seconds charged
}

// Selectivity returns Out / In (1 when no input has been seen).
func (c *OpCounters) Selectivity() float64 {
	if c.In == 0 {
		return 1
	}
	return float64(c.Out) / float64(c.In)
}

// Observation is one selectivity measurement for a canonical logical
// subexpression: the ratio of the subexpression's output cardinality over
// the product of its input relation cardinalities (paper §4.2's shared
// logical selectivity definition).
type Observation struct {
	Key      string  // canonical subexpression key (algebra.CanonKey)
	OutCard  float64 // observed output cardinality
	InProd   float64 // product of input cardinalities seen so far
	Complete bool    // all inputs fully consumed
}

// Selectivity returns the observed ratio, or -1 if undefined.
func (o Observation) Selectivity() float64 {
	if o.InProd <= 0 {
		return -1
	}
	return o.OutCard / o.InProd
}

// Registry aggregates runtime observations shared between the executor and
// the re-optimizer. One selectivity is recorded per logical subexpression
// regardless of the physical algorithm that computed it (§4.2). The
// registry is safe for concurrent use: the paper's re-optimizer runs in a
// low-priority background thread while execution continues.
type Registry struct {
	mu sync.RWMutex
	// sel maps canonical subexpression key -> latest observation.
	sel map[string]Observation
	// sourceCard maps base relation name -> tuples read so far and whether
	// the source is exhausted.
	sourceCard map[string]SourceCard
	// multiplicative records join predicates flagged as multiplicative
	// (output exceeded both inputs, §4.2) with their observed blow-up.
	multiplicative map[string]float64
}

// SourceCard tracks a base source's observed cardinality.
type SourceCard struct {
	Read     float64
	Complete bool
}

// NewRegistry creates an empty observation registry.
func NewRegistry() *Registry {
	return &Registry{
		sel:            make(map[string]Observation),
		sourceCard:     make(map[string]SourceCard),
		multiplicative: make(map[string]float64),
	}
}

// ObserveExpr records the latest (outCard, inProd) measurement for a
// canonical subexpression.
func (r *Registry) ObserveExpr(key string, outCard, inProd float64, complete bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sel[key] = Observation{Key: key, OutCard: outCard, InProd: inProd, Complete: complete}
}

// Expr returns the recorded observation for a key.
func (r *Registry) Expr(key string) (Observation, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	o, ok := r.sel[key]
	return o, ok
}

// ObserveSource records the number of tuples read from a base source.
func (r *Registry) ObserveSource(name string, read float64, complete bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sourceCard[name] = SourceCard{Read: read, Complete: complete}
}

// Source returns the observed cardinality for a base source.
func (r *Registry) Source(name string) (SourceCard, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.sourceCard[name]
	return c, ok
}

// FlagMultiplicative marks a join predicate whose output exceeded the size
// of either input, recording the blow-up factor used to penalize future
// plans containing it (§4.2's "conservative" heuristic).
func (r *Registry) FlagMultiplicative(pred string, factor float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.multiplicative[pred]; !ok || factor > f {
		r.multiplicative[pred] = factor
	}
}

// Multiplicative returns the blow-up factor for a flagged predicate.
func (r *Registry) Multiplicative(pred string) (float64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.multiplicative[pred]
	return f, ok
}
