// Package exec implements the physical execution layer: push-based
// dataflow operators (the "iterator modules" of paper §3.1 recast as push
// nodes over shared state structures), the pipelined hash join and the merge
// join, blocking and windowed aggregation, and the availability-ordered
// source driver that simulates Tukwila's adaptive operator scheduling over
// delayed, bursty sources.
//
// Concurrency across operators is modelled by a virtual clock: delivering a
// tuple advances the clock to its arrival time, and each operator charges
// per-tuple CPU costs. A pipelined (data-availability-driven) join therefore
// overlaps CPU with I/O gaps exactly the way Tukwila's thread scheduler
// does. Virtual time is counted in integer nanoseconds, so the charges made
// between two arrivals sum to the same reading in any order: an operator
// charges a batch's work once, whenever it suits it. A serial
// run's clock is therefore a function of its input alone; the parallel
// driver's partition clocks still depend on the order messages reach them
// (ParallelDriver.FoldClocks).
package exec

import (
	"math"

	"github.com/tukwila/adp/internal/state"
)

// Clock is the virtual time of a query execution, in nanoseconds.
type Clock struct {
	// Now is the current virtual time.
	Now int64
	// CPU accumulates charged CPU time (a query is CPU-bound when
	// CPU ≈ Now).
	CPU int64
}

// AdvanceTo moves the clock forward to an arrival time (no-op if in the
// past: data that arrived while we were computing is ready immediately).
func (c *Clock) AdvanceTo(ns int64) {
	if ns > c.Now {
		c.Now = ns
	}
}

// Charge accounts ns nanoseconds of CPU work.
func (c *Clock) Charge(ns int64) {
	c.Now += ns
	c.CPU += ns
}

// Seconds converts virtual nanoseconds into the float seconds that reports,
// events and the optimizer's cost units are expressed in.
func Seconds(ns int64) float64 { return float64(ns) / 1e9 }

// Nanos rounds a source arrival stamp, in float seconds, to the nearest
// virtual nanosecond. Rounding is monotone: stamps keep their order, and
// stamps less than half a nanosecond apart may land on one tick.
func Nanos(sec float64) int64 { return int64(math.Round(sec * 1e9)) }

// CostModel holds per-operation virtual CPU costs in nanoseconds. The
// ratios matter more than the absolute values: merge-join comparisons are
// cheaper than hash probes ("a merge join ... is slightly more efficient
// than a pipelined hash join", §5), and aggregation updates sit between.
type CostModel struct {
	HashInsert int64 // insert a tuple into a hash table
	HashProbe  int64 // probe a hash bucket (per candidate compared)
	Compare    int64 // one key comparison (merge join, sorted probe)
	Move       int64 // construct/propagate one output tuple
	AggUpdate  int64 // fold one tuple into an aggregate state
	HistUpdate int64 // fold one value into a histogram (§4.5 overhead)
}

// DefaultCosts is the cost model used by all experiments.
func DefaultCosts() *CostModel {
	return &CostModel{
		HashInsert: 1000,
		HashProbe:  1100,
		Compare:    250,
		Move:       300,
		AggUpdate:  800,
		HistUpdate: 1400,
	}
}

// Context bundles the clock and cost model shared by all operators of one
// query execution, and Spare, the storage every structure built on it takes
// before it allocates and gives back when the run is over.
type Context struct {
	Clock *Clock
	Cost  *CostModel
	Spare *state.Spare
	// owned are the joins and aggregate tables built on Spare, which
	// Release frees.
	owned []interface{ free(*state.Spare) }
}

// NewContext creates a fresh execution context on an empty spare of its
// own: its structures allocate what they hold.
func NewContext() *Context {
	return &Context{Clock: &Clock{}, Cost: DefaultCosts(), Spare: &state.Spare{}}
}

// NewRunContext creates the context of one run, or of one partition clone
// of it, under cost: its structures take their storage from a pooled spare
// (state.TakeSpare), which Release gives back when the run is over.
func NewRunContext(cost *CostModel) *Context {
	return &Context{Clock: &Clock{}, Cost: cost, Spare: state.TakeSpare()}
}

// Arena returns an empty arena on c's spare.
func (c *Context) Arena() ValueArena { return ValueArena{spare: c.Spare} }

// Emitter returns an empty emitter whose arena is on c's spare.
func (c *Context) Emitter() BatchEmitter { return BatchEmitter{arena: c.Arena()} }

// Release ends the run of c: every join built on c gives its tables' index
// storage and its lists' rows to c's spare, every aggregate table its group
// store, and the spare — with every slab it lent an arena — goes back to
// the pool. Nothing built on c may be used after, c included.
func (c *Context) Release() {
	for _, s := range c.owned {
		s.free(c.Spare)
	}
	c.Spare.Return()
	c.Spare, c.owned = nil, nil
}
