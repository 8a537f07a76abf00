package core

import (
	"fmt"
	"slices"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/types"
)

// Partition-parallel lowering. LowerPartitioned compiles one phase plan
// into P clones of the operator chain — each with its own exec.Context
// and its own hash/aggregation state, so the hot path needs no locks —
// stitched together by hash exchanges at partition boundaries:
//
//   - source→operator boundaries partition at the driver: each leaf's
//     partition key (the key columns its consumer joins or groups on,
//     expressed in the post-filter source layout) is recorded in
//     LeafKeys, and the parallel driver scatters source runs before any
//     worker touches them;
//   - operator→operator boundaries (join output feeding another join or
//     an aggregation on different columns) get an exec.Exchange inside
//     each partition clone: same-partition rows continue synchronously,
//     cross-partition rows ride the parallel runtime. When the producer
//     is already partitioned on the boundary key — e.g. a join chain on
//     one shared key — every row hashes back to its own partition and
//     the exchange degenerates to the local fast path.
//
// Everything that crosses a boundary is a row batch: the joins on both
// sides build on tuples, and columnar frames between them measured behind
// rows end to end (docs/architecture.md).
//
// Equal join keys land in the same partition, so the union of the clones'
// outputs is exactly the serial plan's output multiset and per-operator
// counters sum to the serial totals; a pre-aggregation boundary keyed on
// its group columns keeps every partial group in exactly one partition.
//
// Where a clone's root output goes is the caller's choice (rootSinks): an
// SPJ phase hands every clone a buffer of one exec.PartitionMerge, whose
// partition order is the result order; an aggregate phase hands clone p a
// private exec.AggTable on p's own context, so the final group-by runs
// inside the partitions — a group may then live in several of them, when
// the group key does not cover the root join's partition key — and the
// tables fold into the shared one after the phase (exec.AggTable.MergeFrom).
type ParTree struct {
	// P is the partition count.
	P int
	// Trees holds the per-partition pipeline clones.
	Trees []*Tree
	// Ctxs holds each partition's execution context (clock).
	Ctxs []*exec.Context
	// LeafKeys maps relation name -> partition key columns in the
	// post-filter source layout (the driver-side scatter keys).
	LeafKeys map[string][]int

	// boundaries counts worker-side exchange boundaries; entrySinks[p][b]
	// is partition p's downstream operator input for boundary b.
	boundaries  int
	entrySinks  [][]exec.Sink
	entryOffset int
	// send ships cross-partition rows; bound to the parallel runtime by
	// Bind before execution starts.
	send func(from, dst, entry int, rows []types.Tuple)
}

// parLowering is the per-partition boundary installer consulted by
// Tree.build.
type parLowering struct {
	pt   *ParTree
	p    int
	next int // next boundary id (walk order is identical per partition)
}

// sink installs the partition boundary in front of a consumer input.
// Scan children partition at the driver (recorded in LeafKeys); operator
// children get an exchange keyed on the consumer's columns, whose scratch
// the clone's context ctx lends.
func (pl *parLowering) sink(ctx *exec.Context, child algebra.Plan, keyCols []int, down exec.Sink) (exec.Sink, error) {
	if scan, ok := child.(*algebra.ScanPlan); ok {
		name := scan.Rel.Name
		if prev, ok := pl.pt.LeafKeys[name]; ok && !slices.Equal(prev, keyCols) {
			// Identical walks must assign identical keys; a mismatch means
			// the plan reuses a relation (rejected later by build anyway).
			return nil, fmt.Errorf("core: relation %q has conflicting partition keys %v and %v", name, prev, keyCols)
		}
		pl.pt.LeafKeys[name] = keyCols
		return down, nil
	}
	id := pl.next
	pl.next++
	for len(pl.pt.entrySinks) <= pl.p {
		pl.pt.entrySinks = append(pl.pt.entrySinks, nil)
	}
	if got := len(pl.pt.entrySinks[pl.p]); got != id {
		return nil, fmt.Errorf("core: boundary registration out of order (%d != %d)", got, id)
	}
	pl.pt.entrySinks[pl.p] = append(pl.pt.entrySinks[pl.p], down)
	pt, p := pl.pt, pl.p
	return ctx.Exchange(pt.P, keyCols, func(dst int, rows []types.Tuple) {
		if dst == p {
			down.Push(rows, 0)
			return
		}
		pt.send(p, dst, pt.entryOffset+id, rows)
	}), nil
}

// LowerPartitioned compiles plan into parts per-partition pipelines, each
// delivering its root output to merge's corresponding partition buffer.
// cost (nil = defaults) is shared by all partition clocks. It returns an
// error when the plan has no partitionable shape — a leaf without a
// join/group consumer to key on — in which case callers fall back to the
// serial Lower path.
func LowerPartitioned(parts int, cost *exec.CostModel, plan algebra.Plan, merge *exec.PartitionMerge) (*ParTree, error) {
	newCtx := func() *exec.Context {
		ctx := exec.NewContext()
		if cost != nil {
			ctx.Cost = cost
		}
		return ctx
	}
	return lowerPartitioned(parts, newCtx, plan, mergeRoots(merge), false)
}

// rootSinks makes partition p's root sink; whatever it builds runs on p's
// worker and charges p's context.
type rootSinks func(p int, ctx *exec.Context) (exec.Sink, error)

// mergeRoots delivers every partition's root output to its buffer of merge.
func mergeRoots(merge *exec.PartitionMerge) rootSinks {
	return func(p int, _ *exec.Context) (exec.Sink, error) { return merge.Sink(p), nil }
}

// lowerPartitioned is LowerPartitioned with each clone's context made by
// newCtx, its root sink by roots, and lower's reuse choice applied to every
// clone.
func lowerPartitioned(parts int, newCtx func() *exec.Context, plan algebra.Plan, roots rootSinks, reuse bool) (*ParTree, error) {
	if parts < 2 {
		return nil, fmt.Errorf("core: partitioned lowering needs >= 2 partitions, got %d", parts)
	}
	pt := &ParTree{P: parts, LeafKeys: map[string][]int{}}
	for p := 0; p < parts; p++ {
		ctx := newCtx()
		t := newTree(ctx, plan, reuse)
		t.par = &parLowering{pt: pt, p: p}
		out, err := roots(p, ctx)
		if err != nil {
			return nil, err
		}
		if err := t.build(plan, out); err != nil {
			return nil, err
		}
		if p == 0 {
			pt.boundaries = t.par.next
		} else if t.par.next != pt.boundaries || len(t.finishers) != len(pt.Trees[0].finishers) {
			return nil, fmt.Errorf("core: partition clones diverged (boundaries %d/%d)", t.par.next, pt.boundaries)
		}
		pt.Ctxs = append(pt.Ctxs, ctx)
		pt.Trees = append(pt.Trees, t)
	}
	// Every leaf must have a driver-side partition key: a relation whose
	// consumer is not a join/group boundary (single-relation plans, scans
	// under a bare projection) cannot be scattered meaningfully. Sorted so
	// a plan with several keyless leaves reports the same one every run.
	names := make([]string, 0, len(pt.Trees[0].Entry))
	for name := range pt.Trees[0].Entry {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if _, ok := pt.LeafKeys[name]; !ok {
			return nil, fmt.Errorf("core: relation %q has no partition key (plan not partitionable)", name)
		}
	}
	return pt, nil
}

// Bind connects the tree's cross-partition exchanges to the parallel
// runtime: send ships rows from one partition's worker to another's
// entry, and leafEntries is the number of driver-side leaf entries
// preceding the boundary entries in the runtime's entry numbering.
func (pt *ParTree) Bind(send func(from, dst, entry int, rows []types.Tuple), leafEntries int) {
	pt.send = send
	pt.entryOffset = leafEntries
}

// Handlers builds the runtime's per-partition entry table: entries
// [0, len(rels)) are the named relations' plan entries (in rels order — the
// same order the caller registers leaves), and entries
// [len(rels), len(rels)+boundaries) the consumers behind the exchange
// boundaries.
func (pt *ParTree) Handlers(rels []string) ([][]exec.Sink, error) {
	out := make([][]exec.Sink, pt.P)
	for p := 0; p < pt.P; p++ {
		hs := make([]exec.Sink, 0, len(rels)+pt.boundaries)
		for _, r := range rels {
			entry, ok := pt.Trees[p].Entry[r]
			if !ok {
				return nil, fmt.Errorf("core: plan is missing relation %q", r)
			}
			hs = append(hs, entry)
		}
		for b := 0; b < pt.boundaries; b++ {
			hs = append(hs, pt.entrySinks[p][b])
		}
		out[p] = hs
	}
	return out, nil
}

// FinishSteps returns the broadcast finish-round count.
func (pt *ParTree) FinishSteps() int { return pt.Trees[0].FinishSteps() }

// RunFinisher runs finisher step on partition p's clone (invoked by the
// parallel runtime on p's worker).
func (pt *ParTree) RunFinisher(p, step int) { pt.Trees[p].RunFinisher(step) }
