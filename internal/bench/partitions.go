package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Partition-scaling sweep: the pipelined hash join of the push benchmarks
// executed as P hash-partitioned pipeline clones (exec.Exchange scatter +
// exec.ParallelDriver workers). The input is synthetic and sized so that
// per-partition join work — inserts, probes, emits — dominates the
// driver's read-and-scatter loop; that is the regime partitioned
// parallelism targets, and where wall clock should scale down with P.

var (
	partLSchema = types.NewSchema(
		types.Column{Name: "l.k", Kind: types.KindInt},
		types.Column{Name: "l.v", Kind: types.KindInt},
	)
	partRSchema = types.NewSchema(
		types.Column{Name: "r.k", Kind: types.KindInt},
		types.Column{Name: "r.v", Kind: types.KindInt},
	)
)

// partitionJoinRows synthesizes the sweep's join inputs: n rows per side
// over a key domain of n/4 (a few matches per key).
func partitionJoinRows(n int, seed int64) (ls, rs []types.Tuple) {
	rng := rand.New(rand.NewSource(seed))
	dom := int64(n / 4)
	if dom < 4 {
		dom = 4
	}
	ls = make([]types.Tuple, n)
	rs = make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		ls[i] = types.Tuple{types.Int(rng.Int63n(dom)), types.Int(int64(i))}
		rs[i] = types.Tuple{types.Int(rng.Int63n(dom)), types.Int(int64(i))}
	}
	return ls, rs
}

// runPartitionedJoin executes the pipelined join at the given partition
// width and reports (output rows, virtual makespan, wall clock). Width 1
// is the serial reference (plain Driver, no exchange).
func runPartitionedJoin(parts int, ls, rs []types.Tuple) (out int64, virtual float64, wall time.Duration) {
	lrel := source.NewRelation("L", partLSchema, ls)
	rrel := source.NewRelation("R", partRSchema, rs)
	start := time.Now()
	if parts <= 1 {
		ctx := exec.NewContext()
		var n int64
		j := exec.NewHashJoin(ctx, exec.Pipelined, partLSchema, partRSchema, []int{0}, []int{0},
			exec.SinkFunc(func(ts []types.Tuple, _ int) { n += int64(len(ts)) }))
		d := exec.NewDriver(ctx,
			&exec.Leaf{Provider: source.NewProvider(lrel, nil), PushBatch: exec.Feed(j.LeftSink())},
			&exec.Leaf{Provider: source.NewProvider(rrel, nil), PushBatch: exec.Feed(j.RightSink())},
		)
		d.Run(0, nil)
		return n, exec.Seconds(ctx.Clock.Now), time.Since(start)
	}

	ctxs := make([]*exec.Context, parts)
	joins := make([]*exec.HashJoin, parts)
	merge := exec.NewPartitionMerge(parts)
	handlers := make([][]exec.Sink, parts)
	for p := 0; p < parts; p++ {
		ctxs[p] = exec.NewContext()
		joins[p] = exec.NewHashJoin(ctxs[p], exec.Pipelined, partLSchema, partRSchema, []int{0}, []int{0}, merge.Sink(p))
		handlers[p] = []exec.Sink{joins[p].LeftSink(), joins[p].RightSink()}
	}
	driverCtx := exec.NewContext()
	pd := exec.NewParallelDriver(driverCtx, ctxs)
	pd.Bind(handlers, nil, 0)
	pd.Run([]*exec.Leaf{
		{Provider: source.NewProvider(lrel, nil), PushBatch: exec.Feed(pd.LeafScatter(0, []int{0}))},
		{Provider: source.NewProvider(rrel, nil), PushBatch: exec.Feed(pd.LeafScatter(1, []int{0}))},
	}, 0, nil)
	pd.Finish()
	pd.Close()
	pd.FoldClocks()
	return int64(merge.Len()), exec.Seconds(driverCtx.Clock.Now), time.Since(start)
}

// partitionSweep runs the partitions-scaling ablation. The dataset
// parameter only scales the input size with the configured SF so the
// sweep tracks the rest of the suite.
func partitionSweep(uni *datagen.Dataset, widths []int) []AblationRow {
	n := 1 << 17
	if l := uni.Lineitem.Len() * 4; l > n {
		n = l
	}
	ls, rs := partitionJoinRows(n, 97)
	var out []AblationRow
	var serialWall time.Duration
	for _, parts := range widths {
		rows, virtual, wall := runPartitionedJoin(parts, ls, rs)
		if parts <= 1 {
			serialWall = wall
		}
		speedup := float64(serialWall) / float64(wall)
		out = append(out, AblationRow{
			Experiment: "partitions",
			Setting:    fmt.Sprintf("P=%d", parts),
			Seconds:    virtual,
			Detail: fmt.Sprintf("wall=%v speedup=%.2fx out=%d gomaxprocs=%d",
				wall.Round(time.Millisecond), speedup, rows, runtime.GOMAXPROCS(0)),
		})
	}
	return out
}
