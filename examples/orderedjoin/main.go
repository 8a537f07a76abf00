// Exploiting order with complementary join pairs (§5): joining
// "mostly sorted" relations — bulk-loaded in key order, then perturbed by
// later updates — with a merge join for the in-order stream, a pipelined
// hash join for the stragglers, and a mini stitch-up across the two.
package main

import (
	"fmt"
	"log"

	adp "github.com/tukwila/adp"
)

func main() {
	// A key-sorted dataset: orders and their lineitems.
	d := adp.GenerateDataset(adp.DatagenConfig{ScaleFactor: 0.01, Seed: 11})
	li, ord := d.Lineitem, d.Orders
	lKey := []int{li.Schema.MustIndexOf("l_orderkey")}
	oKey := []int{ord.Schema.MustIndexOf("o_orderkey")}

	fmt.Println("LINEITEM ⋈ ORDERS under increasing disorder:")
	fmt.Printf("%-10s | %-12s %-12s %-12s | %s\n",
		"reordered", "hash only", "compl.", "compl.+pq", "pq routing (merge/hash/stitch outputs)")
	for _, frac := range []float64{0, 0.01, 0.10, 0.50} {
		liR := adp.ReorderFraction(li, frac, 1)
		ordR := adp.ReorderFraction(ord, frac, 2)

		hash := runHash(liR, ordR, lKey, oKey)
		naive, _ := runPair(liR, ordR, lKey, oKey, 0)
		pq, st := runPair(liR, ordR, lKey, oKey, adp.DefaultPQCap)

		fmt.Printf("%9.0f%% | %10.4fs %10.4fs %10.4fs | %d / %d / %d\n",
			frac*100, hash, naive, pq, st.Stats.MergeOut, st.Stats.HashOut, st.Stats.StitchOut)
	}
	fmt.Println("\nOn sorted data the pair routes everything to the cheap merge join;")
	fmt.Println("with light disorder the priority-queue router keeps the merge join")
	fmt.Println("useful; heavy disorder degrades gracefully to the hash join.")
}

// runHash is the Figure 5 baseline: a plain pipelined hash join.
func runHash(li, ord *adp.Relation, lKey, oKey []int) float64 {
	ctx := adp.NewExecContext()
	n := 0
	j := adp.NewHashJoin(ctx, adp.JoinPipelined, li.Schema, ord.Schema, lKey, oKey,
		adp.SinkFunc(func(ts []adp.Tuple, _ int) { n += len(ts) }))
	// The two inputs arrive interleaved, a row at a time: a single tuple is
	// a batch of one, pushed unsigned (sign 0).
	left, right := j.LeftSink(), j.RightSink()
	i, k := 0, 0
	for i < len(li.Rows) || k < len(ord.Rows) {
		if i < len(li.Rows) {
			left.Push(li.Rows[i:i+1], 0)
			i++
		}
		if k < len(ord.Rows) {
			right.Push(ord.Rows[k:k+1], 0)
			k++
		}
	}
	j.FinishLeft()
	j.FinishRight()
	if n != len(li.Rows) {
		log.Fatalf("hash join produced %d rows, want %d", n, len(li.Rows))
	}
	return adp.ClockSeconds(ctx.Clock.Now)
}

func runPair(li, ord *adp.Relation, lKey, oKey []int, pqCap int) (float64, adp.ComplementaryJoin) {
	ctx := adp.NewExecContext()
	n := 0
	cj := adp.NewComplementaryJoin(ctx, li.Schema, ord.Schema, lKey, oKey, pqCap,
		adp.SinkFunc(func(ts []adp.Tuple, _ int) { n += len(ts) }))
	i, k := 0, 0
	for i < len(li.Rows) || k < len(ord.Rows) {
		if i < len(li.Rows) {
			cj.PushLeftBatch(li.Rows[i : i+1])
			i++
		}
		if k < len(ord.Rows) {
			cj.PushRightBatch(ord.Rows[k : k+1])
			k++
		}
	}
	cj.Finish()
	if n != len(li.Rows) {
		log.Fatalf("join produced %d rows, want %d", n, len(li.Rows))
	}
	return adp.ClockSeconds(ctx.Clock.Now), *cj
}
