package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Partition-merge goldens. Every value below was written by the commit
// before the partition merge buffered its partitions' root rows as rows
// rather than as columns, on the one engine path that reaches the merge and
// no benchmark workload runs: an SPJ query at P>1. Every join of the fixture
// hashes on one key, so each exchange keeps its rows in their own partition,
// the driver is each partition's only producer, and the stream is
// deterministic to the row: a leg pins the rows of every OnRows delivery in
// order, how many rows the consumer had been handed when each phase's
// PartitionStats was emitted, the report's counters and its phases.

var spjMergeGoldens = map[string]string{
	"static/P=2":     "deliveries=80:e16f16084c02cf83 streamed=3208 atStats=[2664] rows=0/3208:e3b0c44298fc1c14 switches=0 combos=0 reused=0 discarded=0 phases=[30c6377da20437b6 4133]",
	"static/P=4":     "deliveries=73:15e562889134389b streamed=3208 atStats=[2736] rows=0/3208:e3b0c44298fc1c14 switches=0 combos=0 reused=0 discarded=0 phases=[30c6377da20437b6 4133]",
	"corrective/P=2": "deliveries=51:5988a413472f6b92 streamed=3208 atStats=[11 191] rows=0/3208:e3b0c44298fc1c14 switches=1 combos=6 reused=41 discarded=459 phases=[30c6377da20437b6 350][69dfab4db7a19081 3783]",
	"corrective/P=4": "deliveries=31:16ac0922c162f2ed streamed=3208 atStats=[2 86] rows=0/3208:e3b0c44298fc1c14 switches=1 combos=6 reused=41 discarded=459 phases=[30c6377da20437b6 350][69dfab4db7a19081 3783]",
}

// spjMergeLeg streams the fixture's SPJ query at parts partitions and
// renders what the consumer saw.
func spjMergeLeg(t *testing.T, strat Strategy, parts int) string {
	t.Helper()
	fx := sharedKeyFixture(7)
	q := *fx.q
	q.GroupBy, q.Aggs = nil, nil
	q.Project = []string{"U.z", "R.k", "R.name", "S.x"}
	o := Options{Strategy: Static, PollEvery: 50, Known: fx.known}
	if strat == Corrective {
		o = forcedSwitching(Options{Known: fx.known})
	}
	o.Partitions = parts
	rels := map[string]*source.Relation{}
	for name, p := range fx.cat().Providers {
		rels[name] = source.NewRelation(name, p.Schema(), drainProvider(p))
	}
	cat := NewCatalog(rels, func(*source.Relation) source.Schedule {
		return source.Bandwidth{TuplesPerSec: 1e5}
	})
	var (
		deliveries []string
		streamed   int
		atStats    []int
	)
	rep, err := RunStream(context.Background(), cat, &q, o, RunHooks{
		OnRows: func(rows []types.Tuple) {
			deliveries = append(deliveries, fmt.Sprintf("%d:%s", len(rows), digest(bitRows(rows))))
			streamed += len(rows)
		},
		Emit: func(ev Event) {
			if _, ok := ev.(PartitionStats); ok {
				atStats = append(atStats, streamed)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partitions != parts {
		t.Fatalf("run fell back to %d partitions", rep.Partitions)
	}
	return fmt.Sprintf("deliveries=%d:%s streamed=%d atStats=%v %s",
		len(deliveries), digest(fmt.Sprint(deliveries)), streamed, atStats, layoutCounts(rep, true))
}

// TestSPJMergeGoldens: Static and Corrective (forced switching) at P in
// {2, 4}.
func TestSPJMergeGoldens(t *testing.T) {
	for _, strat := range []Strategy{Static, Corrective} {
		for _, parts := range []int{2, 4} {
			name := fmt.Sprintf("%v/P=%d", strat, parts)
			t.Run(name, func(t *testing.T) {
				got := spjMergeLeg(t, strat, parts)
				want, ok := spjMergeGoldens[name]
				if !ok {
					t.Fatalf("no golden; got %q: %q,", name, got)
				}
				if got != want {
					t.Errorf("stream = %q\n        want %q", got, want)
				}
			})
		}
	}
}
