// Command adpquery runs one workload query over a generated TPC-H-style
// dataset under a chosen execution strategy and prints the results plus
// the adaptive-execution report. With -stream it consumes the streaming
// cursor instead: rows print as they arrive and the event subscription
// narrates phase starts, plan switches, and stitch-up live.
//
// Usage:
//
//	adpquery -query Q10A -strategy corrective -sf 0.01
//	adpquery -query Q5 -strategy static -cards -skewed
//	adpquery -query Q3A -strategy corrective -wireless -stream
//	adpquery -query Q10 -strategy corrective -partitions 4
//	adpquery -query Q3A -fault random -fault-seed 7 -stream
//	adpquery -query Q3A -fault dead -partial
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

func main() {
	var (
		query      = flag.String("query", "Q3A", "workload query (Q3|Q3A|Q10|Q10A|Q5)")
		strategy   = flag.String("strategy", "corrective", "execution strategy (static|corrective|planpart)")
		sf         = flag.Float64("sf", 0.01, "TPC-H scale factor")
		seed       = flag.Int64("seed", 42, "generator seed")
		skewed     = flag.Bool("skewed", false, "use the Zipf-skewed dataset")
		cards      = flag.Bool("cards", false, "give the optimizer exact cardinalities")
		wireless   = flag.Bool("wireless", false, "deliver sources over a simulated bursty link")
		preagg     = flag.String("preagg", "none", "pre-aggregation (none|windowed|traditional)")
		limit      = flag.Int("limit", 10, "result rows to print")
		poll       = flag.Int("poll", 2048, "corrective polling interval (tuples)")
		partitions = flag.Int("partitions", 1, "partition-parallel width for phase execution (<=1 = serial)")
		stream     = flag.Bool("stream", false, "consume the streaming cursor: live rows + adaptive-event progress")
		fault      = flag.String("fault", "", "inject faults into the largest source (transient|stall|dead|failover|random)")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for -fault random schedules")
		partial    = flag.Bool("partial", false, "degrade to partial results when a source dies instead of failing")
		standing   = flag.Bool("standing", false, "register a standing query: feed a seeded delta script and narrate signed updates + watermarks")
		deltaN     = flag.Int("deltas", 200, "delta script length for -standing (half inserts, half deletes)")
	)
	flag.Parse()
	if err := run(*query, *strategy, *sf, *seed, *skewed, *cards, *wireless, *preagg, *limit, *poll, *partitions, *stream, *fault, *faultSeed, *partial, *standing, *deltaN); err != nil {
		fmt.Fprintln(os.Stderr, "adpquery:", err)
		os.Exit(1)
	}
}

func run(query, strategy string, sf float64, seed int64, skewed, cards, wireless bool, preagg string, limit, poll, partitions int, stream bool, fault string, faultSeed int64, partial bool, standing bool, deltaN int) error {
	q, err := workload.ByName(query)
	if err != nil {
		return err
	}
	var strat core.Strategy
	switch strategy {
	case "static":
		strat = core.Static
	case "corrective":
		strat = core.Corrective
	case "planpart":
		strat = core.PlanPartition
	default:
		return fmt.Errorf("unknown strategy %q", strategy)
	}
	var pa opt.PreAggMode
	switch preagg {
	case "none":
		pa = opt.PreAggNone
	case "windowed":
		pa = opt.PreAggWindowed
	case "traditional":
		pa = opt.PreAggTraditional
	default:
		return fmt.Errorf("unknown preagg mode %q", preagg)
	}

	fmt.Printf("generating TPC-H sf=%g (skewed=%v) ...\n", sf, skewed)
	d := datagen.Generate(datagen.Config{ScaleFactor: sf, Seed: seed, Skewed: skewed, Z: datagen.DefaultZ})
	eng := engine.New()
	for _, rel := range d.Relations() {
		if wireless {
			eng.RegisterRemote(rel, source.NewBursty(rel.Len(), 1_000_000, 8000, 0.01, seed+int64(rel.Len())))
		} else {
			eng.Register(rel)
		}
	}
	o := core.Options{Strategy: strat, PollEvery: poll, PreAgg: pa, Partitions: partitions, PartialResults: partial}
	if cards {
		o.Known = workload.KnownCards(d)
	}
	if fault != "" {
		if err := injectFaults(eng, q, fault, faultSeed, &o); err != nil {
			return err
		}
	}

	if standing {
		return runStanding(eng, q, o, limit, seed, deltaN)
	}

	var rep *core.Report
	if stream {
		rep, err = runStreaming(eng, q, o, limit)
	} else {
		rep, err = eng.Execute(q, o)
	}
	if err != nil {
		return err
	}

	fmt.Printf("\n%s (%s) — %d result rows\n", q.Name, strat, rep.RowCount)
	if !stream { // a streamed result was echoed off the cursor and is not retained
		fmt.Print(engine.FormatRows(rep.Schema, rep.Rows, limit))
	}
	fmt.Printf("\nexecution report:\n")
	fmt.Printf("  virtual time   %.3fs (cpu %.3fs, wall %.3fs)\n",
		rep.VirtualSeconds, rep.CPUSeconds, rep.RealSeconds)
	fmt.Printf("  phases         %d (switches %d, optimizer calls %d)\n", len(rep.Phases), rep.Switches, rep.OptCalls)
	for i, p := range rep.Phases {
		fmt.Printf("    phase %d: %d tuples, %.3fs\n      %s\n", i, p.Delivered, p.Seconds, p.Plan)
	}
	if rep.StitchCombos > 0 {
		fmt.Printf("  stitch-up      %.3fs, %d combinations, %d tuples reused, %d discarded\n",
			rep.StitchTime, rep.StitchCombos, rep.Reused, rep.Discarded)
	}
	if rep.Partial {
		fmt.Printf("  PARTIAL RESULTS: a source died and the run degraded to its delivered prefix\n")
	}
	for name, st := range rep.SourceFaults {
		fmt.Printf("  faults[%s]  transients %d, stalls %d (%.3fs), retries %d (%.3fs backoff)",
			name, st.Transients, st.Stalls, st.StallSeconds, st.Retries, st.BackoffSeconds)
		if st.FailedOver {
			fmt.Print(", failed over to mirror")
		}
		if st.Abandoned {
			fmt.Print(", ABANDONED")
		}
		fmt.Println()
	}
	return nil
}

// injectFaults arms a canned fault scenario on the query's largest source
// relation: the schedule goes through Engine.InjectFaults and the
// matching retry policy through Options.SourcePolicies, exactly the path
// library users take.
func injectFaults(eng *engine.Engine, q *algebra.Query, mode string, seed int64, o *core.Options) error {
	target, n := "", 0
	for _, name := range q.RelationNames() {
		if rel, ok := eng.Relation(name); ok && rel.Len() > n {
			target, n = name, rel.Len()
		}
	}
	if target == "" {
		return fmt.Errorf("-fault: no registered relation in query")
	}
	policy := source.RetryPolicy{MaxAttempts: 4, Backoff: 0.5}
	switch mode {
	case "transient":
		eng.InjectFaults(target, source.NewFaultSchedule(
			source.Fault{At: n / 3, Kind: source.FaultTransient, Times: 2}))
	case "stall":
		eng.InjectFaults(target, source.NewFaultSchedule(
			source.Fault{At: n / 4, Kind: source.FaultStall, Stall: 5}))
	case "dead":
		eng.InjectFaults(target, source.NewFaultSchedule(
			source.Fault{At: n / 2, Kind: source.FaultPermanent}))
	case "failover":
		mirror, _ := eng.Relation(target)
		policy.Mirror = mirror
		policy.FailoverDelay = 2
		eng.InjectFaults(target, source.NewFaultSchedule(
			source.Fault{At: n / 2, Kind: source.FaultPermanent}))
	case "random":
		eng.InjectFaults(target, source.RandomFaults(n, 6, 3.0, seed))
	default:
		return fmt.Errorf("unknown -fault mode %q (transient|stall|dead|failover|random)", mode)
	}
	o.SourcePolicies = map[string]source.RetryPolicy{target: policy}
	fmt.Printf("injecting %s fault(s) into %s (%d tuples)\n", mode, target, n)
	return nil
}

// printEvent renders one adaptive-execution event for the live
// narrative shared by -stream and -standing runs.
func printEvent(ev core.Event) {
	switch e := ev.(type) {
	case core.PhaseStarted:
		fmt.Printf("[%8.3fs] phase %d started (P=%d): %s\n", e.VirtualSeconds, e.Phase, e.Partitions, e.Plan)
	case core.PlanSwitched:
		fmt.Printf("[%8.3fs] plan switch: cand %.3g + stitch %.3g < %.3g remaining\n             %s\n          -> %s\n",
			e.VirtualSeconds, e.CandidateCost, e.StitchPenalty, e.CurrentRemaining, e.From, e.To)
	case core.StitchUpStarted:
		fmt.Printf("[%8.3fs] stitch-up over %d phases\n", e.VirtualSeconds, e.Phases)
	case core.PartitionStats:
		fmt.Printf("[%8.3fs] phase %d partition seconds: %v\n", e.VirtualSeconds, e.Phase, e.Seconds)
	case core.RowsDelivered:
		fmt.Printf("[%8.3fs] %d rows delivered\n", e.VirtualSeconds, e.Rows)
	case core.SourceStalled:
		fmt.Printf("[%8.3fs] source %s stalled %.3fs at tuple %d\n", e.VirtualSeconds, e.Source, e.Seconds, e.Tuple)
	case core.SourceRetried:
		fmt.Printf("[%8.3fs] source %s retry %d at tuple %d (backoff %.3fs)\n", e.VirtualSeconds, e.Source, e.Attempt, e.Tuple, e.Backoff)
	case core.SourceFailedOver:
		fmt.Printf("[%8.3fs] source %s failed over to mirror at tuple %d\n", e.VirtualSeconds, e.Source, e.Tuple)
	case core.SourceAbandoned:
		fmt.Printf("[%8.3fs] source %s ABANDONED at tuple %d (partial=%v): %v\n", e.VirtualSeconds, e.Source, e.Tuple, e.Partial, e.Err)
	case core.MaintenanceStarted:
		fmt.Printf("[%8.3fs] maintenance started over deltas: %v\n", e.VirtualSeconds, e.Relations)
	case core.UpdateWatermark:
		fmt.Printf("[%8.3fs] watermark seq %d: %d updates (%d delta rows so far)\n", e.VirtualSeconds, e.Seq, e.Updates, e.DeltaRows)
	}
}

// runStreaming consumes the streaming cursor: the event subscription
// prints adaptive-execution progress as it happens, and rows are counted
// (and a prefix echoed) as they arrive — before the run completes.
func runStreaming(eng *engine.Engine, q *algebra.Query, o core.Options, limit int) (*core.Report, error) {
	s, err := eng.Stream(context.Background(), q, engine.WithOptions(o))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	events := s.Events()
	eventsDone := make(chan struct{})
	go func() {
		defer close(eventsDone)
		for ev := range events {
			printEvent(ev)
		}
	}()
	shown := 0
	for tup, rerr := range s.Rows() {
		if rerr != nil {
			<-eventsDone
			return nil, rerr
		}
		if shown < limit {
			fmt.Printf("  row %d: %s\n", shown, types.Tuple(tup))
			shown++
		}
	}
	rep, err := s.Report()
	<-eventsDone // event channel closes once the finished log is drained
	return rep, err
}

// standingScript builds a deterministic churn script against the
// query's largest relation: odd positions re-insert a random existing
// row (bumping its multiplicity), even positions retract one — a
// retraction of an already-deleted row exercises the ingress clamp.
func standingScript(eng *engine.Engine, q *algebra.Query, seed int64, deltaN int) (string, []source.Delta, error) {
	target, n := "", 0
	var rows []types.Tuple
	for _, name := range q.RelationNames() {
		if rel, ok := eng.Relation(name); ok && rel.Len() > n {
			target, n = name, rel.Len()
			rows = rel.Rows
		}
	}
	if target == "" {
		return "", nil, fmt.Errorf("-standing: no registered relation in query")
	}
	rng := rand.New(rand.NewSource(seed))
	script := make([]source.Delta, 0, deltaN)
	at := 0.0
	for i := 0; i < deltaN; i++ {
		at += 0.01
		row := rows[rng.Intn(n)].Clone()
		sign := 1
		if i%2 == 1 {
			sign = -1
		}
		script = append(script, source.Delta{Row: row, Sign: sign, At: at})
	}
	return target, script, nil
}

// runStanding registers the query as a standing view, feeds it the
// seeded delta script, and narrates signed revision updates and
// watermark windows as maintenance emits them, finishing with the
// maintained view and its delta accounting.
func runStanding(eng *engine.Engine, q *algebra.Query, o core.Options, limit int, seed int64, deltaN int) error {
	target, script, err := standingScript(eng, q, seed, deltaN)
	if err != nil {
		return err
	}
	fmt.Printf("standing %s: %d deltas into %s\n", q.Name, len(script), target)
	sq, err := eng.RegisterStanding(context.Background(), q,
		map[string][]source.Delta{target: script}, engine.WithOptions(o))
	if err != nil {
		return err
	}
	defer sq.Close()
	events := sq.Events()
	eventsDone := make(chan struct{})
	go func() {
		defer close(eventsDone)
		for ev := range events {
			printEvent(ev)
		}
	}()
	// The baseline window (seq 0) is the initial result.
	shown := 0
	for {
		win, ok := sq.NextWindow()
		if !ok {
			break
		}
		for _, u := range win.Updates {
			if shown >= limit {
				continue
			}
			sign := "+"
			if u.Sign < 0 {
				sign = "-"
			}
			fmt.Printf("  %s %s  (seq %d)\n", sign, u.Row, win.Watermark.Seq)
			shown++
		}
	}
	rep, err := sq.Report()
	<-eventsDone
	if err != nil {
		return err
	}

	fmt.Printf("\n%s standing view — %d maintained rows\n", q.Name, len(rep.Maintained))
	fmt.Print(engine.FormatRows(rep.Schema, rep.Maintained, limit))
	fmt.Printf("\nmaintenance report:\n")
	fmt.Printf("  virtual time   %.3fs (cpu %.3fs, wall %.3fs)\n",
		rep.VirtualSeconds, rep.CPUSeconds, rep.RealSeconds)
	fmt.Printf("  updates        %d revisions over %d delta rows (%d clamped)\n",
		rep.UpdateCount, rep.DeltaRows, rep.DeltaClamped)
	fmt.Printf("  plan switches  %d initial, %d during maintenance\n", rep.Switches, rep.MaintSwitches)
	fmt.Printf("  set-up         %d rows pushed again to build a maintenance tree (0: the initial run's tree was adopted)\n", rep.MaintReplayed)
	for name, st := range rep.SourceFaults {
		fmt.Printf("  faults[%s]  transients %d, stalls %d (%.3fs), retries %d (%.3fs backoff)",
			name, st.Transients, st.Stalls, st.StallSeconds, st.Retries, st.BackoffSeconds)
		if st.FailedOver {
			fmt.Print(", failed over to mirror")
		}
		fmt.Println()
	}
	return nil
}
