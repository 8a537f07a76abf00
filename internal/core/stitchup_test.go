package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// stitchFixture builds a 3-relation chain query A(k)-B(ak,ck)-C(k) and
// random relations, partitions each relation's rows across n phases by a
// random assignment, and returns everything needed to evaluate the ADP
// identity directly.
type stitchFixture struct {
	q       *algebra.Query
	rows    map[string][]types.Tuple
	schemas map[string]*types.Schema
}

func newStitchFixture(seed int64, nA, nB, nC int, dom int64) *stitchFixture {
	rng := rand.New(rand.NewSource(seed))
	aS := types.NewSchema(types.Column{Name: "A.k", Kind: types.KindInt})
	bS := types.NewSchema(
		types.Column{Name: "B.ak", Kind: types.KindInt},
		types.Column{Name: "B.ck", Kind: types.KindInt},
	)
	cS := types.NewSchema(types.Column{Name: "C.k", Kind: types.KindInt})
	f := &stitchFixture{
		q: &algebra.Query{
			Name: "chain",
			Relations: []algebra.RelRef{
				{Name: "A", Schema: aS}, {Name: "B", Schema: bS}, {Name: "C", Schema: cS},
			},
			Joins: []algebra.JoinPred{
				{LeftRel: "A", LeftCol: "k", RightRel: "B", RightCol: "ak"},
				{LeftRel: "B", LeftCol: "ck", RightRel: "C", RightCol: "k"},
			},
		},
		rows:    map[string][]types.Tuple{},
		schemas: map[string]*types.Schema{"A": aS, "B": bS, "C": cS},
	}
	for i := 0; i < nA; i++ {
		f.rows["A"] = append(f.rows["A"], types.Tuple{types.Int(rng.Int63n(dom))})
	}
	for i := 0; i < nB; i++ {
		f.rows["B"] = append(f.rows["B"], types.Tuple{types.Int(rng.Int63n(dom)), types.Int(rng.Int63n(dom))})
	}
	for i := 0; i < nC; i++ {
		f.rows["C"] = append(f.rows["C"], types.Tuple{types.Int(rng.Int63n(dom))})
	}
	return f
}

// fullJoinCount is the reference: |A ⋈ B ⋈ C|.
func (f *stitchFixture) fullJoinCount() int {
	n := 0
	for _, a := range f.rows["A"] {
		for _, b := range f.rows["B"] {
			if a[0].I != b[0].I {
				continue
			}
			for _, c := range f.rows["C"] {
				if b[1].I == c[0].I {
					n++
				}
			}
		}
	}
	return n
}

// phaseJoinCount computes |A^p ⋈ B^p ⋈ C^p| for one phase's partitions.
func phaseJoinCount(parts map[string]*state.List) int {
	n := 0
	parts["A"].Scan(func(a types.Tuple) bool {
		parts["B"].Scan(func(b types.Tuple) bool {
			if a[0].I != b[0].I {
				return true
			}
			parts["C"].Scan(func(c types.Tuple) bool {
				if b[1].I == c[0].I {
					n++
				}
				return true
			})
			return true
		})
		return true
	})
	return n
}

// partition splits the fixture's rows into n phases by the given random
// seed, producing PhaseRecords with base partitions only (no
// intermediates).
func (f *stitchFixture) partition(n int, seed int64) []*PhaseRecord {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*PhaseRecord, n)
	for p := 0; p < n; p++ {
		recs[p] = &PhaseRecord{
			ID:        p,
			BaseParts: map[string]*state.List{},
			Interm:    map[string]*state.List{},
		}
		for name, schema := range f.schemas {
			recs[p].BaseParts[name] = state.NewList(schema)
		}
	}
	for name, rows := range f.rows {
		for _, r := range rows {
			recs[rng.Intn(n)].BaseParts[name].Insert(r)
		}
	}
	return recs
}

func TestADPIdentityProperty(t *testing.T) {
	// The algebraic foundation (§2.3): for ANY partitioning of each
	// relation into n regions, the union of the n matching-superscript
	// joins plus the stitch-up combinations equals the single-plan join.
	check := func(seed int64, phasesIn uint8) bool {
		nPhases := 2 + int(phasesIn%3) // 2..4 phases
		f := newStitchFixture(seed, 40, 60, 40, 12)
		want := f.fullJoinCount()
		recs := f.partition(nPhases, seed+1)

		got := 0
		for _, rec := range recs {
			got += phaseJoinCount(rec.BaseParts)
		}
		ctx := exec.NewContext()
		s, err := NewStitchUp(ctx, f.q, recs, exec.SinkFunc(func(ts []types.Tuple, _ int) { got += len(ts) }))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Logf("seed=%d phases=%d: got %d, want %d", seed, nPhases, got, want)
			return false
		}
		if s.Combos != algebra.CombinationCount(3, nPhases) {
			t.Logf("combos = %d", s.Combos)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Error(err)
	}
}

func TestStitchUpReusesMaterializedIntermediates(t *testing.T) {
	f := newStitchFixture(5, 50, 80, 50, 10)
	recs := f.partition(2, 6)
	// Materialize A^0 ⋈ B^0 as phase 0's intermediate, in a permuted
	// column order to force adapter use (B columns first).
	permuted := types.NewSchema(
		types.Column{Name: "B.ak", Kind: types.KindInt},
		types.Column{Name: "B.ck", Kind: types.KindInt},
		types.Column{Name: "A.k", Kind: types.KindInt},
	)
	interm := state.NewList(permuted)
	recs[0].BaseParts["A"].Scan(func(a types.Tuple) bool {
		recs[0].BaseParts["B"].Scan(func(b types.Tuple) bool {
			if a[0].I == b[0].I {
				interm.Insert(types.Tuple{b[0], b[1], a[0]})
			}
			return true
		})
		return true
	})
	recs[0].Interm[algebra.CanonKey([]string{"A", "B"})] = interm

	want := f.fullJoinCount()
	total := 0
	for _, rec := range recs {
		total += phaseJoinCount(rec.BaseParts)
	}
	ctx := exec.NewContext()
	s, err := NewStitchUp(ctx, f.q, recs, exec.SinkFunc(func(ts []types.Tuple, _ int) { total += len(ts) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("with reuse: got %d, want %d", total, want)
	}
	if s.Reused == 0 && interm.Len() > 0 {
		t.Error("materialized intermediate was not reused")
	}
	if s.Discarded != 0 && s.Reused > 0 {
		// The single intermediate was touched, so nothing is discarded.
		t.Errorf("Discarded = %d with a reused intermediate", s.Discarded)
	}
}

func TestStitchUpDisableReuseIgnoresIntermediates(t *testing.T) {
	// Registered intermediates are trusted when reuse is on; with reuse
	// disabled they must be ignored entirely — a deliberately bogus
	// (empty) intermediate proves the ablation path never consults it.
	f := newStitchFixture(7, 40, 60, 40, 8)
	recs := f.partition(3, 8)
	junk := state.NewList(f.schemas["A"].Concat(f.schemas["B"]))
	recs[0].Interm[algebra.CanonKey([]string{"A", "B"})] = junk

	want := f.fullJoinCount()
	total := 0
	for _, rec := range recs {
		total += phaseJoinCount(rec.BaseParts)
	}
	ctx := exec.NewContext()
	s, err := NewStitchUp(ctx, f.q, recs, exec.SinkFunc(func(ts []types.Tuple, _ int) { total += len(ts) }))
	if err != nil {
		t.Fatal(err)
	}
	s.DisableReuse = true
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("disable-reuse: got %d, want %d", total, want)
	}
	if s.Reused != 0 {
		t.Error("reuse disabled but Reused > 0")
	}
}

func TestStitchUpFoldOrderConnected(t *testing.T) {
	f := newStitchFixture(9, 5, 5, 5, 4)
	recs := f.partition(2, 10)
	ctx := exec.NewContext()
	s, err := NewStitchUp(ctx, f.q, recs, exec.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Every prefix of the fold order must be join-connected.
	if len(s.Order) != 3 {
		t.Fatalf("Order = %v", s.Order)
	}
	if s.Schema.Len() != 4 {
		t.Errorf("stitch schema = %v", s.Schema)
	}
}

func TestStitchUpSinglePhaseNoop(t *testing.T) {
	f := newStitchFixture(11, 10, 10, 10, 4)
	recs := f.partition(1, 12)
	ctx := exec.NewContext()
	n := 0
	s, err := NewStitchUp(ctx, f.q, recs, exec.SinkFunc(func(ts []types.Tuple, _ int) { n += len(ts) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n != 0 || s.Combos != 0 {
		t.Error("single phase must not produce stitch-up work")
	}
}

func TestStitchUpEmptyPartitions(t *testing.T) {
	f := newStitchFixture(13, 30, 40, 30, 6)
	recs := f.partition(2, 14)
	// Empty one relation's phase-1 partition by moving its rows into
	// phase 0 (simulates a source exhausted before the switch: every A
	// tuple was routed to the first plan).
	recs[1].BaseParts["A"].Scan(func(tp types.Tuple) bool {
		recs[0].BaseParts["A"].Insert(tp)
		return true
	})
	recs[1].BaseParts["A"] = state.NewList(f.schemas["A"])

	want := f.fullJoinCount()
	total := 0
	for _, rec := range recs {
		total += phaseJoinCount(rec.BaseParts)
	}
	ctx := exec.NewContext()
	s, err := NewStitchUp(ctx, f.q, recs, exec.SinkFunc(func(ts []types.Tuple, _ int) { total += len(ts) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("empty partition: got %d, want %d", total, want)
	}
}

// TestBasePartitionIsTheJoinsList: source data is buffered once. Through a
// forced-switch corrective run at P=1, after every phase, the base
// partition of every relation whose scan feeds a join side directly is
// that side's own list — the same pointer, holding exactly the rows that
// passed the leaf — and only a relation under a pre-aggregate has a list
// captured beside the tree.
func TestBasePartitionIsTheJoinsList(t *testing.T) {
	for name, mode := range map[string]opt.PreAggMode{"none": opt.PreAggNone, "windowed": opt.PreAggWindowed} {
		t.Run(name, func(t *testing.T) {
			fx := sharedKeyFixture(7)
			o := forcedSwitching(Options{PreAgg: mode, Known: fx.known})
			ex, _, err := prepareRun(nil, fx.cat(), fx.q, o, RunHooks{})
			if err != nil {
				t.Fatal(err)
			}
			initial, err := opt.Optimize(opt.Inputs{Query: fx.q, Known: o.Known, Cost: ex.ctx.Cost, PreAgg: mode})
			if err != nil {
				t.Fatal(err)
			}
			shared, captured := 0, 0
			for plan, exhausted := initial.Root, false; !exhausted; {
				ph, err := ex.lowerPhase(plan)
				if err != nil {
					t.Fatal(err)
				}
				if exhausted, plan, err = ex.runMonitored(ph); err != nil {
					t.Fatal(err)
				}
				rec := ex.phases[len(ex.phases)-1]
				passed := map[string]int{}
				for _, l := range ph.leaves {
					passed[l.Provider.Name()] = int(l.Passed)
				}
				direct := map[string]*state.List{} // relation -> the join side its scan feeds
				joinLists := map[*state.List]bool{}
				for _, jp := range algebra.CollectJoins(rec.Plan) {
					tj, ok := ph.trees[0].JoinFor(jp.Key())
					if !ok {
						t.Fatalf("phase %d: no join node for %s", rec.ID, jp.Key())
					}
					left, _ := tj.Node.SideLists(true)
					right, _ := tj.Node.SideLists(false)
					joinLists[left], joinLists[right] = true, true
					if scan, ok := jp.Left.(*algebra.ScanPlan); ok {
						direct[scan.Rel.Name] = left
					}
					if scan, ok := jp.Right.(*algebra.ScanPlan); ok {
						direct[scan.Rel.Name] = right
					}
				}
				for _, rel := range fx.q.Relations {
					part := rec.BaseParts[rel.Name]
					if part == nil || part.Len() != passed[rel.Name] {
						t.Fatalf("phase %d: base partition of %s = %v, want the %v rows that passed its leaf", rec.ID, rel.Name, part, passed[rel.Name])
					}
					if want := direct[rel.Name]; want != nil {
						shared++
						if part != want {
							t.Errorf("phase %d: base partition of %s is a list of its own, not its join side's", rec.ID, rel.Name)
						}
					} else {
						captured++
						if joinLists[part] {
							t.Errorf("phase %d: %s is not scanned into a join, yet shares one's list", rec.ID, rel.Name)
						}
					}
				}
			}
			if len(ex.phases) < 2 || shared == 0 || (mode == opt.PreAggWindowed) != (captured > 0) {
				t.Fatalf("%d phases, %d shared and %d captured partitions: the fixture no longer reaches both", len(ex.phases), shared, captured)
			}
		})
	}
}
