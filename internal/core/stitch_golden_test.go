package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// Stitch-up goldens. Every value below was written by commit 7e491a5, the
// one before stitch-up prefixes went by reference and base partitions
// became the join tables' own lists, on the legs of StitchUp.extend no
// other golden reaches: reuse switched off, an intermediate whose layout
// cannot be adapted (a projection dropped a column) so reuse falls through
// to recomputation, a partition smaller than the prefix it joins (the
// prefix is hashed and the partition scanned) over duplicate and
// cross-kind keys, an empty partition in the middle of a vector, and
// cancellation between combinations. A leg pins its result rows in emit
// order, the stitch-up's counters and the virtual clock, which is serial
// and exact, hence ==.

// stitchLegGolden is what one direct stitch-up evaluation decides.
type stitchLegGolden struct {
	Rows                               string // digest of the rows, in order
	Reused, Discarded, Emitted, Combos int64
	Clock                              int64 // virtual nanoseconds
}

// digestSink renders what it is pushed before the push returns, so the
// stitch-up may reuse the storage of the rows it has delivered.
type digestSink struct {
	rows  []byte
	n     int64
	after func(n int64) // called after every push with the running count
}

func (d *digestSink) CopiesInput() {}

func (d *digestSink) Push(ts []types.Tuple, _ int) {
	d.rows = append(d.rows, bitRows(ts)...)
	d.n += int64(len(ts))
	if d.after != nil {
		d.after(d.n)
	}
}

// stitchGoldenFixture is a chain R(k,tag) - S(rk,tk,tag) - T(k,tag) over a
// small key domain (so keys repeat), with every third R key and every
// fourth S.tk stored as the float of its integer (so equal keys meet
// across kinds), cut into three phases of very unequal sizes: phase 0 holds
// most of R and little of T, phase 2 the reverse, so both the probe-the-
// partition and the hash-the-prefix side of a fold step run.
func stitchGoldenFixture() (*algebra.Query, []*PhaseRecord) {
	rS := types.NewSchema(types.Column{Name: "R.k", Kind: types.KindFloat}, types.Column{Name: "R.tag", Kind: types.KindString})
	sS := types.NewSchema(types.Column{Name: "S.rk", Kind: types.KindInt}, types.Column{Name: "S.tk", Kind: types.KindFloat}, types.Column{Name: "S.tag", Kind: types.KindInt})
	tS := types.NewSchema(types.Column{Name: "T.k", Kind: types.KindInt}, types.Column{Name: "T.tag", Kind: types.KindInt})
	q := &algebra.Query{
		Name:      "stitch-golden",
		Relations: []algebra.RelRef{{Name: "R", Schema: rS}, {Name: "S", Schema: sS}, {Name: "T", Schema: tS}},
		Joins: []algebra.JoinPred{
			{LeftRel: "R", LeftCol: "k", RightRel: "S", RightCol: "rk"},
			{LeftRel: "S", LeftCol: "tk", RightRel: "T", RightCol: "k"},
		},
	}
	recs := make([]*PhaseRecord, 3)
	for p := range recs {
		recs[p] = &PhaseRecord{ID: p, BaseParts: map[string]*state.List{
			"R": state.NewList(rS, new(state.Spare)), "S": state.NewList(sS, new(state.Spare)), "T": state.NewList(tS, new(state.Spare)),
		}, Interm: map[string]*state.List{}}
	}
	rng := rand.New(rand.NewSource(21))
	const dom = 9
	num := func(i int, every int) types.Value {
		k := rng.Int63n(dom)
		if i%every == 0 {
			return types.Float(float64(k))
		}
		return types.Int(k)
	}
	// pick draws a phase with the given weights out of 10.
	pick := func(w0, w1 int) int {
		switch x := rng.Intn(10); {
		case x < w0:
			return 0
		case x < w0+w1:
			return 1
		}
		return 2
	}
	for i := 0; i < 120; i++ {
		recs[pick(7, 2)].BaseParts["R"].Insert(types.Tuple{num(i, 3), types.Str(string(rune('a' + i%26)))})
	}
	for i := 0; i < 90; i++ {
		recs[pick(3, 4)].BaseParts["S"].Insert(types.Tuple{types.Int(rng.Int63n(dom)), num(i, 4), types.Int(int64(i))})
	}
	for i := 0; i < 100; i++ {
		recs[pick(1, 2)].BaseParts["T"].Insert(types.Tuple{types.Int(rng.Int63n(dom)), types.Int(int64(i))})
	}
	return q, recs
}

// joinRS materializes R^p ⋈ S^p in the layout a plan that put S on the
// left would leave it in, optionally without S.tag (a projection below the
// join dropped it, so the result cannot stand in for the prefix).
func joinRS(rec *PhaseRecord, dropTag bool) *state.List {
	cols := []types.Column{{Name: "S.rk", Kind: types.KindInt}, {Name: "S.tk", Kind: types.KindFloat}}
	if !dropTag {
		cols = append(cols, types.Column{Name: "S.tag", Kind: types.KindInt})
	}
	cols = append(cols, types.Column{Name: "R.k", Kind: types.KindFloat}, types.Column{Name: "R.tag", Kind: types.KindString})
	out := state.NewList(types.NewSchema(cols...), new(state.Spare))
	rec.BaseParts["S"].Scan(func(s types.Tuple) bool {
		rec.BaseParts["R"].Scan(func(r types.Tuple) bool {
			if types.Equal(r[0], s[0]) {
				row := types.Tuple{s[0], s[1]}
				if !dropTag {
					row = append(row, s[2])
				}
				out.Insert(append(row, r[0], r[1]))
			}
			return true
		})
		return true
	})
	return out
}

func TestStitchLegGoldens(t *testing.T) {
	rsKey := algebra.CanonKey([]string{"R", "S"})
	legs := []struct {
		name string
		prep func(recs []*PhaseRecord, s *StitchUp, sink *digestSink, cancel context.CancelFunc)
		err  error
		want stitchLegGolden
	}{
		{name: "reuse", prep: func(recs []*PhaseRecord, _ *StitchUp, _ *digestSink, _ context.CancelFunc) {
			recs[0].Interm[rsKey] = joinRS(recs[0], false)
			recs[2].Interm[rsKey] = joinRS(recs[2], false)
		}, want: stitchLegGolden{Rows: "cdc49ce6ebdf9dd3", Reused: 466, Discarded: 0, Emitted: 13412, Combos: 24, Clock: 10906800}},
		{name: "reuse-disabled", prep: func(recs []*PhaseRecord, s *StitchUp, _ *digestSink, _ context.CancelFunc) {
			recs[0].Interm[rsKey] = joinRS(recs[0], false)
			recs[2].Interm[rsKey] = joinRS(recs[2], false)
			s.DisableReuse = true
		}, want: stitchLegGolden{Rows: "4e3d8868521d1689", Reused: 0, Discarded: 466, Emitted: 13412, Combos: 24, Clock: 10967300}},
		{name: "adapter-fails", prep: func(recs []*PhaseRecord, _ *StitchUp, _ *digestSink, _ context.CancelFunc) {
			recs[0].Interm[rsKey] = joinRS(recs[0], true)
			recs[2].Interm[rsKey] = joinRS(recs[2], false)
		}, want: stitchLegGolden{Rows: "cdc49ce6ebdf9dd3", Reused: 37, Discarded: 429, Emitted: 13412, Combos: 24, Clock: 10951900}},
		{name: "empty-partition-mid-vector", prep: func(recs []*PhaseRecord, _ *StitchUp, _ *digestSink, _ context.CancelFunc) {
			recs[0].Interm[rsKey] = joinRS(recs[0], false)
			recs[1].BaseParts["S"] = state.NewList(recs[1].BaseParts["S"].Schema(), new(state.Spare))
			delete(recs[2].BaseParts, "T") // a phase that never saw T at all
		}, want: stitchLegGolden{Rows: "8fac9ea050a1deb5", Reused: 429, Discarded: 0, Emitted: 2527, Combos: 24, Clock: 3049300}},
		{name: "canceled-between-combinations", prep: func(_ []*PhaseRecord, _ *StitchUp, sink *digestSink, cancel context.CancelFunc) {
			sink.after = func(n int64) {
				if n > 2500 {
					cancel()
				}
			}
		}, err: context.Canceled, want: stitchLegGolden{Rows: "a7ba9a531c4c44ab", Reused: 0, Discarded: 0, Emitted: 4212, Combos: 2, Clock: 3315700}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			q, recs := stitchGoldenFixture()
			ectx := exec.NewContext()
			sink := &digestSink{}
			s, err := NewStitchUp(ectx, q, recs, sink)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			leg.prep(recs, s, sink, cancel)
			if err := s.RunContext(ctx); !errors.Is(err, leg.err) {
				t.Fatalf("err = %v, want %v", err, leg.err)
			}
			got := stitchLegGolden{Rows: digest(string(sink.rows)), Reused: s.Reused, Discarded: s.Discarded,
				Emitted: s.Emitted, Combos: int64(s.Combos), Clock: ectx.Clock.Now}
			if sink.n != s.Emitted {
				t.Errorf("sink received %d rows, Emitted = %d", sink.n, s.Emitted)
			}
			if got != leg.want {
				t.Errorf("got  %#v\nwant %#v", got, leg.want)
			}
		})
	}
}

// TestStitchRunGoldensReuseDisabled is TestStitchAccountingGoldens' pair of
// corrective runs with Options.DisableStitchReuse: the same phases and
// rows, every combination recomputed from base partitions, and a stitch-up
// that costs what the recomputation costs.
func TestStitchRunGoldensReuseDisabled(t *testing.T) {
	type runGolden struct {
		stitchGolden
		Rows       string
		StitchTime float64
	}
	run := func(t *testing.T, spj bool) runGolden {
		q, rels := misestimationData(1000)
		if spj {
			q.GroupBy, q.Aggs = nil, nil
			q.Project = []string{"C.k", "A.fk"}
		}
		m := map[string]*source.Relation{}
		for _, r := range rels() {
			m[r.Name] = r
		}
		cat := NewCatalog(m, func(*source.Relation) source.Schedule {
			return source.Bandwidth{TuplesPerSec: 1e5}
		})
		o := misOptions(1)
		o.DisableStitchReuse = true
		rep, err := Run(cat, q, o)
		if err != nil {
			t.Fatal(err)
		}
		return runGolden{stitchGolden: goldenOf(rep), Rows: digest(bitRows(rep.Rows)), StitchTime: rep.StitchTime}
	}
	t.Run("spj", func(t *testing.T) {
		want := runGolden{stitchGolden: stitchGolden{Phases: 2, Switches: 1, Combos: 6, Reused: 0, Discarded: 176375,
			Rows: 240000, Virtual: 0.8017138}, Rows: "94bad3bb74e455b0", StitchTime: 0.3918425}
		if got := run(t, true); got != want {
			t.Errorf("got  %#v\nwant %#v", got, want)
		}
	})
	t.Run("agg", func(t *testing.T) {
		want := runGolden{stitchGolden: stitchGolden{Phases: 2, Switches: 1, Combos: 6, Reused: 0, Discarded: 400000,
			Rows: 1000, Virtual: 1.31945}, Rows: "0ae7de02c204e1ce", StitchTime: 0.17242}
		if got := run(t, false); got != want {
			t.Errorf("got  %#v\nwant %#v", got, want)
		}
	})
}
