package core

import (
	"context"
	"slices"
	"testing"

	"github.com/tukwila/adp/internal/source"
)

// stitchGolden is the part of a Report that stitch-up accounting decides.
type stitchGolden struct {
	Phases, Switches, Combos int
	Reused, Discarded        int64
	Rows                     int
	Virtual                  float64
}

func goldenOf(rep *Report) stitchGolden {
	return stitchGolden{
		Phases: len(rep.Phases), Switches: rep.Switches, Combos: rep.StitchCombos,
		Reused: rep.Reused, Discarded: rep.Discarded, Rows: len(rep.Rows),
		Virtual: rep.VirtualSeconds,
	}
}

// TestStitchAccountingGoldens fixes the values of Reused, Discarded and
// StitchCombos (and the phases, switches, rows and clock they come with)
// on one corrective SPJ and one corrective aggregate fixture at P=1 with
// a forced switch. The sources arrive over equal-bandwidth links so the
// three relations interleave and every phase's root join produces rows —
// over local sources the driver drains A before C and the root joins stay
// empty. The numbers were written by the commit before the root join
// stopped materializing its output, so they pin that a count stands in
// for the dropped list exactly: Discarded still includes every root-join
// row, which stitch-up's exclusion list (§3.4.2) can never reuse. The
// serial virtual clock is exact, hence ==.
func TestStitchAccountingGoldens(t *testing.T) {
	var delivered []int64 // every RowsDelivered watermark of the last run
	run := func(t *testing.T, spj bool) stitchGolden {
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
		delivered = nil
		rep, err := RunStream(context.Background(), cat, q, misOptions(1), RunHooks{Emit: func(ev Event) {
			if rd, ok := ev.(RowsDelivered); ok {
				delivered = append(delivered, rd.Rows)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return goldenOf(rep)
	}
	t.Run("spj", func(t *testing.T) {
		want := stitchGolden{Phases: 2, Switches: 1, Combos: 6, Reused: 56925, Discarded: 119450,
			Rows: 240000, Virtual: 0.8005935}
		if got := run(t, true); got != want {
			t.Errorf("corrective SPJ accounting = %#v, want %#v", got, want)
		}
		// The delivery watermarks fire at polls and phase ends with the
		// cumulative count of root rows, however those rows are batched on
		// their way to a consumer.
		wantDelivered := []int64{885, 3539, 8000, 14205, 22179, 32000, 43525, 56819, 57704, 60357,
			64779, 71024, 78997, 88739, 100344, 118984, 240000}
		if !slices.Equal(delivered, wantDelivered) {
			t.Errorf("RowsDelivered counts = %#v, want %#v", delivered, wantDelivered)
		}
	})
	t.Run("agg", func(t *testing.T) {
		want := stitchGolden{Phases: 2, Switches: 1, Combos: 6, Reused: 200000, Discarded: 200000,
			Rows: 1000, Virtual: 1.31735}
		if got := run(t, false); got != want {
			t.Errorf("corrective aggregate accounting = %#v, want %#v", got, want)
		}
	})
}
