package ivm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// lawValues are values that compare equal, or not at all, yet are distinct
// rows: Int(1), Float(1) and Str("1"); the two zeros; NaN; NULL and the
// empty string.
var lawValues = []types.Value{
	types.Int(1), types.Float(1), types.Str("1"),
	types.Float(0), types.Float(math.Copysign(0, -1)),
	types.Float(math.NaN()), types.Null(), types.Str(""),
	types.Int(-7), types.Float(2.5), types.Str("b"),
}

// lawRows is every pair of lawValues: 121 distinct rows.
func lawRows() []types.Tuple {
	var rows []types.Tuple
	for _, a := range lawValues {
		for _, b := range lawValues {
			rows = append(rows, types.Tuple{a, b})
		}
	}
	return rows
}

// ident renders a row's strict identity — kind and payload bits of every
// value — without the key codec the package under test uses.
func ident(t types.Tuple) string {
	var sb strings.Builder
	for _, v := range t {
		switch v.K {
		case types.KindInt:
			fmt.Fprintf(&sb, "i%d|", v.I)
		case types.KindFloat:
			fmt.Fprintf(&sb, "f%016x|", math.Float64bits(v.F))
		case types.KindString:
			fmt.Fprintf(&sb, "s%q|", v.S)
		default:
			sb.WriteString("null|")
		}
	}
	return sb.String()
}

func idents(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = ident(r)
	}
	return out
}

// randomUpdates draws n signed updates over lawRows, retractions included
// whether or not anything was asserted.
func randomUpdates(rng *rand.Rand, n int) []Update {
	rows := lawRows()
	us := make([]Update, n)
	for i := range us {
		sign := 1
		if rng.Intn(3) == 0 {
			sign = -1
		}
		us[i] = Update{Row: rows[rng.Intn(len(rows))], Sign: sign}
	}
	return us
}

// model folds updates the plain way: a count per identity.
func model(us []Update) map[string]int {
	counts := map[string]int{}
	for _, u := range us {
		counts[ident(u.Row)] += u.Sign
	}
	return counts
}

// TestFoldLaws: Fold is Apply, one update at a time; the order of the
// updates does not show; Negative is true exactly when some row's count
// ends below zero, and Rows and Len see only the rows whose count ends
// above it, each as often as its count.
func TestFoldLaws(t *testing.T) {
	sawNegative, sawClean := false, false
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A random retraction rarely finds its row asserted, so most seeds
		// end negative; every fourth seed only asserts, so both verdicts
		// are exercised.
		us := randomUpdates(rng, 1+rng.Intn(300))
		if seed%4 == 0 {
			for i := range us {
				us[i].Sign = 1
			}
		}
		folded := Fold(us)

		applied := NewMultiset()
		for _, u := range us {
			applied.Apply(u)
		}
		shuffled := slices.Clone(us)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		reordered := Fold(shuffled)

		want := model(us)
		var wantRows []string
		wantLen, wantNeg := 0, false
		for id, c := range want {
			if c < 0 {
				wantNeg = true
			}
			for i := 0; i < c; i++ {
				wantRows = append(wantRows, id)
				wantLen++
			}
		}
		slices.Sort(wantRows)
		sawNegative = sawNegative || wantNeg
		sawClean = sawClean || !wantNeg

		for name, m := range map[string]*Multiset{"Fold": folded, "Apply one by one": applied, "Fold of a permutation": reordered} {
			if m.Negative() != wantNeg {
				t.Errorf("seed %d, %s: Negative() = %v, model says %v", seed, name, m.Negative(), wantNeg)
			}
			if m.Len() != wantLen {
				t.Errorf("seed %d, %s: Len() = %d, model says %d", seed, name, m.Len(), wantLen)
			}
			got := idents(m.Rows())
			if !slices.Equal(got, idents(folded.Rows())) {
				t.Errorf("seed %d, %s: Rows() differ from Fold's", seed, name)
			}
			slices.Sort(got)
			if !slices.Equal(got, wantRows) {
				t.Errorf("seed %d, %s: Rows() are not the model's positive rows", seed, name)
			}
		}
	}
	if !sawNegative || !sawClean {
		t.Fatalf("fixture exercised negative=%v clean=%v; want both", sawNegative, sawClean)
	}
}

// TestRowsIsSortedRowsOfTheSameRows: the canonical form of a fold is, byte
// for byte, types.SortedRows of the rows it stands for built from scratch — on
// rows that differ only in kind, in the sign of zero, or by being NaN or
// NULL.
func TestRowsIsSortedRowsOfTheSameRows(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := lawRows()
		var scratch []types.Tuple
		m := NewMultiset()
		for i := 0; i < 400; i++ {
			r := rows[rng.Intn(len(rows))]
			scratch = append(scratch, r)
			m.Add(r, 1)
		}
		// Retract a third of them again, from both sides.
		rng.Shuffle(len(scratch), func(i, j int) { scratch[i], scratch[j] = scratch[j], scratch[i] })
		for _, r := range scratch[:len(scratch)/3] {
			m.Add(r, -1)
		}
		scratch = scratch[len(scratch)/3:]

		got, want := idents(m.Rows()), idents(types.SortedRows(scratch))
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: Rows() of the fold and SortedRows of the same %d rows differ", seed, len(scratch))
		}
		if m.Negative() {
			t.Fatalf("seed %d: retracting asserted rows left a negative count", seed)
		}
	}
	// All eleven law values are distinct rows to both.
	var singles []types.Tuple
	for _, v := range lawValues {
		singles = append(singles, types.Tuple{v})
	}
	m := NewMultiset()
	for _, r := range singles {
		m.Add(r, 1)
	}
	if got := len(slices.Compact(idents(m.Rows()))); got != len(lawValues) {
		t.Errorf("a fold keeps %d of %d distinct one-value rows apart", got, len(lawValues))
	}
}

// TestBaseTrackerClamp: removing a row that is not live is refused and
// changes nothing; a row added k times can be removed k times and no more;
// a row can come back after it is gone.
func TestBaseTrackerClamp(t *testing.T) {
	tr := NewBaseTracker()
	rows := lawRows()
	for _, r := range rows {
		if tr.Remove(r) {
			t.Fatalf("Remove(%v) on an empty tracker reported a live row", r)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("refused removes left Len() = %d", tr.Len())
	}

	rng := rand.New(rand.NewSource(1))
	live := map[string]int{}
	total := 0
	for i := 0; i < 5000; i++ {
		r := rows[rng.Intn(len(rows))]
		id := ident(r)
		if rng.Intn(2) == 0 {
			tr.Add(r)
			live[id]++
			total++
		} else {
			ok := tr.Remove(r)
			if ok != (live[id] > 0) {
				t.Fatalf("step %d: Remove(%v) = %v with %d live", i, r, ok, live[id])
			}
			if ok {
				live[id]--
				total--
			}
		}
		if tr.Len() != total {
			t.Fatalf("step %d: Len() = %d, model says %d", i, tr.Len(), total)
		}
	}

	// Add, remove, re-add: the second life is as good as the first.
	one := NewBaseTracker()
	r := types.Tuple{types.Float(math.NaN()), types.Str("1")}
	for life := 0; life < 3; life++ {
		one.Add(r)
		one.Add(r)
		if !one.Remove(r) || !one.Remove(r) {
			t.Fatalf("life %d: a row added twice could not be removed twice", life)
		}
		if one.Remove(r) || one.Len() != 0 {
			t.Fatalf("life %d: a third remove succeeded or Len() = %d", life, one.Len())
		}
	}
	// Rows that only compare equal do not stand in for each other.
	one.Add(types.Tuple{types.Int(1)})
	if one.Remove(types.Tuple{types.Float(1)}) || one.Remove(types.Tuple{types.Str("1")}) {
		t.Error("Float(1) or Str(\"1\") removed the live Int(1)")
	}
	if one.Len() != 1 {
		t.Errorf("Len() = %d after refused removes, want 1", one.Len())
	}
}

// TestMultisetHoldsLiveRowsOnly: a row whose count returns to zero leaves
// the multiset, so folding a stream holds no more than the rows still live
// — and a retraction that matched nothing still stays, for Negative.
func TestMultisetHoldsLiveRowsOnly(t *testing.T) {
	m := NewMultiset()
	for i := 0; i < 10_000; i++ {
		m.Add(types.Tuple{types.Int(int64(i)), types.Str("x")}, 1)
	}
	for i := 0; i < 10_000; i++ {
		m.Add(types.Tuple{types.Int(int64(i)), types.Str("x")}, -1)
	}
	if len(m.counts) != 0 || m.Len() != 0 || m.Negative() {
		t.Fatalf("after inserting and deleting 10 000 rows: %d entries, Len %d, Negative %v", len(m.counts), m.Len(), m.Negative())
	}
	m.Add(types.Tuple{types.Int(7)}, -1)
	if !m.Negative() || len(m.counts) != 1 {
		t.Fatalf("a lone retraction: Negative %v, %d entries", m.Negative(), len(m.counts))
	}
}
