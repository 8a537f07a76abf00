package source

import (
	"math/rand"
	"sort"

	"github.com/tukwila/adp/internal/types"
)

// SortBy returns a copy of rel sorted ascending on the named column —
// used to produce the "bulk loaded with some order" datasets of §5.
func SortBy(rel *Relation, col string) *Relation {
	idx := rel.Schema.MustIndexOf(col)
	out := rel.Clone()
	sort.SliceStable(out.Rows, func(i, j int) bool {
		return types.Compare(out.Rows[i][idx], out.Rows[j][idx]) < 0
	})
	return out
}

// ReorderFraction returns a copy of rel in which approximately frac of the
// tuples have been displaced by random swaps — the paper's "randomly
// swapped 1%, 10%, or 50% of the data" datasets (§5, Figure 5). Each swap
// displaces two tuples, so frac*len/2 swaps are performed.
func ReorderFraction(rel *Relation, frac float64, seed int64) *Relation {
	out := rel.Clone()
	n := len(out.Rows)
	if n < 2 || frac <= 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	swaps := int(frac * float64(n) / 2)
	for s := 0; s < swaps; s++ {
		i, j := rng.Intn(n), rng.Intn(n)
		out.Rows[i], out.Rows[j] = out.Rows[j], out.Rows[i]
	}
	return out
}

// Shuffle returns a fully random permutation of rel ("stored in randomly
// distributed order", Example 2.1).
func Shuffle(rel *Relation, seed int64) *Relation {
	out := rel.Clone()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out.Rows), func(i, j int) {
		out.Rows[i], out.Rows[j] = out.Rows[j], out.Rows[i]
	})
	return out
}

// SortednessAsc measures the fraction of adjacent pairs in ascending
// order on col (diagnostic used by reorder tests and experiments).
func SortednessAsc(rel *Relation, col string) float64 {
	idx := rel.Schema.MustIndexOf(col)
	if len(rel.Rows) < 2 {
		return 1
	}
	asc := 0
	for i := 1; i < len(rel.Rows); i++ {
		if types.Compare(rel.Rows[i-1][idx], rel.Rows[i][idx]) <= 0 {
			asc++
		}
	}
	return float64(asc) / float64(len(rel.Rows)-1)
}
