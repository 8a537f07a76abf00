// Delta streams for incremental view maintenance. A standing query runs
// its initial phase over the base relations, then keeps its result
// maintained as sources push signed changes — inserts and deletes —
// after the initial run. A DeltaProvider adapts a script of such changes
// into an ordinary Provider over the *delta relation*: the base schema
// extended with a trailing sign column (+1 insert, -1 delete), every row
// stamped with a virtual arrival time. Because the delta stream is just
// a Provider, the whole PR 6 fault stack composes unchanged: wrap a
// DeltaProvider in Faulty and delta delivery can stall, fail
// transiently, or fail over to a mirror delta relation at the consumed
// watermark — with the same determinism contract as base sources.
package source

import (
	"fmt"

	"github.com/tukwila/adp/internal/types"
)

// SignCol is the trailing sign column name of a delta relation. The
// column is an int, +1 for an insert and -1 for a delete; it exists only
// at the source/wire boundary — the maintenance driver strips it before
// pushing rows into the operator tree, where signs travel out of band
// per batch.
const SignCol = "__delta_sign"

// Delta is one signed change to a base relation: Row is a full
// base-schema tuple, Sign is +1 (insert) or -1 (delete), At is the
// virtual arrival time of the change. Deletes carry the entire row, not
// a key: multiset semantics remove one matching duplicate per delete.
type Delta struct {
	Row  types.Tuple
	Sign int
	At   float64
}

// Ins builds an insert delta arriving at the given virtual time.
func Ins(at float64, vals ...types.Value) Delta {
	return Delta{Row: types.Tuple(vals), Sign: +1, At: at}
}

// Del builds a delete delta arriving at the given virtual time.
func Del(at float64, vals ...types.Value) Delta {
	return Delta{Row: types.Tuple(vals), Sign: -1, At: at}
}

// Stamped is a Schedule with explicit per-tuple arrival times (the
// delta-script schedule: each change arrives exactly when scripted).
// Indexes beyond the stamped range repeat the final stamp.
type Stamped struct {
	Arrivals []float64
}

// ArrivalAt implements Schedule.
func (s Stamped) ArrivalAt(i int) float64 {
	if i < len(s.Arrivals) {
		return s.Arrivals[i]
	}
	if len(s.Arrivals) == 0 {
		return 0
	}
	return s.Arrivals[len(s.Arrivals)-1]
}

// DeltaSchema returns the delta relation's schema: the base columns
// followed by the int sign column.
func DeltaSchema(base *types.Schema) *types.Schema {
	cols := make([]types.Column, 0, base.Len()+1)
	cols = append(cols, base.Cols...)
	cols = append(cols, types.Column{Name: SignCol, Kind: types.KindInt})
	return types.NewSchema(cols...)
}

// SplitSign decodes one delta-relation row into its base-schema prefix
// and sign. The returned tuple aliases t's storage.
func SplitSign(t types.Tuple) (row types.Tuple, sign int) {
	w := len(t) - 1
	return t[:w:w], int(t[w].I)
}

// DeltaRelation materializes a delta script as a Relation over the
// signed schema. The relation is what a mirror failover target for a
// delta source looks like: RetryPolicy.Mirror takes a *Relation, so a
// faulty delta stream fails over to another copy of the same script.
func DeltaRelation(name string, base *types.Schema, deltas []Delta) *Relation {
	rows := make([]types.Tuple, len(deltas))
	n := 0
	for _, d := range deltas {
		n += len(d.Row) + 1
	}
	slab := make([]types.Value, n) // every row's values, signs included, in one allocation
	for i, d := range deltas {
		w := len(d.Row) + 1
		row := slab[:w:w]
		slab = slab[w:]
		copy(row, d.Row)
		sign := d.Sign
		if sign >= 0 {
			sign = 1
		} else {
			sign = -1
		}
		row[len(d.Row)] = types.Int(int64(sign))
		rows[i] = row
	}
	return NewRelation(name, DeltaSchema(base), rows)
}

// DeltaProvider is a Provider over the signed delta stream of one base
// source. It wraps the base provider only to derive identity and layout:
// Name matches the base (so the maintenance driver can route deltas to
// the plan leaf reading that relation), Schema is the base schema plus
// the sign column, and every delta row is validated against the base
// width at construction. Delivery itself is an ordinary scheduled read
// over the materialized script, so Faulty composes on top without
// knowing it is wrapping deltas.
type DeltaProvider struct {
	base  *types.Schema
	inner Provider
}

// NewDeltaProvider builds the delta stream of base from a script of
// signed changes. Changes deliver in script order with their stamped
// arrival times; the availability-ordered driver interleaves multiple
// relations' delta streams by those stamps exactly as it interleaves
// base sources. Rows whose width does not match the base schema are
// rejected.
func NewDeltaProvider(base Provider, deltas []Delta) (*DeltaProvider, error) {
	bs := base.Schema()
	arr := make([]float64, len(deltas))
	for i, d := range deltas {
		if len(d.Row) != bs.Len() {
			return nil, fmt.Errorf("source: delta %d for %q has width %d, base schema %v has %d",
				i, base.Name(), len(d.Row), bs.Names(), bs.Len())
		}
		if d.Sign == 0 {
			return nil, fmt.Errorf("source: delta %d for %q has sign 0 (want +1 or -1)", i, base.Name())
		}
		arr[i] = d.At
	}
	rel := DeltaRelation(base.Name(), bs, deltas)
	return &DeltaProvider{
		base:  bs,
		inner: NewProvider(rel, Stamped{Arrivals: arr}),
	}, nil
}

// MustDeltaProvider is NewDeltaProvider for fixtures with known-good
// scripts; it panics on a malformed script.
func MustDeltaProvider(base Provider, deltas []Delta) *DeltaProvider {
	dp, err := NewDeltaProvider(base, deltas)
	if err != nil {
		panic(err)
	}
	return dp
}

// Name implements Provider: the base source's name, so delta routing by
// relation name needs no extra mapping.
func (d *DeltaProvider) Name() string { return d.inner.Name() }

// Schema implements Provider: the signed delta schema.
func (d *DeltaProvider) Schema() *types.Schema { return d.inner.Schema() }

// Total implements Provider.
func (d *DeltaProvider) Total() int { return d.inner.Total() }

// Consumed implements Provider.
func (d *DeltaProvider) Consumed() int { return d.inner.Consumed() }

// Exhausted implements Provider.
func (d *DeltaProvider) Exhausted() bool { return d.inner.Exhausted() }

// Next implements Provider.
func (d *DeltaProvider) Next() (Row, bool) { return d.inner.Next() }

// PeekArrival implements Provider.
func (d *DeltaProvider) PeekArrival() (float64, bool) { return d.inner.PeekArrival() }

// Reset implements Provider.
func (d *DeltaProvider) Reset() { d.inner.Reset() }

// Faulted implements Provider: the plain delta stream never faults
// (wrap in Faulty for that).
func (d *DeltaProvider) Faulted() error { return d.inner.Faulted() }
