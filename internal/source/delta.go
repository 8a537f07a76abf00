// Delta streams for incremental view maintenance. A standing query runs
// its initial phase over the base relations, then keeps its result
// maintained as sources push signed changes — inserts and deletes —
// after the initial run. NewDeltaProvider adapts a script of such changes
// into an ordinary Provider over the *delta relation*: the base schema
// extended with a trailing sign column (+1 insert, -1 delete), every row
// stamped with a virtual arrival time. Because the delta stream is just
// a Provider, the whole PR 6 fault stack composes unchanged: wrap a
// delta provider in Faulty and delta delivery can stall, fail
// transiently, or fail over to a mirror delta relation at the consumed
// watermark — with the same determinism contract as base sources.
package source

import (
	"fmt"
	"slices"

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
// DeltaRelation and NewDeltaProvider read a Row in place when the value
// just past it, within its capacity, is types.Int of its sign; such a row
// must not be written while they are read.
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
// signed schema, reading rows in that layout in place (see Delta) and
// copying the others into one slab. The relation is what a mirror failover
// target for a delta source looks like: RetryPolicy.Mirror takes a
// *Relation, so a faulty delta stream fails over to another copy of the
// same script.
func DeltaRelation(name string, base *types.Schema, deltas []Delta) *Relation {
	deltas = signed(deltas)
	rows := make([]types.Tuple, len(deltas))
	for i, d := range deltas {
		rows[i] = signedRow(d)
	}
	return NewRelation(name, DeltaSchema(base), rows)
}

// signed returns the script with every row in the delta relation's layout
// (see Delta): deltas itself when they all are, else a copy whose rows
// not in it are copied, signs included, into one slab.
func signed(deltas []Delta) []Delta {
	n := 0
	for _, d := range deltas {
		if !inPlace(d) {
			n += len(d.Row) + 1
		}
	}
	if n == 0 {
		return deltas
	}
	out := slices.Clone(deltas)
	slab := make([]types.Value, 0, n) // the copied rows' values, signs included, in one allocation
	for i, d := range out {
		if !inPlace(d) {
			w := len(d.Row)
			slab = append(append(slab, d.Row...), signValue(d.Sign))
			out[i].Row = slab[len(slab)-w-1 : len(slab)-1 : len(slab)]
		}
	}
	return out
}

// inPlace reports whether d's row is laid out as its delta-relation row:
// the value just past it, within its capacity, is its sign.
func inPlace(d Delta) bool {
	w := len(d.Row)
	return cap(d.Row) > w && d.Row[:w+1][w] == signValue(d.Sign)
}

// signedRow is the delta-relation row of a delta that is in place.
func signedRow(d Delta) types.Tuple {
	w := len(d.Row) + 1
	return d.Row[:w:w]
}

// signValue is a delta's sign column value: -1 for a negative sign, else +1.
func signValue(s int) types.Value {
	if s < 0 {
		return types.Int(-1)
	}
	return types.Int(1)
}

// NewDeltaProvider builds the delta stream of base from a script of
// signed changes: a Provider over the script's delta relation, each row
// arriving at its change's stamp. Its Name is the base source's, so the
// maintenance driver routes deltas to the plan leaf reading that relation
// without extra mapping; its Schema is the base schema plus the sign
// column. Changes deliver in script order with their stamped arrival
// times; the availability-ordered driver interleaves multiple relations'
// delta streams by those stamps exactly as it interleaves base sources,
// and Faulty composes on top without knowing it is wrapping deltas. Rows
// whose width does not match the base schema are rejected. The provider
// reads the script in place, rows and stamps, when every row is in the
// delta relation's layout (see Delta), and a copy of it otherwise.
func NewDeltaProvider(base Provider, deltas []Delta) (Provider, error) {
	bs := base.Schema()
	for i, d := range deltas {
		if len(d.Row) != bs.Len() {
			return nil, fmt.Errorf("source: delta %d for %q has width %d, base schema %v has %d",
				i, base.Name(), len(d.Row), bs.Names(), bs.Len())
		}
		if d.Sign == 0 {
			return nil, fmt.Errorf("source: delta %d for %q has sign 0 (want +1 or -1)", i, base.Name())
		}
	}
	return &deltaProvider{name: base.Name(), schema: DeltaSchema(bs), deltas: signed(deltas)}, nil
}

// deltaProvider is the Provider over a delta script whose rows are all in
// the delta relation's layout: it delivers them, at their stamps, in place.
type deltaProvider struct {
	name     string
	schema   *types.Schema
	deltas   []Delta
	consumed int
}

func (p *deltaProvider) Name() string          { return p.name }
func (p *deltaProvider) Schema() *types.Schema { return p.schema }
func (p *deltaProvider) Total() int            { return len(p.deltas) }
func (p *deltaProvider) Consumed() int         { return p.consumed }
func (p *deltaProvider) Exhausted() bool       { return p.consumed >= len(p.deltas) }
func (p *deltaProvider) Reset()                { p.consumed = 0 }
func (p *deltaProvider) Faulted() error        { return nil }

func (p *deltaProvider) Next() (Row, bool) {
	if p.consumed >= len(p.deltas) {
		return Row{}, false
	}
	d := p.deltas[p.consumed]
	p.consumed++
	return Row{T: signedRow(d), At: d.At}, true
}

func (p *deltaProvider) PeekArrival() (float64, bool) {
	if p.consumed >= len(p.deltas) {
		return 0, false
	}
	return p.deltas[p.consumed].At, true
}

// MustDeltaProvider is NewDeltaProvider for fixtures with known-good
// scripts; it panics on a malformed script.
func MustDeltaProvider(base Provider, deltas []Delta) Provider {
	dp, err := NewDeltaProvider(base, deltas)
	if err != nil {
		panic(err)
	}
	return dp
}
