package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// fold is the order-insensitive digest of a signed row stream: rows are
// grouped on their int and string columns (exact), and each group keeps
// its signed count and the signed sum of every float column. Two streams
// agree when they have the same groups with the same counts and their
// float sums are within 1e-9 relative — corrective phases and partition
// merges reorder float additions, so sums may differ in the last bits.
type fold struct {
	schema    *types.Schema
	keyCols   []int
	floatCols []int
	groups    map[string]*foldGroup
	keyBuf    []byte
}

type foldGroup struct {
	count int64
	sums  []float64
	// mag is the sum of absolute values folded in, the scale the
	// tolerance is relative to (a retracted group sums to ~0).
	mag float64
}

func newFold(schema *types.Schema) *fold {
	f := &fold{schema: schema, groups: map[string]*foldGroup{}}
	for i, c := range schema.Cols {
		if c.Kind == types.KindFloat {
			f.floatCols = append(f.floatCols, i)
		} else {
			f.keyCols = append(f.keyCols, i)
		}
	}
	return f
}

func (f *fold) add(row types.Tuple, sign int) {
	f.keyBuf = types.AppendKey(f.keyBuf[:0], row, f.keyCols)
	g := f.groups[string(f.keyBuf)]
	if g == nil {
		g = &foldGroup{sums: make([]float64, len(f.floatCols))}
		f.groups[string(f.keyBuf)] = g
	}
	g.count += int64(sign)
	for i, c := range f.floatCols {
		g.sums[i] += float64(sign) * row[c].F
		g.mag += math.Abs(row[c].F)
	}
}

// rows is the folded multiset's size.
func (f *fold) rows() int64 {
	var n int64
	for _, g := range f.groups {
		n += g.count
	}
	return n
}

// equal reports the first disagreement between an observed fold and the
// reference, nil when they agree.
func (f *fold) equal(ref *fold) error {
	live := 0
	for k, g := range f.groups {
		if g.count == 0 {
			for _, s := range g.sums {
				if math.Abs(s) > 1e-9*math.Max(g.mag, 1) {
					return fmt.Errorf("retracted group %q keeps float sum %g", k, s)
				}
			}
			continue
		}
		live++
		r := ref.groups[k]
		if r == nil {
			return fmt.Errorf("group %q (count %d) is not in the reference", k, g.count)
		}
		if g.count != r.count {
			return fmt.Errorf("group %q has count %d, reference %d", k, g.count, r.count)
		}
		for i, s := range g.sums {
			if math.Abs(s-r.sums[i]) > 1e-9*math.Max(math.Abs(r.sums[i]), 1) {
				return fmt.Errorf("group %q float column %d sums to %.17g, reference %.17g", k, f.floatCols[i], s, r.sums[i])
			}
		}
	}
	if live != len(ref.groups) {
		return fmt.Errorf("%d groups, reference %d", live, len(ref.groups))
	}
	return nil
}

// foldBody folds the row and update frames of a captured NDJSON body.
// This is the slow, parsing side of the oracle: it runs on a warm-up op
// and on measured ops whose byte digest is new, never inside a timing.
func foldBody(schema *types.Schema, body []byte) (*fold, error) {
	f := newFold(schema)
	var frame struct {
		Sign   *int              `json:"sign"`
		Values []json.RawMessage `json:"values"`
	}
	row := make(types.Tuple, schema.Len())
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		frame.Sign, frame.Values = nil, frame.Values[:0]
		if err := json.Unmarshal(line, &frame); err != nil {
			return nil, fmt.Errorf("frame %q: %w", line, err)
		}
		if len(frame.Values) != schema.Len() {
			return nil, fmt.Errorf("frame %q has %d values, schema %d", line, len(frame.Values), schema.Len())
		}
		for i, raw := range frame.Values {
			v, err := parseValue(raw, schema.Cols[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("frame %q column %d: %w", line, i, err)
			}
			row[i] = v
		}
		sign := 1
		if frame.Sign != nil {
			sign = *frame.Sign
		}
		f.add(row, sign)
	}
	return f, nil
}

func parseValue(raw []byte, k types.Kind) (types.Value, error) {
	if string(raw) == "null" {
		return types.Null(), nil
	}
	switch k {
	case types.KindInt:
		i, err := strconv.ParseInt(string(raw), 10, 64)
		return types.Int(i), err
	case types.KindFloat:
		x, err := strconv.ParseFloat(string(raw), 64)
		return types.Float(x), err
	default:
		var s string
		err := json.Unmarshal(raw, &s)
		return types.Str(s), err
	}
}

// reference is what every op of a run is checked against. It comes from
// code the op does not run: a direct Engine.Execute, static and serial,
// on plainly registered relations — for the standing workload over the
// lineitem the delta script leaves behind.
type reference struct {
	schema *types.Schema
	// rows is the expected final result (the maintained view for the
	// standing workload).
	rows []types.Tuple
	want *fold
	// clamped is how many of the script's retractions must be dropped at
	// ingress for matching no live row.
	clamped int64
}

func newReference(in *inputs) (*reference, error) {
	rels := in.data.Relations()
	ref := &reference{}
	if in.spec.standing {
		li, clamped := applyScript(in.data.Lineitem, in.script)
		patched := make(map[string]*source.Relation, len(rels))
		for name, rel := range rels {
			patched[name] = rel
		}
		patched["lineitem"] = li
		rels, ref.clamped = patched, clamped
	}
	rep, err := plainEngine(rels, true).Execute(in.query, core.Options{Strategy: core.Static})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	ref.schema, ref.rows = rep.Schema, rep.Rows
	ref.want = newFold(rep.Schema)
	for _, r := range rep.Rows {
		ref.want.add(r, +1)
	}
	return ref, nil
}

// applyScript applies a delta script to a copy of rel under the ingress
// clamp: a retraction of a row with no live occurrence is dropped and
// counted. It keeps its own multiset so the reference shares nothing
// with ivm.BaseTracker.
func applyScript(rel *source.Relation, script []source.Delta) (*source.Relation, int64) {
	live := make(map[string]int, len(rel.Rows))
	var buf []byte
	key := func(t types.Tuple) string {
		buf = types.AppendKeyAll(buf[:0], t)
		return string(buf)
	}
	for _, r := range rel.Rows {
		live[key(r)]++
	}
	var clamped int64
	history := append([]types.Tuple(nil), rel.Rows...)
	for _, d := range script {
		k := key(d.Row)
		switch {
		case d.Sign > 0:
			live[k]++
			history = append(history, d.Row)
		case live[k] > 0:
			live[k]--
		default:
			clamped++
		}
	}
	// Emit each row as often as it is still live, in first-seen order.
	rows := make([]types.Tuple, 0, len(history))
	for _, r := range history {
		k := key(r)
		if live[k] > 0 {
			live[k]--
			rows = append(rows, r)
		}
	}
	return source.NewRelation(rel.Name, rel.Schema, rows), clamped
}
