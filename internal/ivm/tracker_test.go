package ivm

import (
	"math"
	"testing"

	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/types"
)

// stringKeyTracker is BaseTracker as commit e11d2be had it: a count per row,
// keyed by the row's key-codec bytes.
type stringKeyTracker struct {
	counts map[string]int64
	keyBuf []byte
}

func newStringKeyTracker() *stringKeyTracker {
	return &stringKeyTracker{counts: make(map[string]int64)}
}

func (t *stringKeyTracker) Add(row types.Tuple) {
	t.keyBuf = types.AppendKeyAll(t.keyBuf[:0], row)
	t.counts[string(t.keyBuf)]++
}

func (t *stringKeyTracker) Remove(row types.Tuple) bool {
	t.keyBuf = types.AppendKeyAll(t.keyBuf[:0], row)
	c := t.counts[string(t.keyBuf)]
	if c <= 0 {
		return false
	}
	if c == 1 {
		delete(t.counts, string(t.keyBuf))
	} else {
		t.counts[string(t.keyBuf)] = c - 1
	}
	return true
}

func (t *stringKeyTracker) Len() int {
	n := int64(0)
	for _, c := range t.counts {
		n += c
	}
	return int(n)
}

// trackerValues are lawValues plus what else tells the two identities apart
// if anything does: NaNs with other payloads, an integral float beside its
// int, an infinity, zero as an int.
var trackerValues = append(append([]types.Value(nil), lawValues...),
	types.Float(math.Float64frombits(0x7ff8000000000001)),
	types.Float(math.Float64frombits(0xfff0000000000042)),
	types.Float(-7), types.Int(0), types.Float(math.Inf(-1)),
)

// FuzzBaseTracker: over any sequence of adds and removes of rows one to
// eight values wide, Remove answers and Len counts as the string-key tracker
// does at every step. The data is read as ops: a byte whose low bit picks
// Remove over Add and whose second bit picks a fresh copy of an earlier row
// (its NaNs swapped for another payload) over a new one; a new row is a
// width byte and that many value bytes.
func FuzzBaseTracker(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 1, 5})
	f.Add([]byte{0, 0, 3, 2, 4, 6, 0, 3, 5, 3, 4, 6, 2, 0, 3, 1, 2})
	f.Add([]byte{0, 7, 0, 1, 2, 3, 4, 5, 6, 7, 2, 0, 3, 0, 1, 0, 7, 0, 1, 2, 3, 4, 5, 6, 7, 1, 0, 1, 7, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 5, 0, 0, 12, 1, 0, 13, 1, 0, 6, 3, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, model := NewBaseTracker(), newStringKeyTracker()
		var seen []types.Tuple
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		for step := 0; ; step++ {
			op, ok := next()
			if !ok {
				return
			}
			var row types.Tuple
			if op&2 != 0 && len(seen) > 0 {
				pick, _ := next()
				row = seen[int(pick)%len(seen)].Clone()
				for i, v := range row {
					if v.K == types.KindFloat && math.IsNaN(v.F) {
						row[i] = types.Float(math.Float64frombits(math.Float64bits(v.F) ^ 1))
					}
				}
			} else {
				w, _ := next()
				row = make(types.Tuple, 1+int(w)%8)
				for i := range row {
					b, _ := next()
					row[i] = trackerValues[int(b)%len(trackerValues)]
				}
				seen = append(seen, row)
			}
			if op&1 != 0 {
				if got, want := tr.Remove(row), model.Remove(row); got != want {
					t.Fatalf("step %d: Remove(%v) = %v, string-key tracker says %v", step, row, got, want)
				}
			} else {
				tr.Add(row)
				model.Add(row)
			}
			if got, want := tr.Len(), model.Len(); got != want {
				t.Fatalf("step %d: Len() = %d, string-key tracker says %d", step, got, want)
			}
		}
	})
}

// BenchmarkBaseTrackerSeed is a standing query's tracker seed on
// standing_churn's base: every lineitem row of TPC-H SF 0.005 (30 113 rows,
// eight columns) added once.
func BenchmarkBaseTrackerSeed(b *testing.B) {
	rows := datagen.Generate(datagen.Config{ScaleFactor: 0.005, Seed: 42}).Lineitem.Rows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewBaseTracker()
		for _, r := range rows {
			tr.Add(r)
		}
		if tr.Len() != len(rows) {
			b.Fatalf("Len() = %d after %d adds", tr.Len(), len(rows))
		}
	}
}
