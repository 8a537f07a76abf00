package types

// Columnar (struct-of-arrays) batches. Operators pass rows to each other
// as row batches ([]Tuple), signed or not, and nothing in the engine builds
// a ColBatch: it stores rows as per-column value arrays for the kernel
// probes of the benchmark module, which push columnar batches through the
// exec package's columnar shims and time the key kernel below, HashKeys,
// which folds a whole batch's key columns into a reused hash vector
// column-at-a-time instead of hashing tuple-by-tuple.
//
// Ownership contract: a ColBatch handed to a consumer is only valid for
// the duration of the call (like a row batch). Consumers that retain rows
// must materialize them as tuples (ReadRow / ToRows), which copies the
// values out.

// ColBatch is a struct-of-arrays tuple batch: cols[j][i] is column j of
// row i. All columns have identical length.
type ColBatch struct {
	cols [][]Value
	n    int
}

// Len returns the row count.
func (b *ColBatch) Len() int { return b.n }

// Width returns the column count.
func (b *ColBatch) Width() int { return len(b.cols) }

// Col returns the dense storage of column j (callers must not grow it).
func (b *ColBatch) Col(j int) []Value { return b.cols[j] }

// FromRows transposes a row batch of the given width into a fresh columnar
// batch (the row→column bridge).
func FromRows(ts []Tuple, width int) *ColBatch {
	b := &ColBatch{cols: make([][]Value, width), n: len(ts)}
	for j := range b.cols {
		b.cols[j] = make([]Value, len(ts))
		for i, t := range ts {
			b.cols[j][i] = t[j]
		}
	}
	return b
}

// ReadRow materializes row i into dst (which must have the batch's
// width), copying the values out of columnar storage.
func (b *ColBatch) ReadRow(dst Tuple, i int) {
	for j := range b.cols {
		dst[j] = b.cols[j][i]
	}
}

// ToRows materializes every row, appending to dst (the column→row
// bridge). Each returned tuple owns its storage.
func (b *ColBatch) ToRows(dst []Tuple) []Tuple {
	for i := 0; i < b.n; i++ {
		t := make(Tuple, len(b.cols))
		b.ReadRow(t, i)
		dst = append(dst, t)
	}
	return dst
}

// HashKeys hashes the key columns of every row of b into dst, reusing
// dst's storage when its capacity suffices (pass the previous result for
// allocation-free steady state). Unlike per-tuple Tuple.HashKey calls it
// runs column-at-a-time: the hash vector is seeded once, then each key
// column's dense value array is folded into every row's lane in one
// sequential sweep — the struct-of-arrays layout keeps those sweeps on
// contiguous memory. dst[i] equals what row i's Tuple.HashKey(cols) would
// return.
//
//adp:hotpath gated by BenchmarkHashKeys (scripts/check_allocs.sh)
func HashKeys(dst []uint64, b *ColBatch, cols []int) []uint64 {
	n := b.n
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = fnvOffset
	}
	for _, c := range cols {
		col := b.Col(c)
		for i := 0; i < n; i++ {
			dst[i] = HashValue(dst[i], col[i])
		}
	}
	return dst
}
