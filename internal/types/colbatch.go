package types

// Columnar (struct-of-arrays) batches. Operators pass rows to each other
// as row batches ([]Tuple), signed or not; a ColBatch stores rows as
// per-column value arrays for the few places that buffer or scatter them
// in bulk — the partition merge's buffers, Exchange's columnar entry —
// where the key kernels run column-at-a-time over dense storage: HashKeys
// folds a whole batch's key columns into a reused hash vector instead of
// hashing tuple-by-tuple.
//
// Ownership contract: a ColBatch handed to a consumer is only valid for
// the duration of the call (like a row batch), and its storage is reused
// by the producer. Consumers that retain rows must materialize them as
// tuples (ReadRow / AppendRows), which copies the values out.

// ColBatch is a struct-of-arrays tuple batch: cols[j][i] is column j of
// row i. All columns have identical length.
type ColBatch struct {
	cols [][]Value
	n    int
}

// NewColBatch creates an empty batch with the given column count.
func NewColBatch(width int) *ColBatch {
	return &ColBatch{cols: make([][]Value, width)}
}

// Len returns the row count.
func (b *ColBatch) Len() int { return b.n }

// Width returns the column count.
func (b *ColBatch) Width() int { return len(b.cols) }

// Reset empties the batch, retaining column capacity for reuse. Stale
// values are cleared so reused storage does not pin string payloads the
// consumer has already dropped.
func (b *ColBatch) Reset() {
	for j := range b.cols {
		clear(b.cols[j])
		b.cols[j] = b.cols[j][:0]
	}
	b.n = 0
}

// Col returns the dense storage of column j (valid until the next Reset/
// append; callers must not grow it).
func (b *ColBatch) Col(j int) []Value { return b.cols[j] }

// AppendRow transposes one row-major tuple into the batch's columns. The
// tuple's width must equal the batch's.
func (b *ColBatch) AppendRow(t Tuple) {
	for j := range b.cols {
		b.cols[j] = append(b.cols[j], t[j])
	}
	b.n++
}

// AppendRows transposes a row batch into the columns.
func (b *ColBatch) AppendRows(ts []Tuple) {
	for _, t := range ts {
		b.AppendRow(t)
	}
}

// Append appends every row of src (a bulk column-wise copy; widths must
// match). The values are copied out of src's storage, so the appended
// rows survive src's reuse.
func (b *ColBatch) Append(src *ColBatch) {
	for j := range b.cols {
		b.cols[j] = append(b.cols[j], src.cols[j]...)
	}
	b.n += src.n
}

// Gather appends the selected rows of src in sel order. Like HashKeys it
// runs column-at-a-time — each output column is one dense sweep over the
// source column's storage — so a partition scatter gathers P sub-batches
// without ever forming a row.
//
//adp:hotpath gated by BenchmarkExchangePartition (scripts/check_allocs.sh)
func (b *ColBatch) Gather(src *ColBatch, sel []int32) {
	for j := range b.cols {
		sc := src.cols[j]
		dc := b.cols[j]
		for _, i := range sel {
			dc = append(dc, sc[i])
		}
		b.cols[j] = dc
	}
	b.n += len(sel)
}

// SliceInto points dst at rows [lo, hi) of b without copying: dst's
// columns alias b's storage, so dst is valid only until b's next append
// or Reset and must not be appended to. The order-releasing partition
// merge uses it to hand out stable prefixes of an append-only buffer.
func (b *ColBatch) SliceInto(dst *ColBatch, lo, hi int) {
	if cap(dst.cols) < len(b.cols) {
		dst.cols = make([][]Value, len(b.cols))
	}
	dst.cols = dst.cols[:len(b.cols)]
	for j := range b.cols {
		dst.cols[j] = b.cols[j][lo:hi:hi]
	}
	dst.n = hi - lo
}

// FromRows builds a fresh columnar batch from a row batch (the row→column
// bridge; hot paths reuse a ColBatch via Reset+AppendRows instead).
func FromRows(ts []Tuple, width int) *ColBatch {
	b := NewColBatch(width)
	b.AppendRows(ts)
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
