package sample

import (
	"math"
	"sync"

	"bandjoin/internal/data"
)

// Columns is the sorted columnar view of one sample relation: per dimension
// the contiguous column of its values and the stable argsort of that column.
// A relation stores its rows row-major, so reading one dimension of scattered
// rows touches a cache line per value; the planner reads exactly that way —
// one dimension of a leaf's rows at a time, in sorted order — and through a
// column its gathers stay inside n·8 bytes. The argsort is what the planner's
// sort inheritance starts from; it depends only on the rows, so it is computed
// once per relation instead of once per plan.
//
// A built Columns is immutable and safe for concurrent readers. The zero value
// is ready for Build, which reuses the storage of an earlier build.
type Columns struct {
	n     int
	vals  []float64 // dims columns of n values: vals[d*n+i] is row i's value on d
	order []int32   // dims argsorts of n row indices
}

// NewColumns builds the view of r into fresh storage.
func NewColumns(r *data.Relation) *Columns {
	c := &Columns{}
	c.Build(r)
	return c
}

// Build fills c with the view of r: the transposed values, and per dimension
// the row indices 0..n-1 sorted by that dimension's value, ties by index.
func (c *Columns) Build(r *data.Relation) {
	n, dims := r.Len(), r.Dims()
	c.n = n
	c.vals = resize(c.vals, n*dims)
	c.order = resize(c.order, n*dims)
	if n == 0 {
		return
	}
	keys := r.KeysRange(0, n)
	sc := radixPool.Get().(*radixScratch)
	for d := 0; d < dims; d++ {
		col := c.Col(d)
		for i := range col {
			col[i] = keys[i*dims+d]
		}
		sc.argsort(col, c.Order(d))
	}
	radixPool.Put(sc)
}

// Col returns dimension d's values in row order: Col(d)[i] == r.KeyAt(i, d).
func (c *Columns) Col(d int) []float64 { return c.vals[d*c.n : (d+1)*c.n] }

// Order returns the row indices sorted ascending by dimension d's value, ties
// by index.
func (c *Columns) Order(d int) []int32 { return c.order[d*c.n : (d+1)*c.n] }

// ColumnsBytes is the resident size of the view of a rows × dims relation: an
// 8-byte value and a 4-byte index per key, one and a half times the key bytes.
func ColumnsBytes(rows, dims int) int64 { return int64(rows) * int64(dims) * 12 }

// radixScratch holds the buffers of one argsort; they are pooled so that
// building the per-plan output columns allocates nothing in the steady state.
type radixScratch struct {
	keys, keys2 []uint64
	idx, idx2   []int32
}

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// argsort writes the indices 0..len(col)-1 sorted by col's value (ties by
// index) into out, using a stable byte-wise LSD radix sort over the
// order-preserving integer encoding of the float keys. Byte positions on
// which every key agrees are skipped, so the near-constant exponent bytes of
// typical samples cost only their histogram pass.
func (sc *radixScratch) argsort(col []float64, out []int32) {
	n := len(col)
	keys, tmpK := resize(sc.keys, n), resize(sc.keys2, n)
	idx, tmpI := resize(sc.idx, n), resize(sc.idx2, n)
	for i, v := range col {
		keys[i] = floatSortKey(v)
		idx[i] = int32(i)
	}
	for shift := 0; shift < 64; shift += 8 {
		var count [256]int
		for _, k := range keys {
			count[byte(k>>shift)]++
		}
		if count[byte(keys[0]>>shift)] == n {
			continue // all keys share this byte
		}
		pos := 0
		var start [256]int
		for b := 0; b < 256; b++ {
			start[b] = pos
			pos += count[b]
		}
		for i, k := range keys {
			b := byte(k >> shift)
			tmpK[start[b]] = k
			tmpI[start[b]] = idx[i]
			start[b]++
		}
		keys, tmpK = tmpK, keys
		idx, tmpI = tmpI, idx
	}
	copy(out, idx)
	// The buffers may have swapped an odd number of times; either way the
	// scratch keeps all four.
	sc.keys, sc.keys2 = keys, tmpK
	sc.idx, sc.idx2 = idx, tmpI
}

// floatSortKey maps a float64 to a uint64 whose unsigned order matches the
// float order (negative values are bit-complemented, positives get the sign
// bit set).
func floatSortKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// resize returns buf with length n, reusing its storage when large enough;
// the contents are unspecified.
func resize[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}
