package sample

import (
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
	for d := 0; d < dims; d++ {
		col := c.Col(d)
		for i := range col {
			col[i] = keys[i*dims+d]
		}
		data.Argsort(col, c.Order(d))
	}
}

// Col returns dimension d's values in row order: Col(d)[i] == r.KeyAt(i, d).
func (c *Columns) Col(d int) []float64 { return c.vals[d*c.n : (d+1)*c.n] }

// Order returns the row indices sorted ascending by dimension d's value, ties
// by index.
func (c *Columns) Order(d int) []int32 { return c.order[d*c.n : (d+1)*c.n] }

// columnsBytes is the resident size of the view of a rows × dims relation: an
// 8-byte value and a 4-byte index per key, one and a half times the key bytes.
func columnsBytes(rows, dims int) int64 { return int64(rows) * int64(dims) * 12 }

// resize returns buf with length n, reusing its storage when large enough;
// the contents are unspecified.
func resize[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}
