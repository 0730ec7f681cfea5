package data

import (
	"fmt"
	"math"
	"strings"
)

// Region is an axis-aligned hyper-rectangle of the join-attribute space,
// closed on the lower side and open on the upper side: [Lo[i], Hi[i]) per
// dimension. Unbounded sides are represented by ±Inf. Half-open intervals
// ensure that recursive splits produce regions that tile the space exactly,
// so every key belongs to exactly one leaf region of a split tree.
type Region struct {
	Lo []float64
	Hi []float64
}

// NewRegion returns a region with the given bounds, copying the slices.
func NewRegion(lo, hi []float64) Region {
	if len(lo) != len(hi) {
		panic(fmt.Sprintf("data: region bounds must have equal length, got %d and %d", len(lo), len(hi)))
	}
	l := make([]float64, len(lo))
	h := make([]float64, len(hi))
	copy(l, lo)
	copy(h, hi)
	return Region{Lo: l, Hi: h}
}

// Dims returns the dimensionality of the region.
func (r Region) Dims() int { return len(r.Lo) }

// Clone returns a deep copy of the region.
func (r Region) Clone() Region {
	return NewRegion(r.Lo, r.Hi)
}

// Contains reports whether the key lies in the region (lower-closed,
// upper-open; an upper bound of +Inf is treated as unbounded and therefore
// closed).
func (r Region) Contains(key []float64) bool {
	for i, v := range key {
		if v < r.Lo[i] {
			return false
		}
		if v >= r.Hi[i] && !math.IsInf(r.Hi[i], 1) {
			return false
		}
	}
	return true
}

// Extent returns Hi[i]-Lo[i] for dimension i (may be +Inf).
func (r Region) Extent(i int) float64 { return r.Hi[i] - r.Lo[i] }

// SplitAt returns the two sub-regions obtained by splitting at value x in
// dimension dim: the "left" child covers [Lo, x) in dim, the "right" child
// covers [x, Hi).
func (r Region) SplitAt(dim int, x float64) (left, right Region) {
	left = r.Clone()
	right = r.Clone()
	left.Hi[dim] = x
	right.Lo[dim] = x
	return left, right
}

// IsSmall reports whether the region is "small" with respect to the band
// condition (Section 4.2): its extent is at most twice the band width εᵢ
// (i.e. at most Low[i]+High[i]) in every dimension, so that virtually all
// tuples in the region join with each other. A region with any unbounded side
// is never small, and with band width zero a dimension is only small once it
// has collapsed to a single value.
func (r Region) IsSmall(b Band) bool {
	for i := range r.Lo {
		if !r.SmallInDim(i, b) {
			return false
		}
	}
	return true
}

// SmallInDim reports whether the region is small in dimension i only, i.e. no
// further recursive splitting in that dimension is allowed.
func (r Region) SmallInDim(i int, b Band) bool {
	if math.IsInf(r.Lo[i], 0) || math.IsInf(r.Hi[i], 0) {
		return false
	}
	if b.Width(i) == 0 {
		return r.Extent(i) <= 0
	}
	return r.Extent(i) <= b.Width(i)
}

// String implements fmt.Stringer.
func (r Region) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := range r.Lo {
		if i > 0 {
			sb.WriteString(" x ")
		}
		fmt.Fprintf(&sb, "[%g,%g)", r.Lo[i], r.Hi[i])
	}
	sb.WriteByte(']')
	return sb.String()
}
