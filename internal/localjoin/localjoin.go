// Package localjoin implements the band-join each worker runs on its local
// partition after the shuffle. There is one kernel, the local ε-grid (see
// EpsGrid): the T side is bucketed into cells of one band extent per side on
// up to four dimensions — exact-key cells on a dimension of width zero, one
// dimension for a one-dimensional band — and every S-tuple probes the cells
// its band region can intersect. The paper (Section 6.1) uses an
// index-nested-loop that range-partitions T on A1 and probes with binary
// search; in one dimension the grid does exactly that, and on more it filters
// on several dimensions at once. A block nested loop serves as the definition
// oracle and as the join of partitions too small for a structure to pay off.
// Every pair is produced exactly once.
//
// The kernel implements the band condition as data.Band.Matches defines it on
// every float64 input: a NaN key matches nothing, ±Inf keys follow IEEE
// arithmetic.
package localjoin

import (
	"fmt"
	"math"
	"slices"

	"bandjoin/internal/data"
)

// Emit receives one join result: the S-key, the T-key, and their tuple IDs in
// the local partition relations. Passing a nil Emit to a Join computes the
// result cardinality only, which is what the benchmark harness uses to avoid
// materializing billions of pairs.
type Emit func(sIdx, tIdx int, sKey, tKey []float64)

// nestedLoopMax is the side size up to which the nested loop beats building a
// grid: Prepare and PrepareOnce return nil for such partitions.
const nestedLoopMax = 32

// Join computes the band-join of s and t once, invoking emit (if non-nil) for
// every matching pair, and returns the number of result pairs: the ε-grid
// built by PrepareOnce and released after the probe, or the nested loop where
// PrepareOnce returns nil.
func Join(s, t *data.Relation, band data.Band, emit Emit) int64 {
	p := PrepareOnce(s, t, band)
	if p == nil {
		return NestedLoop{}.Join(s, t, band, emit)
	}
	count := p.Probe(s, emit)
	Release(p)
	return count
}

// ---------------------------------------------------------------------------
// Block nested loop (reference implementation)

// NestedLoop is the quadratic reference algorithm. It is used by tests as the
// ground truth and for partitions too small for a grid to pay off.
type NestedLoop struct{}

// Join runs the nested loop over all of S.
func (NestedLoop) Join(s, t *data.Relation, band data.Band, emit Emit) int64 {
	return NestedLoop{}.JoinRange(s, t, band, 0, s.Len(), emit)
}

// JoinRange runs the outer loop over S indices [lo, hi) only: the emissions of
// consecutive ranges concatenate to Join's.
func (NestedLoop) JoinRange(s, t *data.Relation, band data.Band, lo, hi int, emit Emit) int64 {
	var count int64
	for i := lo; i < hi; i++ {
		sk := s.Key(i)
		for j := 0; j < t.Len(); j++ {
			tk := t.Key(j)
			if band.Matches(sk, tk) {
				count++
				if emit != nil {
					emit(i, j, sk, tk)
				}
			}
		}
	}
	return count
}

// ---------------------------------------------------------------------------
// Shared helpers

// keyIdx is one element of a flat sort array: a key together with its index.
// Sorting these 16-byte records keeps the comparisons on contiguous memory,
// unlike sorting an index slice whose comparator chases the key through the
// relation on every comparison.
type keyIdx struct {
	key float64
	idx int32
}

// resize returns buf with length n, reusing its storage when large enough;
// the contents are unspecified.
func resize[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}

// sortKeyIdx sorts buf by key, NaN last, ties by index: a total order, so the
// result does not depend on the sort algorithm.
func sortKeyIdx(buf []keyIdx) {
	slices.SortFunc(buf, func(a, b keyIdx) int {
		if c := cmpNaNLast(a.key, b.key); c != 0 {
			return c
		}
		return int(a.idx - b.idx)
	})
}

// cmpNaNLast orders float64 keys ascending with NaN keys last (and equal to
// each other), so the searches over a sorted run see a consistently sorted
// prefix.
func cmpNaNLast(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	switch aNaN, bNaN := a != a, b != b; {
	case aNaN == bNaN:
		return 0
	case aNaN:
		return 1
	default:
		return -1
	}
}

// checkRows panics when a partition of n tuples does not fit the kernel's
// int32 local indices.
func checkRows(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("localjoin: partition of %d tuples exceeds the 2^31-1 local index range", n))
	}
}

// Dim0Order returns r's tuple indices in dimension-0 order, NaN last (ties in
// whatever order the sort leaves them, which is deterministic). A caller that
// needs a kernel-independent order of the matches of one S-tuple ranks them by
// it.
func Dim0Order(r *data.Relation) []int32 {
	checkRows(r.Len())
	pairs := make([]keyIdx, r.Len())
	for i := range pairs {
		pairs[i] = keyIdx{key: r.KeyAt(i, 0), idx: int32(i)}
	}
	slices.SortFunc(pairs, func(a, b keyIdx) int { return cmpNaNLast(a.key, b.key) })
	order := make([]int32, len(pairs))
	for pos, p := range pairs {
		order[pos] = p.idx
	}
	return order
}

// searchRowsGE returns the first of n sorted rows, dims values apart in rows,
// whose leading key is >= x (callers slice rows to put the sort dimension
// first). NaN keys, sorted last, count as above every x.
func searchRowsGE(rows []float64, dims, n int, x float64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid*dims] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchRowsGT is searchRowsGE for the first row whose leading key is > x.
func searchRowsGT(rows []float64, dims, n int, x float64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid*dims] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// matchesFrom checks the band condition for dimensions [from, d), stopping at
// the first that fails: the dimensions past the leading grid dimensions,
// which scanCells tests itself without branches. It is the predicate of
// data.Band.MatchesDim, spelled out because the call — inlined or not —
// compiles to a slower probe loop (+15% on a 2-d serving workload).
func matchesFrom(band data.Band, sk, tk []float64, from int) bool {
	for d := from; d < len(sk); d++ {
		if !(tk[d] >= sk[d]-band.Low[d] && tk[d] <= sk[d]+band.High[d]) {
			return false
		}
	}
	return true
}
