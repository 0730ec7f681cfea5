// Package localjoin implements the band-join algorithms each worker runs on
// its local partition after the shuffle. The paper (Section 6.1) uses an
// index-nested-loop algorithm that range-partitions T on the most selective
// dimension A1 with ranges of size ε1 and probes with binary search; a
// sorted-scan variant is used for Grid-ε partitions, and a block nested loop
// serves as the correctness reference. All algorithms produce each matching
// pair exactly once.
//
// SortProbe and GridSortScan are allocation-free in the steady state: sort
// scratch (flat (key, index) pair buffers and a dimension-0-sorted copy of
// the partition rows) is reused through a sync.Pool, the pairs are sorted
// with slices.SortFunc over a concrete element type instead of sort.Slice
// with closure comparators, and the probe loop scans contiguous rows with no
// index indirection. Auto, the executor's default, picks per partition among
// the nested loop (tiny inputs), the k-dimensional local ε-grid
// (multi-dimensional bands; k chosen per build from the cell load), the sorted
// probe (1D), and the sliding-window sorted scan. The nested loop is the one
// correctness oracle.
//
// All algorithms implement the band condition as data.Band.Matches defines it
// on every float64 input: a NaN key matches nothing, ±Inf keys follow IEEE
// arithmetic.
package localjoin

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"bandjoin/internal/data"
)

// Emit receives one join result: the S-key, the T-key, and their tuple IDs in
// the local partition relations. Passing a nil Emit to a Join computes the
// result cardinality only, which is what the benchmark harness uses to avoid
// materializing billions of pairs.
type Emit func(sIdx, tIdx int, sKey, tKey []float64)

// Algorithm is a local band-join algorithm.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Join computes the band-join of s and t, invoking emit (if non-nil) for
	// every matching pair, and returns the number of result pairs.
	Join(s, t *data.Relation, band data.Band, emit Emit) int64
}

// RangeJoiner is an Algorithm whose probe loop can be restricted to a
// contiguous range of its own probe order. JoinRange(s, t, band, lo, hi, emit)
// runs positions [lo, hi) of the exact probe sequence Join(s, t, band, emit)
// would run: concatenating the emissions of consecutive ranges covering
// [0, probe-domain) reproduces Join's output bit-identically, which is what
// lets the morsel scheduler stripe one partition across workers and still
// merge a deterministic result. The probe domain is S — raw S indices for the
// probe-style algorithms, dim-0-sorted S positions for the sorted scan — so
// the domain size is always s.Len(). Emission is per-S-tuple; no pair crosses
// a range boundary.
type RangeJoiner interface {
	Algorithm
	JoinRange(s, t *data.Relation, band data.Band, lo, hi int, emit Emit) int64
}

// ---------------------------------------------------------------------------
// Block nested loop (reference implementation)

// NestedLoop is the quadratic reference algorithm. It is used by tests as the
// ground truth and by workers for very small partitions where sorting is not
// worthwhile.
type NestedLoop struct{}

// Name implements Algorithm.
func (NestedLoop) Name() string { return "nested-loop" }

// Join implements Algorithm.
func (NestedLoop) Join(s, t *data.Relation, band data.Band, emit Emit) int64 {
	return NestedLoop{}.JoinRange(s, t, band, 0, s.Len(), emit)
}

// JoinRange implements RangeJoiner: the outer loop restricted to S indices
// [lo, hi).
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
// Sort scratch shared by the fast algorithms

// keyIdx is one element of the flat sort arrays: the dimension-0 key of a
// tuple together with its index in the partition relation. Sorting and
// scanning these 16-byte records keeps the probe loop on contiguous memory,
// unlike sorting an []int index slice whose comparator chases the key through
// the relation on every comparison.
type keyIdx struct {
	key float64
	idx int32
}

// sortedRel is a partition relation re-materialized in dimension-0 order:
// rows holds all key rows contiguously (row-major) sorted by dimension 0, and
// perm maps a sorted position back to the original tuple index (needed only
// when pairs are emitted). Gathering the rows once turns every probe's
// candidate scan into a purely sequential read — the original implementations
// chased an index indirection into the relation for every candidate.
type sortedRel struct {
	rows []float64
	perm []int32
}

// scratch holds the reusable sort buffers of one worker. Buffers grow to the
// largest partition a worker sees and are then reused allocation-free.
type scratch struct {
	pairs []keyIdx
	s, t  sortedRel
	grid  gridState
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns buf with length n, reusing its storage when large enough;
// the contents are unspecified.
func resize[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}

// sortedPairs fills buf with (dimension-0 key, index) pairs of r, sorted by
// key, reusing buf's storage when it is large enough.
func sortedPairs(buf []keyIdx, r *data.Relation) []keyIdx {
	n := r.Len()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("localjoin: partition of %d tuples exceeds the 2^31-1 local index range", n))
	}
	buf = resize(buf, n)
	for i := 0; i < n; i++ {
		buf[i] = keyIdx{key: r.KeyAt(i, 0), idx: int32(i)}
	}
	slices.SortFunc(buf, func(a, b keyIdx) int { return cmpNaNLast(a.key, b.key) })
	return buf
}

// cmpNaNLast orders float64 keys ascending with NaN keys last (and equal to
// each other), so the searches and window scans over a sorted run see a
// consistently sorted prefix.
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

// Dim0Order returns r's tuple indices in the dimension-0 order the sort-based
// algorithms scan T in (ties in whatever order their sort leaves them). A
// caller that needs SortProbe's emission order from another kernel ranks that
// kernel's matches by it.
func Dim0Order(r *data.Relation) []int32 {
	sc := scratchPool.Get().(*scratch)
	sc.pairs = sortedPairs(sc.pairs, r)
	order := make([]int32, len(sc.pairs))
	for pos, p := range sc.pairs {
		order[pos] = p.idx
	}
	scratchPool.Put(sc)
	return order
}

// build fills sr with r's rows sorted by dimension 0, using sc.pairs as the
// sort scratch. All buffers are reused when large enough.
func (sr *sortedRel) build(sc *scratch, r *data.Relation) {
	n, dims := r.Len(), r.Dims()
	sc.pairs = sortedPairs(sc.pairs, r)
	sr.rows = resize(sr.rows, n*dims)
	sr.perm = resize(sr.perm, n)
	for pos, p := range sc.pairs {
		sr.perm[pos] = p.idx
		copy(sr.rows[pos*dims:(pos+1)*dims], r.Key(int(p.idx)))
	}
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
// the first that fails: everything past dimension 0 for the sorted scans,
// whose window settles dimension 0, and for the grid the dimensions past the
// leading grid dimensions, which scanCells tests itself without branches. It
// is the predicate of data.Band.MatchesDim, spelled out because the call —
// inlined or not — compiles to a slower probe loop (+15% on a 2-d serving
// workload).
func matchesFrom(band data.Band, sk, tk []float64, from int) bool {
	for d := from; d < len(sk); d++ {
		if !(tk[d] >= sk[d]-band.Low[d] && tk[d] <= sk[d]+band.High[d]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Sorted probe (the paper's index-nested-loop, realized with one sort)

// SortProbe sorts T on dimension 0 once and, for every S-tuple, locates the
// matching T-range with binary search and scans it, verifying the remaining
// dimensions. This is equivalent to the paper's index-nested-loop with
// ε1-sized ranges (the binary search plays the role of the range index) and
// also covers the equi-join case ε = 0, for which Grid-ε is undefined but the
// other partitioners still need a local algorithm.
type SortProbe struct{}

// Name implements Algorithm.
func (SortProbe) Name() string { return "sort-probe" }

// probeSortedT runs the sorted-probe loop of S against a dim-0-sorted T
// (rows/perm as produced by sortedRel.build). It is shared by the one-shot
// Join and the prepared (cached T side) form.
func probeSortedT(rows []float64, perm []int32, n, dims int, s *data.Relation, band data.Band, emit Emit) int64 {
	return probeSortedTRange(rows, perm, n, dims, s, 0, s.Len(), band, emit)
}

// probeSortedTRange is probeSortedT restricted to S indices [sLo, sHi). Each
// S-tuple's probe is independent, so a range runs exactly the iterations the
// full loop would run for those indices.
func probeSortedTRange(rows []float64, perm []int32, n, dims int, s *data.Relation, sLo, sHi int, band data.Band, emit Emit) int64 {
	var count int64
	countOnly1D := emit == nil && dims == 1
	for i := sLo; i < sHi; i++ {
		sk := s.Key(i)
		lo := sk[0] - band.Low[0]
		hi := sk[0] + band.High[0]
		start := searchRowsGE(rows, dims, n, lo)
		if countOnly1D {
			// One dimension and no pair materialization: the matching range
			// is exactly [start, end), no per-tuple verification needed.
			count += int64(searchRowsGT(rows, dims, n, hi) - start)
			continue
		}
		for pos := start; pos < n; pos++ {
			base := pos * dims
			if !(rows[base] <= hi) { // past the window, or the NaN tail
				break
			}
			row := rows[base : base+dims]
			if matchesFrom(band, sk, row, 1) {
				count++
				if emit != nil {
					emit(i, int(perm[pos]), sk, row)
				}
			}
		}
	}
	return count
}

// Join implements Algorithm.
func (SortProbe) Join(s, t *data.Relation, band data.Band, emit Emit) int64 {
	n := t.Len()
	if n == 0 || s.Len() == 0 {
		return 0
	}
	dims := t.Dims()
	sc := scratchPool.Get().(*scratch)
	sc.t.build(sc, t)
	count := probeSortedT(sc.t.rows, sc.t.perm, n, dims, s, band, emit)
	scratchPool.Put(sc)
	return count
}

// JoinRange implements RangeJoiner: the probe loop restricted to S indices
// [lo, hi). The T side is rebuilt per call; when several ranges of the same
// partition run, Prepare the structure once and use ProbeRange instead.
func (SortProbe) JoinRange(s, t *data.Relation, band data.Band, lo, hi int, emit Emit) int64 {
	n := t.Len()
	if n == 0 || lo >= hi {
		return 0
	}
	dims := t.Dims()
	sc := scratchPool.Get().(*scratch)
	sc.t.build(sc, t)
	count := probeSortedTRange(sc.t.rows, sc.t.perm, n, dims, s, lo, hi, band, emit)
	scratchPool.Put(sc)
	return count
}

// ---------------------------------------------------------------------------
// Grid sorted scan (the Grid-ε local algorithm from Section 6.1)

// GridSortScan sorts both inputs on dimension 0 and, for every S-tuple in
// sorted order, advances a sliding window over T. It matches the paper's
// description of the slightly modified local algorithm used for Grid-ε
// partitions, whose extent in A1 already equals the grid size.
type GridSortScan struct{}

// Name implements Algorithm.
func (GridSortScan) Name() string { return "grid-sort-scan" }

// scanSortedWindow runs the sliding-window scan of a dim-0-sorted S against a
// dim-0-sorted T. It is shared by the one-shot Join and the prepared form.
func scanSortedWindow(sRows []float64, sPerm []int32, ns int, tRows []float64, tPerm []int32, nt, dims int, band data.Band, emit Emit) int64 {
	return scanSortedWindowRange(sRows, sPerm, tRows, tPerm, nt, dims, 0, ns, band, emit)
}

// scanSortedWindowRange is scanSortedWindow restricted to sorted-S positions
// [sLo, sHi). The sequential scan's window start is monotone: winLo stops at
// the first T position with key >= (sKey - band.Low[0]), and that bound is
// nondecreasing in sorted-S order, so winLo at any position equals the binary
// search for it — recomputing it at sLo puts a range on the exact state the
// sequential scan would have there, and the emissions of consecutive ranges
// concatenate to the full scan bit-identically.
func scanSortedWindowRange(sRows []float64, sPerm []int32, tRows []float64, tPerm []int32, nt, dims, sLo, sHi int, band data.Band, emit Emit) int64 {
	var count int64
	if sLo >= sHi {
		return 0
	}
	winLo := searchRowsGE(tRows, dims, nt, sRows[sLo*dims]-band.Low[0])
	for spos := sLo; spos < sHi; spos++ {
		sk := sRows[spos*dims : (spos+1)*dims]
		lo := sk[0] - band.Low[0]
		hi := sk[0] + band.High[0]
		for winLo < nt && tRows[winLo*dims] < lo {
			winLo++
		}
		for pos := winLo; pos < nt; pos++ {
			base := pos * dims
			if !(tRows[base] <= hi) { // past the window, or the NaN tail
				break
			}
			row := tRows[base : base+dims]
			if matchesFrom(band, sk, row, 1) {
				count++
				if emit != nil {
					emit(int(sPerm[spos]), int(tPerm[pos]), sk, row)
				}
			}
		}
	}
	return count
}

// Join implements Algorithm.
func (GridSortScan) Join(s, t *data.Relation, band data.Band, emit Emit) int64 {
	ns, nt := s.Len(), t.Len()
	if ns == 0 || nt == 0 {
		return 0
	}
	dims := t.Dims()
	sc := scratchPool.Get().(*scratch)
	sc.s.build(sc, s)
	sc.t.build(sc, t)
	count := scanSortedWindow(sc.s.rows, sc.s.perm, ns, sc.t.rows, sc.t.perm, nt, dims, band, emit)
	scratchPool.Put(sc)
	return count
}

// JoinRange implements RangeJoiner. The probe domain is dim-0-sorted S
// positions, not raw S indices: [lo, hi) of the sorted scan order. Both sides
// are rebuilt per call; when several ranges of the same partition run,
// Prepare the structure once and use ProbeRange instead.
func (GridSortScan) JoinRange(s, t *data.Relation, band data.Band, lo, hi int, emit Emit) int64 {
	ns, nt := s.Len(), t.Len()
	if ns == 0 || nt == 0 || lo >= hi {
		return 0
	}
	dims := t.Dims()
	sc := scratchPool.Get().(*scratch)
	sc.s.build(sc, s)
	sc.t.build(sc, t)
	count := scanSortedWindowRange(sc.s.rows, sc.s.perm, sc.t.rows, sc.t.perm, nt, dims, lo, hi, band, emit)
	scratchPool.Put(sc)
	return count
}

// ---------------------------------------------------------------------------
// Adaptive selection

// Auto picks the cheapest algorithm per partition: the quadratic nested loop
// when either side is too small for sorting to pay off, the ε-grid when it is
// defined (d ≥ 2 and non-zero band extents on the first two dimensions — it
// filters candidates on two to four dimensions instead of one), the sorted
// probe for one-dimensional joins (whose count-only path answers each probe
// with two binary searches), and the sliding-window sorted scan for
// everything else (e.g. equi-join dimensions).
type Auto struct{}

// autoNestedLoopMax is the side size below which the nested loop wins.
const autoNestedLoopMax = 32

// Name implements Algorithm.
func (Auto) Name() string { return "auto" }

// Join implements Algorithm.
func (Auto) Join(s, t *data.Relation, band data.Band, emit Emit) int64 {
	if s.Len() <= autoNestedLoopMax || t.Len() <= autoNestedLoopMax {
		return NestedLoop{}.Join(s, t, band, emit)
	}
	if t.Dims() == 1 {
		return SortProbe{}.Join(s, t, band, emit)
	}
	// EpsGrid falls back to GridSortScan itself when its grid is undefined.
	return EpsGrid{}.Join(s, t, band, emit)
}

// JoinRange implements RangeJoiner, dispatching exactly like Join (the
// selection consults only sizes and dimensionality, never the range).
func (Auto) JoinRange(s, t *data.Relation, band data.Band, lo, hi int, emit Emit) int64 {
	if s.Len() <= autoNestedLoopMax || t.Len() <= autoNestedLoopMax {
		return NestedLoop{}.JoinRange(s, t, band, lo, hi, emit)
	}
	if t.Dims() == 1 {
		return SortProbe{}.JoinRange(s, t, band, lo, hi, emit)
	}
	return EpsGrid{}.JoinRange(s, t, band, lo, hi, emit)
}

// Default returns the algorithm the executor uses when none is specified.
func Default() Algorithm { return Auto{} }

// ByName returns the algorithm with the given name, or false if unknown.
func ByName(name string) (Algorithm, bool) {
	switch name {
	case "auto":
		return Auto{}, true
	case "nested-loop":
		return NestedLoop{}, true
	case "sort-probe":
		return SortProbe{}, true
	case "grid-sort-scan":
		return GridSortScan{}, true
	case "eps-grid":
		return EpsGrid{}, true
	default:
		return nil, false
	}
}
