package localjoin

import (
	"math"
	"slices"

	"bandjoin/internal/data"
)

// EpsGrid is the local ε-grid join: the T-side of the partition is bucketed
// into grid cells of one band extent per side on k of its dimensions, and
// every S-tuple probes only the (at most 3^k) cells its band region can
// intersect. Sorting-based algorithms filter candidates on one dimension
// only, so on multi-dimensional workloads they scan every tuple in the
// dimension-0 window — often orders of magnitude more than the true matches;
// the grid filters on k dimensions at once, shrinking the scanned candidates
// to roughly the tuples inside the band neighborhood. Cells are kept in an
// open-addressing hash table and a CSR bucket layout, both reused through the
// scratch pool, so the steady state allocates nothing.
//
// k is chosen per build from the data (see gridState.build): the grid starts
// on the first two dimensions and is refined onto further dimensions while
// its cells stay heavily loaded, up to maxGridDims. Every candidate is
// verified on all dimensions, so k only decides how many candidates there
// are, never which pairs are emitted. Cells that stay heavy all the same are
// kept sorted on one more dimension, with their bounding box, and searched
// instead of scanned.
//
// The grid is undefined when either of the first two band extents is zero
// (equi-join dimensions) or the join is one-dimensional; Join falls back to
// GridSortScan in that case.
type EpsGrid struct{}

// Name implements Algorithm.
func (EpsGrid) Name() string { return "eps-grid" }

const (
	// maxGridDims caps k: an S-tuple's cell walk visits up to 3^k cells, so
	// 81 table lookups per probe is where refinement stops paying.
	maxGridDims = 4
	// maxWalkCells is 3^maxGridDims, the cells of a walk (floating-point
	// rounding can add a cell per dimension in pathological cases, so it
	// sizes buffers, not loops).
	maxWalkCells = 81
	// gridRefineLoad is the cell load (tuples in the cell an average T-tuple
	// sits in) above which the grid is refined onto one more dimension. A
	// refinement triples the cell lookups per probe — mostly of empty cells,
	// which the occupancy bits answer in a few nanoseconds — and divides the
	// candidates per occupied cell; below about four tuples per cell there is
	// too little left to divide. (One 3-d Pareto join of 320k × 320k tuples:
	// 0.27 s at 4, 0.29 s at 8, 0.31 s at 16, 0.35 s at 32.)
	gridRefineLoad = 4
	// cellLimit bounds cell coordinates, so the float-to-int conversion is
	// defined for every float64 and coordinate arithmetic cannot overflow.
	cellLimit = 1 << 62
	// denseCell is the number of rows from which a cell is dense: its rows are
	// kept in order-dimension order and range-searched per probe instead of
	// tested one by one (see gridState.build).
	denseCell = 24
)

// cellCoord returns the grid coordinate of x for cell width w, clamped to
// ±cellLimit (NaN maps to 0: a NaN key matches nothing, so its cell is
// irrelevant). It is monotone in x, which is all the grid needs: a T-key
// inside [lo, hi] lands in a cell inside [cellCoord(lo), cellCoord(hi)], with
// or without clamping.
func cellCoord(x, w float64) int64 {
	q := math.Floor(x / w)
	switch {
	case q > -cellLimit && q < cellLimit:
		return int64(q)
	case q >= cellLimit:
		return cellLimit
	case q <= -cellLimit:
		return -cellLimit
	default:
		return 0
	}
}

// gridState is one built ε-grid over a T side. The one-shot joins keep it in
// the pooled scratch; a prepared structure owns its own.
type gridState struct {
	band data.Band
	dims int // dimensionality of the rows

	// The grid proper: k dimensions gdim[:k] with cell widths w[:k]. The first
	// kc of them are dimensions 0..kc-1 themselves (gdim[j] == j; 2 <= kc <= k,
	// less than k when refinement skipped an equi-join dimension): the
	// dimensions scanCells verifies without branches.
	k, kc int
	gdim  [maxGridDims]int
	w     [maxGridDims]float64

	// Open-addressing cell table, at most half full: per slot, the cell's
	// id + 1 (0 when empty) in tab and its k coordinates in tabC.
	tab  []int32
	tabC []int64
	mask int
	// Occupancy bits, indexed by the high half of a cell's hash: clear means
	// no such cell. At four bits per slot they are 1/8 of tab and stay in
	// cache when tab does not.
	bits    []uint64
	bitMask uint64

	cellOf []int32 // per T tuple, cell id
	starts []int32 // CSR: per cell id, start row (len numCells+1)
	rows   []float64
	perm   []int32

	// Dense cells (denseCell rows or more): their rows are sorted on dimension
	// odim, and box holds per dense cell the minimum (dims values) and maximum
	// (dims values) of its rows on every dimension, NaN where a row has NaN.
	// boxOf is, per cell id, the next row to fill during the gather; afterwards
	// the cell's index into box, or -1 for a sparse cell.
	odim  int
	boxOf []int32
	box   []float64
}

// epsGridDefined reports whether the grid is defined for the band: at least
// two dimensions and non-zero extents on the first two.
func epsGridDefined(dims int, band data.Band) bool {
	return dims >= 2 && band.MaxWidth(0) > 0 && band.MaxWidth(1) > 0
}

// hashCell mixes a cell's coordinates on the grid dimensions: a multilinear
// sum (independent multiplies) through a splitmix64-style finalizer. Cells
// are passed around as maxGridDims scalars, 0 beyond k, so the walk's loop
// variables stay in registers.
func hashCell(c0, c1, c2, c3 int64) uint64 {
	h := uint64(c0)*0x9e3779b97f4a7c15 + uint64(c1)*0xbf58476d1ce4e5b9 +
		uint64(c2)*0x94d049bb133111eb + uint64(c3)*0xd6e8feb86659fd93
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// slotOf returns the table slot holding the cell (whose hash is h), or the
// empty slot where it would be inserted.
func (g *gridState) slotOf(h uint64, c0, c1, c2, c3 int64) int {
	k := g.k
	slot := int(h) & g.mask
	for ; g.tab[slot] != 0; slot = (slot + 1) & g.mask {
		if t := g.tabC[slot*k : slot*k+k]; t[0] == c0 && t[1] == c1 &&
			(k < 3 || t[2] == c2) && (k < 4 || t[3] == c3) {
			break
		}
	}
	return slot
}

// lookup returns the id of the cell, or -1. Most cells of a walk are
// empty; the occupancy bits answer for those without touching the table.
func (g *gridState) lookup(c0, c1, c2, c3 int64) int32 {
	h := hashCell(c0, c1, c2, c3)
	if bit := (h >> 32) & g.bitMask; g.bits[bit>>6]&(1<<(bit&63)) == 0 {
		return -1
	}
	return g.tab[g.slotOf(h, c0, c1, c2, c3)] - 1
}

// assign places every T-tuple in its cell of the current k-dimensional grid,
// numbering cells consecutively in first-seen order, and counts the CSR offsets.
func (g *gridState) assign(t *data.Relation) {
	k := g.k
	g.tabC = resize(g.tabC, len(g.tab)*k)
	clear(g.tab)
	clear(g.bits)
	var c [maxGridDims]int64
	numCells := int32(0)
	for i := range g.cellOf {
		key := t.Key(i)
		for j := 0; j < k; j++ {
			c[j] = cellCoord(key[g.gdim[j]], g.w[j])
		}
		h := hashCell(c[0], c[1], c[2], c[3])
		slot := g.slotOf(h, c[0], c[1], c[2], c[3])
		if g.tab[slot] == 0 {
			numCells++
			g.tab[slot] = numCells
			copy(g.tabC[slot*k:slot*k+k], c[:k])
			bit := (h >> 32) & g.bitMask
			g.bits[bit>>6] |= 1 << (bit & 63)
		}
		g.cellOf[i] = g.tab[slot] - 1
	}
	g.starts = resize(g.starts, int(numCells)+1)
	clear(g.starts)
	for _, id := range g.cellOf {
		g.starts[id+1]++
	}
	for id := 1; id < len(g.starts); id++ {
		g.starts[id] += g.starts[id-1]
	}
}

// load is the number of tuples in the cell an average T-tuple sits in
// (Σ size² / n) — what one probe that hits an occupied cell has to scan. The
// plain mean n / cells would hide a heavy corner behind the many one-tuple
// cells of a skewed tail.
func (g *gridState) load() float64 {
	var sq float64
	for id := 0; id+1 < len(g.starts); id++ {
		size := float64(g.starts[id+1] - g.starts[id])
		sq += size * size
	}
	return sq / float64(len(g.cellOf))
}

// build buckets t into the grid for band (which must satisfy epsGridDefined)
// and gathers its rows bucket by bucket so each probe scans contiguously.
//
// The grid starts on dimensions 0 and 1. While the cells are loaded above
// gridRefineLoad, it is rebuilt with the next dimension of non-zero band
// extent added, up to maxGridDims; a refinement that does not even halve the
// load (point masses, perfectly correlated dimensions) is the last one.
//
// What refinement cannot thin out (a 2-d grid has nowhere to go) is ordered
// instead: the rows of every dense cell are sorted on the order dimension —
// the first dimension with a band extent that the grid does not filter on, a
// filter that costs no extra cells to walk, else the grid's last dimension —
// so that a probe range-searches the cell (see scanCells).
func (g *gridState) build(t *data.Relation, band data.Band) {
	nt, dims := t.Len(), t.Dims()
	g.band, g.dims = band, dims
	size := 2
	for size < 2*nt {
		size <<= 1
	}
	g.tab = resize(g.tab, size)
	g.mask = size - 1
	g.bits = resize(g.bits, max(size/16, 1))
	g.bitMask = uint64(len(g.bits))*64 - 1
	g.cellOf = resize(g.cellOf, nt)

	g.k = 2
	for j := 0; j < 2; j++ {
		g.gdim[j], g.w[j] = j, band.MaxWidth(j)
	}
	g.assign(t)
	skipZero := func(d int) int {
		for d < dims && band.MaxWidth(d) == 0 {
			d++
		}
		return d
	}
	next := skipZero(2)
	for g.k < maxGridDims && next < dims {
		before := g.load()
		if before <= gridRefineLoad {
			break
		}
		g.gdim[g.k], g.w[g.k] = next, band.MaxWidth(next)
		g.k++
		next = skipZero(next + 1)
		g.assign(t)
		if 2*g.load() > before {
			break
		}
	}
	for g.kc = 2; g.kc < g.k && g.gdim[g.kc] == g.kc; g.kc++ {
	}
	g.odim = g.gdim[g.k-1]
	if next < dims {
		g.odim = next
	}

	g.boxOf = resize(g.boxOf, len(g.starts)-1)
	copy(g.boxOf, g.starts)
	g.rows = resize(g.rows, nt*dims)
	g.perm = resize(g.perm, nt)
	for i, id := range g.cellOf {
		pos := int(g.boxOf[id])
		g.boxOf[id]++
		copy(g.rows[pos*dims:(pos+1)*dims], t.Key(i))
		g.perm[pos] = int32(i)
	}

	g.orderDenseCells(t)
}

// orderDenseCells re-gathers every dense cell's rows in order-dimension order
// (NaN last, ties in input order) and records its box.
func (g *gridState) orderDenseCells(t *data.Relation) {
	dims, od := g.dims, g.odim
	byOrder := func(a, b int32) int {
		if c := cmpNaNLast(t.KeyAt(int(a), od), t.KeyAt(int(b), od)); c != 0 {
			return c
		}
		return int(a - b)
	}
	g.box = g.box[:0]
	for id := range g.boxOf {
		lo, hi := int(g.starts[id]), int(g.starts[id+1])
		g.boxOf[id] = -1
		if hi-lo < denseCell {
			continue
		}
		slices.SortFunc(g.perm[lo:hi], byOrder)
		g.boxOf[id] = int32(len(g.box) / (2 * dims))
		for pos := lo; pos < hi; pos++ {
			row := g.rows[pos*dims : (pos+1)*dims]
			copy(row, t.Key(int(g.perm[pos])))
			if pos == lo {
				g.box = append(append(g.box, row...), row...)
				continue
			}
			box := g.box[len(g.box)-2*dims:]
			for d, v := range row {
				// NaN sticks: nothing compares below or above it.
				if v < box[d] || v != v {
					box[d] = v
				}
				if v > box[dims+d] || v != v {
					box[dims+d] = v
				}
			}
		}
	}
}

// appendCells appends to dst the ids of the existing cells the band region
// [sk−Low, sk+High] intersects, in lexicographic coordinate order (gdim[0]
// outermost). This walk order, with T in input order inside a sparse cell and
// in order-dimension order (ties in input order) inside a dense one, is the
// emission order of one S-tuple's matches.
func (g *gridState) appendCells(dst []int32, sk []float64) []int32 {
	var lo, hi [maxGridDims]int64 // dimensions beyond k: the single coordinate 0
	for j := 0; j < g.k; j++ {
		d := g.gdim[j]
		lo[j] = cellCoord(sk[d]-g.band.Low[d], g.w[j])
		hi[j] = cellCoord(sk[d]+g.band.High[d], g.w[j])
	}
	for c0 := lo[0]; c0 <= hi[0]; c0++ {
		for c1 := lo[1]; c1 <= hi[1]; c1++ {
			for c2 := lo[2]; c2 <= hi[2]; c2++ {
				for c3 := lo[3]; c3 <= hi[3]; c3++ {
					if id := g.lookup(c0, c1, c2, c3); id >= 0 {
						dst = append(dst, id)
					}
				}
			}
		}
	}
	return dst
}

// scanCells verifies S-tuple i against the T-tuples of the given cells, on all
// dimensions; a dense cell goes through scanDense first, which leaves it only
// the rows it could not settle on fewer.
//
// A candidate in a walked cell passes a grid dimension about two times in
// three (the walk covers three cell widths, the band two), so a jump on that
// outcome is mispredicted for every other candidate. The leading kc dimensions
// are therefore tested without one: the interval ends are computed once per
// probe — the float expressions of data.Band.MatchesDim and of denseRange's
// searches, so boundary, NaN, ±Inf and -0 behaviour is theirs — and the 2·kc
// comparison results of a candidate are ANDed into one 0/1 integer. When that
// is the whole predicate (kc == dims) and pairs are only counted, the integer
// is added to the count and the candidate loop has no data-dependent branch.
// On the remaining dimensions the outcome is no coin toss (an 8-d candidate
// that passed the grid dimensions nearly always fails the next one, or —
// self-match — passes all), so there matchesFrom's early exit stays. The first
// two dimensions, which every grid has, are written out: inside one loop over
// kc the compiler keeps the integer on the stack.
func (g *gridState) scanCells(cells []int32, i int, sk []float64, emit Emit) int64 {
	var count int64
	dims, kc := g.dims, g.kc
	var b [2 * maxGridDims]float64 // lower ends, then upper ends at maxGridDims
	for d := 0; d < kc; d++ {
		b[d] = sk[d] - g.band.Low[d]
		b[maxGridDims+d] = sk[d] + g.band.High[d]
	}
	for _, id := range cells {
		lo, hi := int(g.starts[id]), int(g.starts[id+1])
		if hi-lo >= denseCell {
			var matched int64
			lo, hi, matched = g.scanDense(id, lo, hi, i, sk, emit)
			count += matched
		}
		for pos := lo; pos < hi; pos++ {
			row := g.rows[pos*dims : (pos+1)*dims]
			ok := b2i(row[0] >= b[0]) & b2i(row[0] <= b[maxGridDims]) &
				b2i(row[1] >= b[1]) & b2i(row[1] <= b[maxGridDims+1])
			for d := 2; d < kc; d++ {
				ok &= b2i(row[d] >= b[d]) & b2i(row[d] <= b[maxGridDims+d])
			}
			if kc < dims && ok != 0 {
				ok = b2i(matchesFrom(g.band, sk, row, kc))
			}
			// emit is tested first: counting adds the outcome, only emitting
			// jumps on it.
			if emit == nil {
				count += ok
			} else if ok != 0 {
				count++
				emit(i, int(g.perm[pos]), sk, row)
			}
		}
	}
	return count
}

// b2i is 1 for true and 0 for false; it compiles to a flag-to-register move,
// not a jump.
func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// scanDense narrows dense cell id, rows [lo, hi), by denseRange and tests what
// is left on the dimensions that reports open. With none open every row of the
// range matches: it is counted, or emitted, as it stands. With one open that
// dimension alone decides, and as in scanCells the outcome is added, not jumped
// on, unless pairs are emitted. In both cases it returns the matches and an
// empty range; with several open it returns no matches and the narrowed range,
// for scanCells to verify like a sparse cell's.
func (g *gridState) scanDense(id int32, lo, hi, i int, sk []float64, emit Emit) (int, int, int64) {
	dims := g.dims
	lo, hi, open := g.denseRange(id, lo, hi, sk)
	if lo == hi || open == dims {
		return lo, hi, 0
	}
	if open == noneOpen {
		if emit != nil {
			for pos := lo; pos < hi; pos++ {
				emit(i, int(g.perm[pos]), sk, g.rows[pos*dims:(pos+1)*dims])
			}
		}
		return hi, hi, int64(hi - lo)
	}
	var count int64
	vals := g.rows[lo*dims+open : hi*dims]
	vlo, vhi := sk[open]-g.band.Low[open], sk[open]+g.band.High[open]
	if emit == nil {
		for at := 0; at < len(vals); at += dims {
			count += b2i(vals[at] >= vlo) & b2i(vals[at] <= vhi)
		}
		return hi, hi, count
	}
	for pos := lo; pos < hi; pos++ {
		if v := vals[(pos-lo)*dims]; v >= vlo && v <= vhi {
			count++
			emit(i, int(g.perm[pos]), sk, g.rows[pos*dims:(pos+1)*dims])
		}
	}
	return hi, hi, count
}

// noneOpen is denseRange's report that no dimension is left to test.
const noneOpen = -1

// denseRange narrows dense cell id, rows [lo, hi), to the rows inside sk's
// band on the order dimension, by two binary searches with the predicate's own
// comparisons (so boundary, NaN and ±Inf behaviour are the predicate's): that
// dimension is settled for every row it returns. Any other dimension is
// settled too where the cell's box lies inside the band — the condition holds
// for a cell's minimum and maximum exactly when it holds for every row between
// them, and a NaN in the box or in sk fails it. The third result is what is
// left open: noneOpen (all of the rows match), the one open dimension, or dims
// when there are several.
func (g *gridState) denseRange(id int32, lo, hi int, sk []float64) (int, int, int) {
	dims, od := g.dims, g.odim
	keys := g.rows[lo*dims+od:] // every dims-th value is an order-dimension key of the cell
	hi = lo + searchRowsGT(keys, dims, hi-lo, sk[od]+g.band.High[od])
	lo += searchRowsGE(keys, dims, hi-lo, sk[od]-g.band.Low[od])
	box := g.box[int(g.boxOf[id])*2*dims:]
	open := noneOpen
	for d := 0; d < dims; d++ {
		if d != od && !(box[d] >= sk[d]-g.band.Low[d] && box[dims+d] <= sk[d]+g.band.High[d]) {
			if open != noneOpen {
				return lo, hi, dims
			}
			open = d
		}
	}
	return lo, hi, open
}

// probeRange joins S indices [sLo, sHi) against the grid. Each S-tuple's cell
// walk is independent, so a range runs exactly the iterations the full loop
// would run for those indices.
func (g *gridState) probeRange(s *data.Relation, sLo, sHi int, emit Emit) int64 {
	var count int64
	var buf [maxWalkCells]int32 // a longer walk spills to the heap
	for i := sLo; i < sHi; i++ {
		sk := s.Key(i)
		count += g.scanCells(g.appendCells(buf[:0], sk), i, sk, emit)
	}
	return count
}

// Join implements Algorithm.
func (EpsGrid) Join(s, t *data.Relation, band data.Band, emit Emit) int64 {
	return EpsGrid{}.JoinRange(s, t, band, 0, s.Len(), emit)
}

// JoinRange implements RangeJoiner: the cell-walk loop restricted to S
// indices [lo, hi) (or the sorted-scan fallback's range form when the grid is
// undefined). The grid is rebuilt per call; when several ranges of the same
// partition run, Prepare the structure once and use ProbeRange instead.
func (EpsGrid) JoinRange(s, t *data.Relation, band data.Band, lo, hi int, emit Emit) int64 {
	if s.Len() == 0 || t.Len() == 0 || lo >= hi {
		return 0
	}
	if !epsGridDefined(t.Dims(), band) {
		return GridSortScan{}.JoinRange(s, t, band, lo, hi, emit)
	}
	sc := scratchPool.Get().(*scratch)
	sc.grid.build(t, band)
	count := sc.grid.probeRange(s, lo, hi, emit)
	scratchPool.Put(sc)
	return count
}
