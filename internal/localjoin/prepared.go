package localjoin

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bandjoin/internal/data"
)

// PreparedT is a join structure built once for a fixed (S, T, band) triple
// and probed by any number of queries. It is the index-retention counterpart
// of the engine's retained partitions: a worker that keeps a partition
// resident across queries also keeps the structures its local joins would
// otherwise rebuild per query — the ε-grid CSR buckets or dim-0-sorted row
// copies, plus, since the S side is pinned too, each S-tuple's resolved list
// of candidate cells (the per-probe hash lookups, paid once). Probe must
// produce exactly the pairs — in the same order — as the corresponding
// Algorithm.Join over the same inputs.
//
// Probe's s must be the relation passed to Prepare, or that relation with rows
// appended: the T side and the band are what the structure is built over, the
// S side only seeds per-row shortcuts, and appended rows take the path
// without them. So a retained partition keeps its PreparedT across S-side
// delta appends (unless SurvivesSAppend says the structure pins S as well) and
// drops it when T grows; the worker or engine then rebuilds from the grown
// partition on the next probe. The shortcuts are positional — row i's belong
// to the i-th row of that S — so an S in another order needs the structure
// ResolveS makes for it, over the same T side; that is how a retained partition
// folds its appended rows back into sorted order once UnresolvedS says there
// are many of them (exec.FoldS). A PreparedT is immutable after Prepare and
// safe for concurrent Probe calls.
type PreparedT interface {
	// Probe joins s against the prepared structure, invoking emit (if
	// non-nil) per matching pair, and returns the number of result pairs.
	Probe(s *data.Relation, emit Emit) int64
}

// RangeProber is a PreparedT whose probe can be restricted to a contiguous
// range [lo, hi) of its own probe order (raw S indices for the probe-style
// structures, dim-0-sorted S positions for the sorted scan; the domain size
// is always s.Len()). Concatenating the emissions of consecutive ranges
// covering [0, s.Len()) reproduces Probe's output bit-identically, and since
// the structure is immutable, any number of ProbeRange calls may run
// concurrently over the same receiver — this is the morsel scheduler's
// contract. All structures returned by Prepare implement it.
type RangeProber interface {
	PreparedT
	ProbeRange(s *data.Relation, lo, hi int, emit Emit) int64
}

// Prepare builds the reusable T-side structure the algorithm would otherwise
// rebuild on every Join of the same (s, t, band), dispatching exactly like
// the algorithm's own Join (including Auto's per-partition selection, which
// only consults the fixed sizes and dimensionality). It returns nil when the
// algorithm has no prepared form (the nested loop), in which case callers fall
// back to plain Join calls.
func Prepare(alg Algorithm, s, t *data.Relation, band data.Band) PreparedT {
	return prepare(alg, s, t, band, true)
}

// PrepareOnce is Prepare for a structure that will be probed once — one pass
// over s, typically split into concurrent ProbeRange calls. It builds the T
// side only: the ε-grid leaves the S rows' cell lists unresolved (Prepare
// resolves them serially, work that pays off from the second probe on) and
// every row takes the hash-lookup path, as rows appended after Prepare do.
// The pairs and their order are Prepare's. An ε-grid reuses the buffers of
// one that an earlier PrepareOnce made and Release handed back, if any.
func PrepareOnce(alg Algorithm, s, t *data.Relation, band data.Band) PreparedT {
	return prepare(alg, s, t, band, false)
}

// oncePool holds the ε-grids Release handed back, for PrepareOnce to rebuild.
var oncePool = sync.Pool{New: func() any { return new(preparedEpsGrid) }}

// Release hands p's buffers back for the next PrepareOnce to build in. It is
// for p's sole owner, after p's last probe, and a no-op for nil, for anything
// Prepare made, for structures without pooled buffers (everything but the
// ε-grid) and for one whose buffers ResolveS has shared: nothing a retained
// partition or a fold can reach is ever recycled.
func Release(p PreparedT) {
	if g, ok := p.(*preparedEpsGrid); ok && g.pooled.CompareAndSwap(true, false) {
		oncePool.Put(g)
	}
}

func prepare(alg Algorithm, s, t *data.Relation, band data.Band, resolveS bool) PreparedT {
	if s.Len() == 0 || t.Len() == 0 {
		return nil
	}
	switch alg.(type) {
	case Auto:
		if s.Len() <= autoNestedLoopMax || t.Len() <= autoNestedLoopMax {
			return nil // nested loop: nothing to prepare, and sorting cannot pay off
		}
		if t.Dims() == 1 {
			return prepare(SortProbe{}, s, t, band, resolveS)
		}
		return prepare(EpsGrid{}, s, t, band, resolveS)
	case EpsGrid:
		if !epsGridDefined(t.Dims(), band) {
			return prepare(GridSortScan{}, s, t, band, resolveS)
		}
		if !resolveS {
			p := oncePool.Get().(*preparedEpsGrid)
			p.g.build(t, band)
			p.pooled.Store(true)
			return p
		}
		p := &preparedEpsGrid{}
		p.g.build(t, band)
		p.resolveCells(s, 1)
		return p
	case SortProbe:
		sr := buildSortedStandalone(t)
		return &preparedSortProbe{t: sr, n: t.Len(), dims: t.Dims(), band: band}
	case GridSortScan:
		return &preparedGridSortScan{
			s: buildSortedStandalone(s), ns: s.Len(),
			t: buildSortedStandalone(t), nt: t.Len(),
			dims: t.Dims(), band: band,
		}
	default:
		return nil
	}
}

// SurvivesSAppend reports whether p stays a correct and efficient structure
// for its partition after rows are appended to the S side only. False for the
// sorted scan, which keeps a sorted copy of S and would re-sort the grown S on
// every range probe; such partitions are re-prepared like T-side appends.
func SurvivesSAppend(p PreparedT) bool {
	_, pinsS := p.(*preparedGridSortScan)
	return p != nil && !pinsS
}

// buildSortedStandalone materializes r's rows in dimension-0 order into
// storage owned by the result (unlike sortedRel.build, whose buffers belong
// to the pooled scratch and must not outlive the call).
func buildSortedStandalone(r *data.Relation) *sortedRel {
	sc := scratchPool.Get().(*scratch)
	var sr sortedRel
	sr.build(sc, r)
	// Detach from the scratch before returning it to the pool: steal the
	// built buffers and leave the scratch's own sortedRels untouched.
	out := &sortedRel{rows: sr.rows, perm: sr.perm}
	scratchPool.Put(sc)
	return out
}

// preparedEpsGrid is the cached form of EpsGrid: the CSR cell buckets over T
// plus, per S-tuple, the resolved list of non-empty cells its band region
// intersects (sStarts/sCells, CSR over S). The plain probe spends most of its
// time hash-looking-up the ≤ 3^k candidate cells per S-tuple, almost all of
// which are empty for sparse workloads; resolving them once at Prepare turns
// every later probe into a read of a short precomputed id list.
type preparedEpsGrid struct {
	g gridState

	sStarts []int32
	sCells  []int32

	// pooled marks a PrepareOnce structure whose buffers no other structure
	// shares: Release may recycle it.
	pooled atomic.Bool
}

// resolveMinRows is the least number of S rows worth a goroutine of their own
// in resolveCells.
const resolveMinRows = 4096

// resolveCells records, for every S-tuple, the ids of the existing cells its
// band region intersects, in the exact order the plain probe visits them, so
// the emission order is unchanged. Rows are independent: contiguous ranges of S
// are resolved on up to workers goroutines and their lists concatenated in
// range order, which gives the lists of one serial pass bit for bit. Prepare
// passes 1 — its callers already prepare partitions side by side, and on busy
// cores the concatenation is a copy for nothing (+4 % localjoin.prepare_s on
// the cold in-process workload); a fold, which may be the only one running,
// passes GOMAXPROCS.
func (p *preparedEpsGrid) resolveCells(s *data.Relation, workers int) {
	ns := s.Len()
	p.sStarts = make([]int32, ns+1)
	lists := make([][]int32, max(1, min(workers, ns/resolveMinRows)))
	bound := func(w int) int { return w * ns / len(lists) }
	var wg sync.WaitGroup
	for w := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[w] = p.resolveRange(s, bound(w), bound(w+1))
		}()
	}
	wg.Wait()
	if len(lists) == 1 {
		p.sCells = lists[0]
		return
	}
	total := 0
	for _, list := range lists {
		total += len(list)
	}
	p.sCells = make([]int32, 0, total)
	for w, list := range lists {
		// resolveRange counted from the start of its own list.
		base := int32(len(p.sCells))
		for i := bound(w); i < bound(w+1); i++ {
			p.sStarts[i+1] += base
		}
		p.sCells = append(p.sCells, list...)
	}
}

// resolveRange returns the concatenated cell lists of S rows [lo, hi) and
// records in sStarts[i+1] where row i's list ends in it.
func (p *preparedEpsGrid) resolveRange(s *data.Relation, lo, hi int) []int32 {
	cells := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if n := len(cells); i > lo && cap(cells)-n < maxWalkCells {
			// Out of room for a full walk: grow once to the size the rows
			// so far predict. Growing by append's steps copied the list
			// several times over, a fifth of a large partition's Prepare.
			cells = slices.Grow(cells, n/(i-lo)*(hi-i)+n/8+maxWalkCells)
		}
		cells = p.g.appendCells(cells, s.Key(i))
		p.sStarts[i+1] = int32(len(cells))
	}
	return cells
}

// UnresolvedS returns how many rows at the end of s the structure p would
// probe without a per-row shortcut: the rows appended to s since p was prepared
// or made by ResolveS. It is 0 for a structure that keeps no per-row state of
// S; there an appended row is probed like any other.
func UnresolvedS(p PreparedT, s *data.Relation) int {
	if g, ok := p.(*preparedEpsGrid); ok {
		return s.Len() - max(len(g.sStarts)-1, 0)
	}
	return 0
}

// ResolveS returns a structure over the T side p was built on — shared with p,
// which stays valid for the S it was handed — whose per-row shortcuts are
// those of Prepare for s: every row resolved, none left to the hash-lookup
// path. s may be any S side for p's T and band, in any order; a retained
// partition hands it the S it has re-sorted, appended rows included. Nothing of
// T is read or rebuilt. It returns p itself when p keeps no per-row state.
func ResolveS(p PreparedT, s *data.Relation) PreparedT {
	old, ok := p.(*preparedEpsGrid)
	if !ok {
		return p
	}
	old.pooled.Store(false) // its buffers are fresh's too now
	fresh := &preparedEpsGrid{g: old.g}
	fresh.resolveCells(s, runtime.GOMAXPROCS(0))
	return fresh
}

func (p *preparedEpsGrid) Probe(s *data.Relation, emit Emit) int64 {
	return p.ProbeRange(s, 0, s.Len(), emit)
}

// ProbeRange implements RangeProber: the probe restricted to S indices
// [lo, hi). Rows appended to S since Prepare have no resolved list; they take
// the hash-lookup probe, which only assumes the T side.
func (p *preparedEpsGrid) ProbeRange(s *data.Relation, lo, hi int, emit Emit) int64 {
	resolved := min(hi, len(p.sStarts)-1)
	var count int64
	for i := lo; i < resolved; i++ {
		count += p.g.scanCells(p.sCells[p.sStarts[i]:p.sStarts[i+1]], i, s.Key(i), emit)
	}
	return count + p.g.probeRange(s, max(lo, resolved), hi, emit)
}

// preparedSortProbe is the cached form of SortProbe: T's dim-0-sorted rows,
// binary-searched per S-tuple.
type preparedSortProbe struct {
	t    *sortedRel
	n    int
	dims int
	band data.Band
}

func (p *preparedSortProbe) Probe(s *data.Relation, emit Emit) int64 {
	return p.ProbeRange(s, 0, s.Len(), emit)
}

// ProbeRange implements RangeProber: the probe restricted to S indices
// [lo, hi).
func (p *preparedSortProbe) ProbeRange(s *data.Relation, lo, hi int, emit Emit) int64 {
	if s.Len() == 0 || lo >= hi {
		return 0
	}
	return probeSortedTRange(p.t.rows, p.t.perm, p.n, p.dims, s, lo, hi, p.band, emit)
}

// preparedGridSortScan caches the dim-0-sorted rows of both sides: T's, and —
// because the S side of a prepared partition is pinned too — S's, so that
// concurrent range probes share one read-only sorted copy instead of each
// re-sorting S. When Probe is handed an S of another length than the one
// prepared for, the S side is sorted per call with pooled scratch: correct, but
// repeated by every range probe, which is why SurvivesSAppend is false for it.
type preparedGridSortScan struct {
	s    *sortedRel
	ns   int
	t    *sortedRel
	nt   int
	dims int
	band data.Band
}

func (p *preparedGridSortScan) Probe(s *data.Relation, emit Emit) int64 {
	return p.ProbeRange(s, 0, s.Len(), emit)
}

// ProbeRange implements RangeProber: the sliding-window scan restricted to
// dim-0-sorted S positions [lo, hi), with the window start recovered by
// binary search (see scanSortedWindowRange).
func (p *preparedGridSortScan) ProbeRange(s *data.Relation, lo, hi int, emit Emit) int64 {
	ns := s.Len()
	if ns == 0 || lo >= hi {
		return 0
	}
	if ns == p.ns {
		return scanSortedWindowRange(p.s.rows, p.s.perm, p.t.rows, p.t.perm, p.nt, p.dims, lo, hi, p.band, emit)
	}
	// Not the S side this structure was prepared for; sort it per call.
	sc := scratchPool.Get().(*scratch)
	sc.s.build(sc, s)
	count := scanSortedWindowRange(sc.s.rows, sc.s.perm, p.t.rows, p.t.perm, p.nt, p.dims, lo, hi, p.band, emit)
	scratchPool.Put(sc)
	return count
}
