package localjoin

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bandjoin/internal/data"
)

// EpsGrid is the local ε-grid join structure, built once for a fixed (S, T,
// band) triple and probed by any number of queries: the T side bucketed into
// grid cells of one band extent per side on k of its dimensions (CSR buckets,
// an open-addressing cell table and its occupancy bits), plus — when Prepare
// built it — per S-tuple the resolved list of non-empty cells its band region
// intersects (sStarts/sCells, CSR over S). Every S-tuple's probe visits only
// the (at most 3^k) cells its band region can intersect, and every candidate
// is verified on all dimensions, so k only decides how many candidates there
// are, never which pairs are emitted.
//
// k is chosen per build from the data (see gridState.build): the grid starts
// on the first two dimensions (one for a one-dimensional band) and is refined
// onto further dimensions while its cells stay heavily loaded, up to
// maxGridDims. Cells that stay heavy all the same are kept sorted on one more
// dimension, with their bounding box, and searched instead of scanned. A
// dimension of width zero is an exact-key grid dimension (see cellCoord).
//
// Probe's s must be the relation passed to Prepare, or that relation with rows
// appended: the T side and the band are what the structure is built over, the
// S side only seeds per-row shortcuts, and appended rows take the hash-lookup
// path without them. So a retained partition keeps its structure across S-side
// delta appends and drops it when T grows; the worker or engine then rebuilds
// from the grown partition on the next probe. The shortcuts are positional —
// row i's belong to the i-th row of that S — so an S in another order needs
// the structure ResolveS makes for it, over the same T side; that is how a
// retained partition folds its appended rows back into sorted order once
// UnresolvedS says there are many of them (exec.FoldS). An EpsGrid is
// immutable after Prepare and safe for concurrent Probe and ProbeRange calls.
type EpsGrid struct {
	g gridState

	sStarts []int32
	sCells  []int32

	// pooled marks a PrepareOnce structure whose buffers no other structure
	// shares: Release may recycle it.
	pooled atomic.Bool
}

// PreparedT is the name the benchmark harness's replay (benchmark/replay.go)
// declares its prepared structures by.
type PreparedT = *EpsGrid

// Prepare builds the grid for (s, t, band) and resolves every S row's cell
// list. It returns nil when either side is empty or holds at most
// nestedLoopMax rows: such a partition joins through NestedLoop.
func Prepare(s, t *data.Relation, band data.Band) *EpsGrid {
	if tooSmall(s, t) {
		return nil
	}
	p := &EpsGrid{}
	p.g.build(t, band)
	p.g.order = nil // sort scratch, for rebuilding in; this grid is never rebuilt
	p.resolveCells(s, 1)
	return p
}

// PrepareOnce is Prepare for a structure that will be probed once — one pass
// over s, typically split into concurrent ProbeRange calls. It builds the T
// side only: the S rows' cell lists stay unresolved (Prepare resolves them
// serially, work that pays off from the second probe on) and every row takes
// the hash-lookup path, as rows appended after Prepare do. The pairs and their
// order are Prepare's. It reuses the buffers of a grid that an earlier
// PrepareOnce made and Release handed back, if any.
func PrepareOnce(s, t *data.Relation, band data.Band) *EpsGrid {
	if tooSmall(s, t) {
		return nil
	}
	p := oncePool.Get().(*EpsGrid)
	p.g.build(t, band)
	p.pooled.Store(true)
	return p
}

// tooSmall reports whether the nested loop joins (s, t) faster than a grid.
func tooSmall(s, t *data.Relation) bool {
	return s.Len() <= nestedLoopMax || t.Len() <= nestedLoopMax
}

// oncePool holds the grids Release handed back, for PrepareOnce to rebuild.
var oncePool = sync.Pool{New: func() any { return new(EpsGrid) }}

// Release hands p's buffers back for the next PrepareOnce to build in. It is
// for p's sole owner, after p's last probe, and a no-op for nil, for anything
// Prepare made and for a grid whose buffers ResolveS has shared: nothing a
// retained partition or a fold can reach is ever recycled.
func Release(p *EpsGrid) {
	if p != nil && p.pooled.CompareAndSwap(true, false) {
		oncePool.Put(p)
	}
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
func (p *EpsGrid) resolveCells(s *data.Relation, workers int) {
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
func (p *EpsGrid) resolveRange(s *data.Relation, lo, hi int) []int32 {
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
// or made by ResolveS (all of them for a PrepareOnce grid). It is 0 for nil.
func UnresolvedS(p *EpsGrid, s *data.Relation) int {
	if p == nil {
		return 0
	}
	return s.Len() - max(len(p.sStarts)-1, 0)
}

// ResolveS returns a structure over the T side p was built on — shared with p,
// which stays valid for the S it was handed — whose per-row shortcuts are
// those of Prepare for s: every row resolved, none left to the hash-lookup
// path. s may be any S side for p's T and band, in any order; a retained
// partition hands it the S it has re-sorted, appended rows included. Nothing of
// T is read or rebuilt. It returns nil for nil.
func ResolveS(p *EpsGrid, s *data.Relation) *EpsGrid {
	if p == nil {
		return nil
	}
	p.pooled.Store(false) // its buffers are fresh's too now
	fresh := &EpsGrid{g: p.g}
	fresh.resolveCells(s, runtime.GOMAXPROCS(0))
	return fresh
}

// Probe joins s against the structure, invoking emit (if non-nil) per
// matching pair, and returns the number of result pairs.
func (p *EpsGrid) Probe(s *data.Relation, emit Emit) int64 {
	return p.ProbeRange(s, 0, s.Len(), emit)
}

// ProbeRange is the probe restricted to S indices [lo, hi): concatenating the
// emissions of consecutive ranges covering [0, s.Len()) reproduces Probe's
// output bit-identically, and since the structure is immutable any number of
// ProbeRange calls may run concurrently — the morsel scheduler's contract.
// Rows appended to S since Prepare have no resolved list; they take the
// hash-lookup probe, which only assumes the T side.
func (p *EpsGrid) ProbeRange(s *data.Relation, lo, hi int, emit Emit) int64 {
	resolved := min(hi, len(p.sStarts)-1)
	var count int64
	for i := lo; i < resolved; i++ {
		count += p.g.scanCells(p.sCells[p.sStarts[i]:p.sStarts[i+1]], i, s.Key(i), emit)
	}
	return count + p.g.probeRange(s, max(lo, resolved), hi, emit)
}
