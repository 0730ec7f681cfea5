package exec

import (
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

// foldTail is the fold threshold: a retained partition's S side is folded when
// the rows appended to it since its last seal or fold outnumber 1/foldTail of
// the rows before them. An appended row costs the ε-grid probe two to three
// times a sealed one (it sits outside the dim-0 order the probe's locality
// rests on and walks up to 3^k hash cells instead of reading a resolved list),
// a fold costs a sort of S and one walk per row: folding rarely leaves the tail
// to slow every query, folding often pays for the fold more than the tail
// cost. 16 is where the sweep recorded in DESIGN.md ("Folding the appended
// tail") stops gaining: 1/32 and 1/64 fold two and four times as often for the
// same median op.
const foldTail = 16

// NeedsFold reports whether FoldS is due for a retained partition's S side
// and its prepared structure.
func NeedsFold(s *data.Relation, prep *localjoin.EpsGrid) bool {
	tail := localjoin.UnresolvedS(prep, s)
	return tail*foldTail > s.Len()-tail
}

// FoldS folds a retained partition's appended S rows into the order and the
// structure its sealed rows have: it returns S and its tuple IDs re-sorted by
// dimension 0 (stably, so the sorted rows keep their order) in new storage,
// with room for the next tail, and localjoin.ResolveS's structure for that S —
// the T side prep was built on, untouched, with a resolved cell list for every
// row. The three belong together: the lists are positional, so the caller must
// replace S, the IDs and the structure in one step under whatever excludes its
// probes (both planes' retained partitions do), and must not probe the new S
// with prep or the old S with the result. The inputs are not modified; probes
// still running on them stay correct.
func FoldS(s *data.Relation, sIDs []int64, prep *localjoin.EpsGrid) (*data.Relation, []int64, *localjoin.EpsGrid, time.Duration) {
	start := time.Now()
	s, sIDs = sortByDim0(s, sIDs, s.Len()/foldTail+s.Len()/(4*foldTail))
	prep = localjoin.ResolveS(prep, s)
	return s, sIDs, prep, time.Since(start)
}
