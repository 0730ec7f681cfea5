package core

import (
	"container/heap"

	"bandjoin/internal/data"
)

// splitKind distinguishes which relation a split partitions and which it
// duplicates across the boundary.
type splitKind uint8

const (
	// splitT partitions S without duplication and duplicates T-tuples within
	// band width of the boundary (the only kind RecPart-S uses).
	splitT splitKind = iota
	// splitS partitions T and duplicates S-tuples near the boundary
	// (symmetric partitioning, Section 4.2).
	splitS
)

func (k splitKind) String() string {
	if k == splitT {
		return "T-split"
	}
	return "S-split"
}

// candidate describes the best action available at a leaf: either a regular
// recursive split (dim, val, kind) or, for a small leaf, an increment of the
// internal 1-Bucket row or column count.
type candidate struct {
	sc score
	// Regular split.
	dim  int
	val  float64
	kind splitKind
	// Small-leaf action.
	smallAction bool
	addRow      bool
}

// node is a split-tree node. Inner nodes carry the split predicate; leaves
// carry the sample tuples that fall into (or are duplicated into) their region
// together with scaled estimates of the real input and output they represent.
type node struct {
	id     int
	region data.Region

	// Inner-node state.
	isLeaf bool
	dim    int
	val    float64
	kind   splitKind
	left   *node
	right  *node
	// tLeftMax and tRightMin route T at a T-split of a finalized plan: the
	// largest T key that matches an S key below val, and the smallest that
	// matches one at or above it, in the predicate's float arithmetic.
	tLeftMax, tRightMin float64

	// Leaf state.
	small      bool
	rows, cols int // internal 1-Bucket grid for small leaves (1×1 otherwise)
	// nS/nT/nOut are the leaf's sample membership counts; the members
	// themselves are the per-dimension sorted views in slab.
	nS, nT, nOut int
	// slab is the leaf's sort-inherited state, carved from the
	// planner arena: dims consecutive segments of the leaf's S sample indices
	// (each segment sorted by that dimension's value), then dims segments of
	// T indices, then dims segments of output-pair indices sorted by the OutS
	// value, then dims segments sorted by the OutT value. See fastgrower.go.
	slab   []int32
	estS   float64 // estimated real S-tuples assigned to this partition (incl. duplicates)
	estT   float64
	estOut float64 // estimated real output produced in this partition

	best    candidate
	heapIdx int // index in the leaf priority queue, -1 when not enqueued

	// partBase is the first partition index owned by this leaf in the final
	// plan; a regular leaf owns one partition, a small leaf owns rows*cols.
	partBase int
}

// sView returns the leaf's S sample indices sorted by dimension d.
func (n *node) sView(d int) []int32 {
	return n.slab[d*n.nS : (d+1)*n.nS]
}

// tView returns the leaf's T sample indices sorted by dimension d.
func (n *node) tView(dims, d int) []int32 {
	base := dims*n.nS + d*n.nT
	return n.slab[base : base+n.nT]
}

// outSView returns the leaf's output-pair indices sorted by the OutS value of
// dimension d.
func (n *node) outSView(dims, d int) []int32 {
	base := dims*(n.nS+n.nT) + d*n.nOut
	return n.slab[base : base+n.nOut]
}

// outTView returns the leaf's output-pair indices sorted by the OutT value of
// dimension d.
func (n *node) outTView(dims, d int) []int32 {
	base := dims*(n.nS+n.nT+n.nOut) + d*n.nOut
	return n.slab[base : base+n.nOut]
}

// load returns the estimated load β2·I_p + β3·O_p of the leaf's partition
// treated as a single unit (ignoring any internal 1-Bucket grid).
func (n *node) load(beta2, beta3 float64) float64 {
	return beta2*(n.estS+n.estT) + beta3*n.estOut
}

// subLoad returns the estimated load of one cell of the leaf's internal r×c
// 1-Bucket grid: each cell receives 1/r of the S input, 1/c of the T input,
// and 1/(r·c) of the output in expectation.
func (n *node) subLoad(beta2, beta3 float64, rows, cols int) float64 {
	r, c := float64(rows), float64(cols)
	return beta2*(n.estS/r+n.estT/c) + beta3*n.estOut/(r*c)
}

// sumSquaredLoads returns this leaf's contribution to Σ l_p² over all
// (sub-)partitions, the quantity whose decrease defines ΔVar.
func (n *node) sumSquaredLoads(beta2, beta3 float64) float64 {
	if n.small && (n.rows > 1 || n.cols > 1) {
		l := n.subLoad(beta2, beta3, n.rows, n.cols)
		return float64(n.rows*n.cols) * l * l
	}
	l := n.load(beta2, beta3)
	return l * l
}

// assignedInput returns the estimated number of input tuples (including
// duplicates) this leaf receives. Inside a small leaf's r×c grid every S-tuple
// is replicated to the c cells of its row and every T-tuple to the r cells of
// its column.
func (n *node) assignedInput() float64 {
	if n.small && (n.rows > 1 || n.cols > 1) {
		return float64(n.cols)*n.estS + float64(n.rows)*n.estT
	}
	return n.estS + n.estT
}

// numPartitions returns how many physical partitions the leaf produces.
func (n *node) numPartitions() int {
	if n.small {
		return n.rows * n.cols
	}
	return 1
}

// subPartitionLoads appends the (input, output, load) triple of every
// (sub-)partition of this leaf to the given slices; it is used to estimate the
// max worker load of the current partitioning by LPT scheduling.
func (n *node) subPartitionLoads(beta2, beta3 float64, inputs, outputs, loads []float64) ([]float64, []float64, []float64) {
	if n.small && (n.rows > 1 || n.cols > 1) {
		r, c := float64(n.rows), float64(n.cols)
		in := n.estS/r + n.estT/c
		out := n.estOut / (r * c)
		l := beta2*in + beta3*out
		for i := 0; i < n.rows*n.cols; i++ {
			inputs = append(inputs, in)
			outputs = append(outputs, out)
			loads = append(loads, l)
		}
		return inputs, outputs, loads
	}
	in := n.estS + n.estT
	out := n.estOut
	return append(inputs, in), append(outputs, out), append(loads, beta2*in+beta3*out)
}

// ---------------------------------------------------------------------------
// Leaf priority queue (Algorithm 1 manages leaves by their topScore).

type leafHeap []*node

func (h leafHeap) Len() int { return len(h) }
func (h leafHeap) Less(i, j int) bool {
	return h[i].best.sc.better(h[j].best.sc)
}
func (h leafHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *leafHeap) Push(x interface{}) {
	n := x.(*node)
	n.heapIdx = len(*h)
	*h = append(*h, n)
}
func (h *leafHeap) Pop() interface{} {
	old := *h
	last := len(old) - 1
	n := old[last]
	old[last] = nil
	n.heapIdx = -1
	*h = old[:last]
	return n
}

// peek returns the leaf with the best split score without removing it.
func (h leafHeap) peek() *node {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// fix re-establishes the heap invariant after a leaf's score changed in place.
func (h *leafHeap) fix(n *node) {
	if n.heapIdx >= 0 {
		heap.Fix(h, n.heapIdx)
	}
}
