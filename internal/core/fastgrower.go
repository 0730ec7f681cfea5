package core

import (
	"container/heap"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// fastGrower is the implementation of Algorithm 1's repeat loop. Its
// decisions are growEnv's (grower.go); what it adds is the machinery that
// makes them cheap — "fast" against the textbook form that re-sorts every
// leaf's sample per dimension, which this repository carried as a reference
// until TestPlanGolden and the equivalence suite recorded its plans:
//
//   - Sort inheritance. The root starts from the sample's per-dimension
//     argsorts (sample.Columns: S's and T's are cached with the drawn input
//     sample, so a plan for a new band copies them; only the band's own output
//     pairs are sorted per plan); a split then distributes each sorted view to
//     the two children with a linear stable partition, so every child's
//     per-dimension sorted views cost O(n·d) instead of fresh O(n·d·log n)
//     sorts per leaf.
//
//   - Columnar reads. Every sample value the grower reads — a leaf's sorted
//     values of one dimension, the split dimension's values when distributing
//     — comes from that dimension's contiguous column, never from the
//     row-major relation, where one value costs a 64-byte row's cache line.
//
//   - Allocation-free growth. Leaf index slabs are carved from a reusable
//     arena, growth nodes come from a chunked node arena, and every sweep,
//     candidate, membership, and statistics buffer lives in a pooled scratch
//     (the sync.Pool pattern of internal/localjoin and the flat-arena pattern
//     of internal/exec's shuffle), so steady-state planning performs a
//     handful of allocations per plan instead of several per leaf per
//     dimension.
//
//   - Incremental iteration statistics. The estimated total input is
//     maintained incrementally (growEnv.totalInput), the per-iteration
//     partition loads are written into reused buffers, and LPT placement
//     reuses its scratch (partition.LPTInto) instead of reallocating sort
//     order, worker heap, and schedule every iteration.
//
//   - Parallel best-split. The per-dimension sweeps of the leaves created by
//     a split are evaluated on a worker pool of GOMAXPROCS goroutines
//     and merged deterministically in (node, ascending dimension) order with
//     score.better (a strict weak order, so the first element of the maximal
//     class wins whatever the interleaving): plans are bit-identical
//     regardless of scheduling.
type fastGrower struct {
	growEnv

	dims     int
	cols     sampleColumns
	numNodes int
	root     *node
	leaves   leafHeap
	sc       *plannerScratch
	par      int
}

// ---------------------------------------------------------------------------
// Arenas and pooled scratch

// i32Arena carves int32 slices from a single reusable buffer. When the buffer
// is exhausted a larger one replaces it (previously carved slices stay alive
// through their own references); reset rewinds the write offset, so after a
// few plans the buffer converges to a size that serves a whole plan with zero
// allocations.
type i32Arena struct {
	buf []int32
	off int
}

func (a *i32Arena) alloc(n int) []int32 {
	if a.off+n > len(a.buf) {
		size := 2 * len(a.buf)
		if size < n {
			size = n
		}
		if size < 1<<15 {
			size = 1 << 15
		}
		a.buf = make([]int32, size)
		a.off = 0
	}
	out := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return out
}

func (a *i32Arena) reset() { a.off = 0 }

// nodeArena hands out growth-phase nodes from fixed-size blocks, so node
// pointers stay valid as the arena grows. reset rewinds for the next plan;
// nodes are zeroed on alloc. The final split tree is never built from the
// arena (replay allocates fresh nodes), so pooling the arena across plans is
// safe.
type nodeArena struct {
	blocks [][]node
	bi, ni int
}

const nodeBlockSize = 128

func (a *nodeArena) alloc() *node {
	if a.bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]node, nodeBlockSize))
	}
	n := &a.blocks[a.bi][a.ni]
	*n = node{}
	a.ni++
	if a.ni == nodeBlockSize {
		a.bi++
		a.ni = 0
	}
	return n
}

func (a *nodeArena) reset() { a.bi, a.ni = 0, 0 }

// sampleColumns is the one way the fast grower reads the sample: the four
// relations by column, each column with its argsort.
type sampleColumns struct {
	s, t, outS, outT *sample.Columns
}

// evalScratch is one sweep worker's private value buffers, and the block
// bounds of sweepDim.
type evalScratch struct {
	sv, tv, ovS, ovT, cands []float64
	cS, cT                  []int32
	bounds                  []sweepBound
}

// evalTask is one per-dimension sweep of one leaf; after runTasks, result
// holds the dimension's best candidate, and cands and scored the candidates
// generated and the ones the per-candidate loop scored.
type evalTask struct {
	n             *node
	dim           int
	lpSq          float64
	result        candidate
	cands, scored int
}

// plannerScratch is the reusable state of one fast plan computation, checked
// out of plannerPool per plan so concurrent planners never share buffers.
type plannerScratch struct {
	idx                   i32Arena
	nodes                 nodeArena
	membS, membT, membOut []byte
	leaves                leafHeap
	stats                 statsScratch
	evals                 []evalScratch
	tasks                 []evalTask

	// The columns of the plan's output sample pairs, rebuilt per plan in place.
	outS, outT sample.Columns
}

var plannerPool = sync.Pool{New: func() interface{} { return &plannerScratch{} }}

// growBytes ensures *buf has length n.
func growBytes(buf *[]byte, n int) {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
}

const (
	sideLeft  byte = 1
	sideRight byte = 2
)

// ---------------------------------------------------------------------------
// Growth

// growTree grows the split tree with pooled scratch and returns the populated
// growth environment (action log, history) plus the winning iteration.
func growTree(ctx *partition.Context, opts Options) (growEnv, int) {
	env := newGrowEnv(ctx, opts)
	f := &fastGrower{growEnv: env, dims: env.band.Dims(), par: runtime.GOMAXPROCS(0)}
	f.sc = plannerPool.Get().(*plannerScratch)
	defer f.release()
	smp := f.ctx.Sample
	f.cols.s, f.cols.t = smp.InputColumns()
	f.sc.outS.Build(smp.OutS)
	f.sc.outT.Build(smp.OutT)
	f.cols.outS, f.cols.outT = &f.sc.outS, &f.sc.outT
	growBytes(&f.sc.membS, smp.S.Len())
	growBytes(&f.sc.membT, smp.T.Len())
	growBytes(&f.sc.membOut, smp.OutS.Len())
	f.initialize()
	chosen := f.grow()
	f.work.Iterations = len(f.actions)
	return f.growEnv, chosen
}

// release returns the scratch to the pool, dropping node references so the
// previous plan's tree can be collected once its arena slots are reused.
func (f *fastGrower) release() {
	for i := range f.leaves {
		f.leaves[i] = nil
	}
	f.sc.leaves = f.leaves[:0]
	for i := range f.sc.tasks {
		f.sc.tasks[i] = evalTask{}
	}
	f.sc.tasks = f.sc.tasks[:0]
	f.sc.idx.reset()
	f.sc.nodes.reset()
	plannerPool.Put(f.sc)
	f.sc = nil
	f.root = nil
	f.leaves = nil
}

// initialize builds the root leaf from the columns' argsorts; the grower
// itself never sorts (lines 1-4 of Algorithm 1).
func (f *fastGrower) initialize() {
	smp := f.ctx.Sample
	d := f.dims
	root := f.sc.nodes.alloc()
	root.id = 0
	root.region = f.rootRegion()
	root.isLeaf = true
	root.rows, root.cols = 1, 1
	root.heapIdx = -1
	root.nS, root.nT, root.nOut = smp.S.Len(), smp.T.Len(), smp.OutS.Len()
	root.slab = f.sc.idx.alloc(d * (root.nS + root.nT + 2*root.nOut))
	for dim := 0; dim < d; dim++ {
		copy(root.sView(dim), f.cols.s.Order(dim))
		copy(root.tView(d, dim), f.cols.t.Order(dim))
		copy(root.outSView(d, dim), f.cols.outS.Order(dim))
		copy(root.outTView(d, dim), f.cols.outT.Order(dim))
	}
	f.setEstimates(root)
	root.small = root.region.IsSmall(f.band)
	f.evalBatch(root, nil)

	f.numNodes = 1
	f.root = root
	f.leaves = f.sc.leaves[:0]
	heap.Push(&f.leaves, root)
	f.totalInput = root.assignedInput()
	f.history = append(f.history, f.snapshotStats(f.leaves, 0, &f.sc.stats))
}

// grow runs the repeat loop until a termination condition fires and returns
// the index (into the action log) of the winning partitioning. The iteration
// cap, 64·w + 64, is a safety net far above the "small multiple of w" the
// paper observes in practice.
func (f *fastGrower) grow() int {
	for iter := 1; iter <= 64*f.w+64; iter++ {
		top := f.leaves.peek()
		if top == nil || !top.best.sc.valid {
			break
		}
		top = heap.Pop(&f.leaves).(*node)
		f.apply(top)
		f.history = append(f.history, f.snapshotStats(f.leaves, len(f.actions), &f.sc.stats))
		if f.shouldStop() {
			break
		}
	}
	return f.bestIteration()
}

// apply performs the leaf's best action and re-inserts the affected leaves
// with fresh best-split scores (lines 7-9 of Algorithm 1), evaluating both
// fresh children's per-dimension sweeps on the worker pool.
func (f *fastGrower) apply(n *node) {
	c := n.best
	if c.smallAction {
		prev := n.assignedInput()
		if c.addRow {
			n.rows++
		} else {
			n.cols++
		}
		f.noteSmall(n, prev)
		n.best = f.evalSmall(n)
		heap.Push(&f.leaves, n)
		f.actions = append(f.actions, action{nodeID: n.id, smallAction: true, addRow: c.addRow})
		return
	}

	leftRegion, rightRegion := n.region.SplitAt(c.dim, c.val)
	left := f.sc.nodes.alloc()
	right := f.sc.nodes.alloc()
	left.id = f.numNodes
	right.id = f.numNodes + 1
	f.numNodes += 2
	left.region, right.region = leftRegion, rightRegion
	left.isLeaf, right.isLeaf = true, true
	left.rows, left.cols = 1, 1
	right.rows, right.cols = 1, 1
	left.heapIdx, right.heapIdx = -1, -1

	f.distribute(n, c, left, right)
	f.setEstimates(left)
	f.setEstimates(right)
	left.small = left.region.IsSmall(f.band)
	right.small = right.region.IsSmall(f.band)
	f.evalBatch(left, right)
	f.noteSplit(n, left, right)

	n.isLeaf = false
	n.dim, n.val, n.kind = c.dim, c.val, c.kind
	n.left, n.right = left, right
	n.slab = nil // dead views; the arena space is reclaimed at release

	heap.Push(&f.leaves, left)
	heap.Push(&f.leaves, right)
	f.actions = append(f.actions, action{nodeID: n.id, dim: c.dim, val: c.val, kind: c.kind})
}

// distribute assigns the leaf's sample tuples to the two children of the
// given split, duplicating tuples of the duplicated relation whose ε-range
// crosses the split boundary, as the real shuffle will (Algorithm 3) — while
// inheriting sortedness: membership flags
// are computed once per tuple from the dimension-0 views, then every
// dimension's sorted view is split by a linear stable partition, so the
// children's views are sorted without sorting.
func (f *fastGrower) distribute(n *node, c candidate, left, right *node) {
	d := f.dims
	dim, x := c.dim, c.val
	low, high := f.band.Low[dim], f.band.High[dim]
	membS, membT, membOut := f.sc.membS, f.sc.membT, f.sc.membOut
	sCol, tCol := f.cols.s.Col(dim), f.cols.t.Col(dim)

	var lnS, rnS, lnT, rnT, lnOut, rnOut int
	if c.kind == splitT {
		// T-split: partition S at x, duplicate T within the band; output
		// pairs follow their S side.
		for _, i := range n.sView(0) {
			if sCol[i] < x {
				membS[i] = sideLeft
				lnS++
			} else {
				membS[i] = sideRight
				rnS++
			}
		}
		for _, i := range n.tView(d, 0) {
			v := tCol[i]
			var m byte
			if v < x+high {
				m = sideLeft
				lnT++
			}
			if v >= x-low {
				m |= sideRight
				rnT++
			}
			membT[i] = m
		}
		outCol := f.cols.outS.Col(dim)
		for _, i := range n.outSView(d, 0) {
			if outCol[i] < x {
				membOut[i] = sideLeft
				lnOut++
			} else {
				membOut[i] = sideRight
				rnOut++
			}
		}
	} else {
		// S-split: partition T at x, duplicate S near the boundary; output
		// pairs follow their T side.
		for _, i := range n.tView(d, 0) {
			if tCol[i] < x {
				membT[i] = sideLeft
				lnT++
			} else {
				membT[i] = sideRight
				rnT++
			}
		}
		for _, i := range n.sView(0) {
			v := sCol[i]
			var m byte
			if v < x+low {
				m = sideLeft
				lnS++
			}
			if v >= x-high {
				m |= sideRight
				rnS++
			}
			membS[i] = m
		}
		outCol := f.cols.outT.Col(dim)
		for _, i := range n.outTView(d, 0) {
			if outCol[i] < x {
				membOut[i] = sideLeft
				lnOut++
			} else {
				membOut[i] = sideRight
				rnOut++
			}
		}
	}

	left.nS, left.nT, left.nOut = lnS, lnT, lnOut
	right.nS, right.nT, right.nOut = rnS, rnT, rnOut
	left.slab = f.sc.idx.alloc(d * (lnS + lnT + 2*lnOut))
	right.slab = f.sc.idx.alloc(d * (rnS + rnT + 2*rnOut))

	for dd := 0; dd < d; dd++ {
		stablePartition(n.sView(dd), membS, left.sView(dd), right.sView(dd))
		stablePartition(n.tView(d, dd), membT, left.tView(d, dd), right.tView(d, dd))
		stablePartition(n.outSView(d, dd), membOut, left.outSView(d, dd), right.outSView(d, dd))
		stablePartition(n.outTView(d, dd), membOut, left.outTView(d, dd), right.outTView(d, dd))
	}
}

// stablePartition distributes the sorted index view src into left and right
// according to the membership flags, preserving order (duplicated indices go
// to both sides). left and right must have the exact flag counts as length.
func stablePartition(src []int32, memb []byte, left, right []int32) {
	li, ri := 0, 0
	for _, i := range src {
		m := memb[i]
		if m&sideLeft != 0 {
			left[li] = i
			li++
		}
		if m&sideRight != 0 {
			right[ri] = i
			ri++
		}
	}
}

// ---------------------------------------------------------------------------
// Parallel best-split

// evalBatch computes the best action of the given fresh leaves (b may be
// nil). Small leaves are scored inline; the regular leaves' per-dimension
// sweeps are fanned out to the worker pool and reduced in (node, ascending
// dimension) order.
func (f *fastGrower) evalBatch(a, b *node) {
	tasks := f.sc.tasks[:0]
	for _, n := range [2]*node{a, b} {
		if n == nil {
			continue
		}
		if n.small {
			n.best = f.evalSmall(n)
			continue
		}
		n.best = candidate{sc: invalidScore()}
		lp := n.load(f.beta2, f.beta3)
		if lp <= 0 {
			continue
		}
		lpSq := lp * lp
		for dim := 0; dim < f.dims; dim++ {
			if n.region.SmallInDim(dim, f.band) {
				continue
			}
			tasks = append(tasks, evalTask{n: n, dim: dim, lpSq: lpSq})
		}
	}
	f.sc.tasks = tasks
	if len(tasks) == 0 {
		return
	}
	f.runTasks(tasks)
	for i := range tasks {
		t := &tasks[i]
		if t.result.sc.better(t.n.best.sc) {
			t.n.best = t.result
		}
		f.work.Candidates += int64(t.cands)
		f.work.Scored += int64(t.scored)
	}
}

// runTasks evaluates the sweep tasks on at most f.par goroutines, each with
// its own value scratch. Tasks only read shared state and write their own
// result slot, so the reduction in evalBatch is free of ordering effects.
func (f *fastGrower) runTasks(tasks []evalTask) {
	workers := f.par
	if workers > len(tasks) {
		workers = len(tasks)
	}
	for len(f.sc.evals) < workers {
		f.sc.evals = append(f.sc.evals, evalScratch{})
	}
	if workers <= 1 {
		es := &f.sc.evals[0]
		for i := range tasks {
			f.evalDim(&tasks[i], es)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func(es *evalScratch) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			f.evalDim(&tasks[i], es)
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(es *evalScratch) {
			defer wg.Done()
			work(es)
		}(&f.sc.evals[w])
	}
	work(&f.sc.evals[0])
	wg.Wait()
}

// evalDim computes one dimension's best candidate for a leaf: gather the
// leaf's sorted values from its inherited views (no sorting), merge S and T
// linearly, form the candidate mid-points, and run the shared sweep.
func (f *fastGrower) evalDim(t *evalTask, es *evalScratch) {
	n, dim, d := t.n, t.dim, f.dims
	es.sv = gatherVals(f.cols.s.Col(dim), n.sView(dim), es.sv)
	es.tv = gatherVals(f.cols.t.Col(dim), n.tView(d, dim), es.tv)
	es.ovS = gatherVals(f.cols.outS.Col(dim), n.outSView(d, dim), es.ovS)
	es.ovT = gatherVals(f.cols.outT.Col(dim), n.outTView(d, dim), es.ovT)
	es.cands, es.cS, es.cT = candsFromSorted(es.sv, es.tv, n.region.Lo[dim], n.region.Hi[dim],
		es.cands[:0], es.cS[:0], es.cT[:0])
	t.cands = len(es.cands)
	if t.cands == 0 {
		t.result = candidate{sc: invalidScore()}
		return
	}
	t.result, t.scored = f.sweepDim(dim, es, t.lpSq)
}

// gatherVals returns the column's values of the referenced sample tuples, in
// buf's storage when it is large enough. idx is sorted by that column's value,
// so the result comes out sorted.
func gatherVals(col []float64, idx []int32, buf []float64) []float64 {
	out := slices.Grow(buf[:0], len(idx))[:len(idx)]
	for i, id := range idx {
		out[i] = col[id]
	}
	return out
}

// candsFromSorted returns the candidate split points of one dimension — the
// mid-points between consecutive distinct values of the merged sample,
// restricted to the open interval (lo, hi) — together with the per-candidate
// counts of S and T values strictly below each point (the sweep's unshifted
// pointers). One merge pass does all three: at the moment a candidate is
// emitted, the merge positions are exactly those counts. Both inputs sort NaN
// last (data.Argsort's order), and so does the merge — S first on ties, and
// a NaN on either side waits for every value of the other — so no candidate
// is lost and no NaN is counted below one.
func candsFromSorted(sv, tv []float64, lo, hi float64, out []float64, cS, cT []int32) ([]float64, []int32, []int32) {
	i, j := 0, 0
	have := false
	var prev float64
	for i < len(sv) || j < len(tv) {
		pi, pj := i, j
		var v float64
		if j >= len(tv) || (i < len(sv) && (sv[i] <= tv[j] || tv[j] != tv[j])) {
			v = sv[i]
			i++
		} else {
			v = tv[j]
			j++
		}
		if have && v != prev {
			mid := prev + (v-prev)/2
			if mid > lo && mid < hi && mid > prev {
				out = append(out, mid)
				cS = append(cS, int32(pi))
				cT = append(cT, int32(pj))
			}
		}
		prev = v
		have = true
	}
	return out, cS, cT
}
