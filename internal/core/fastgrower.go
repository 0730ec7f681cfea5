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
//     sorts per leaf. The partition of a dimension's views runs in the
//     parallel task that then sweeps the children in that dimension.
//
//   - Columnar reads. Every sample value the grower reads — a leaf's sorted
//     values of one dimension, the split dimension's values when distributing
//     — comes from that dimension's contiguous column, never from the
//     row-major relation, where one value costs a 64-byte row's cache line.
//
//   - Allocation-free growth. Leaf index slabs are carved from a reusable
//     arena, growth nodes come from a chunked node arena, and every sweep,
//     candidate, membership, and statistics buffer lives in a planner scratch
//     kept across plans on a bounded free list (plannerScratches), so
//     steady-state planning performs a handful of allocations per plan
//     instead of several per leaf per dimension, on whichever core the next
//     plan runs.
//
//   - Incremental iteration statistics. The estimated total input is
//     maintained incrementally (growEnv.totalInput), the per-iteration
//     partition loads are written into reused buffers, and LPT placement
//     reuses its scratch (partition.LPTInto) instead of reallocating sort
//     order, worker heap, and schedule every iteration.
//
//   - Parallel best-split. The per-dimension view splits and sweeps of the
//     leaves created by a split are evaluated on a worker pool of GOMAXPROCS
//     goroutines, one task per dimension, and merged deterministically in
//     (node, ascending dimension) order with score.better (a strict weak
//     order, so the first element of the maximal class wins whatever the
//     interleaving): plans are bit-identical regardless of scheduling.
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
// Arenas and reused scratch

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
// arena (replay allocates fresh nodes), so reusing the arena across plans is
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
	sv, tv, ovS, ovT []float64
	bounds           []sweepBound
}

// evalTask is one dimension of a split: it partitions the parent's four
// sorted views of the dimension into the two children, then sweeps each
// child with a squared load lpSq (0 when the child is not swept in the
// dimension). At the root there is no parent — initialize has filled its
// views — and one child. After runTasks, result holds each child's best
// candidate in the dimension, and cands, scored and advances the sweeps'
// work counts (sweepDim's).
type evalTask struct {
	parent                  *node
	kids                    [2]*node
	dim                     int
	lpSq                    [2]float64
	result                  [2]candidate
	cands, scored, advances int
}

// plannerScratch is the reusable state of one fast plan computation, taken
// from plannerScratches per plan so concurrent planners never share buffers.
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

// plannerScratches is the free list of planner scratch, at most
// maxIdleScratches long. Not a sync.Pool, which parks a lone scratch in one
// P's private slot, out of reach of a plan on another P, and drops it after
// two GCs. Last in, first out, so plans after a burst of concurrent ones keep
// reusing one grown scratch (DESIGN.md "Planner scratch").
var plannerScratches struct {
	sync.Mutex
	free []*plannerScratch
}

const maxIdleScratches = 4

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

// growTree grows the split tree with reused scratch and returns the populated
// growth environment (action log, history) plus the winning iteration.
func growTree(ctx *partition.Context, opts Options) (growEnv, int) {
	env := newGrowEnv(ctx, opts)
	f := &fastGrower{growEnv: env, dims: env.band.Dims(), par: runtime.GOMAXPROCS(0)}
	plannerScratches.Lock()
	if n := len(plannerScratches.free); n > 0 {
		f.sc = plannerScratches.free[n-1]
		plannerScratches.free = plannerScratches.free[:n-1]
	} else {
		f.sc = &plannerScratch{}
	}
	plannerScratches.Unlock()
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

// release returns the scratch to the free list, or drops it when the list is
// full, after dropping node references so the previous plan's tree can be
// collected.
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
	plannerScratches.Lock()
	if len(plannerScratches.free) < maxIdleScratches {
		plannerScratches.free = append(plannerScratches.free, f.sc)
	}
	plannerScratches.Unlock()
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
	f.evalBatch(nil, [2]*node{root, nil})

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
// with fresh best-split scores (lines 7-9 of Algorithm 1), splitting the
// views into both fresh children and evaluating their per-dimension sweeps on
// the worker pool.
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
	f.evalBatch(n, [2]*node{left, right})
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
// inheriting sortedness: membership flags are computed once per tuple from
// the dimension-0 views, and the children's counts and slabs follow from
// them. The views themselves are split later, one dimension per evalTask, by
// a linear stable partition, so the children's views are sorted without
// sorting.
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

// evalBatch computes the best action of the given fresh leaves, the children
// of parent (nil at the root, whose one leaf is kids[0]). Small leaves are
// scored inline; the per-dimension view splits and the regular leaves' sweeps
// are fanned out to the worker pool and reduced in (node, ascending
// dimension) order.
func (f *fastGrower) evalBatch(parent *node, kids [2]*node) {
	var lpSq [2]float64
	for k, n := range kids {
		if n == nil {
			continue
		}
		if n.small {
			n.best = f.evalSmall(n)
			continue
		}
		n.best = candidate{sc: invalidScore()}
		if lp := n.load(f.beta2, f.beta3); lp > 0 {
			lpSq[k] = lp * lp
		}
	}
	tasks := f.sc.tasks[:0]
	for dim := 0; dim < f.dims; dim++ {
		t := evalTask{parent: parent, kids: kids, dim: dim}
		for k, n := range kids {
			if lpSq[k] > 0 && !n.region.SmallInDim(dim, f.band) {
				t.lpSq[k] = lpSq[k]
			}
		}
		if parent == nil && t.lpSq[0] == 0 {
			continue
		}
		tasks = append(tasks, t)
	}
	f.sc.tasks = tasks
	if len(tasks) == 0 {
		return
	}
	f.runTasks(tasks)
	for k, n := range kids {
		for i := range tasks {
			t := &tasks[i]
			if t.lpSq[k] > 0 && t.result[k].sc.better(n.best.sc) {
				n.best = t.result[k]
			}
		}
	}
	for i := range tasks {
		f.work.Candidates += int64(tasks[i].cands)
		f.work.Scored += int64(tasks[i].scored)
		f.work.Advances += int64(tasks[i].advances)
	}
}

// runTasks evaluates the tasks on at most f.par goroutines, each with its own
// value scratch. Tasks only read shared state — the parent's views and the
// membership flags, fixed once distribute returns — and write their own
// result slot and their dimension's segments of the children's slabs, so the
// reduction in evalBatch is free of ordering effects.
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
			f.runTask(&tasks[i], es)
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
			f.runTask(&tasks[i], es)
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

// runTask splits the parent's views of the task's dimension into the
// children, then computes each swept child's best candidate in it: gather
// the leaf's sorted values from its inherited views (no sorting) and run the
// bounded sweep over them.
func (f *fastGrower) runTask(t *evalTask, es *evalScratch) {
	dim, d := t.dim, f.dims
	if p := t.parent; p != nil {
		l, r := t.kids[0], t.kids[1]
		stablePartition(p.sView(dim), f.sc.membS, l.sView(dim), r.sView(dim))
		stablePartition(p.tView(d, dim), f.sc.membT, l.tView(d, dim), r.tView(d, dim))
		stablePartition(p.outSView(d, dim), f.sc.membOut, l.outSView(d, dim), r.outSView(d, dim))
		stablePartition(p.outTView(d, dim), f.sc.membOut, l.outTView(d, dim), r.outTView(d, dim))
	}
	for k, n := range t.kids {
		if t.lpSq[k] == 0 {
			continue
		}
		es.sv = gatherVals(f.cols.s.Col(dim), n.sView(dim), es.sv)
		es.tv = gatherVals(f.cols.t.Col(dim), n.tView(d, dim), es.tv)
		es.ovS = gatherVals(f.cols.outS.Col(dim), n.outSView(d, dim), es.ovS)
		es.ovT = gatherVals(f.cols.outT.Col(dim), n.outTView(d, dim), es.ovT)
		var cands, scored, advances int
		t.result[k], cands, scored, advances = f.sweepDim(dim, es, n.region.Lo[dim], n.region.Hi[dim], t.lpSq[k])
		t.cands += cands
		t.scored += scored
		t.advances += advances
	}
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
