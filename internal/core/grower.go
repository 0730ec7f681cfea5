package core

import (
	"fmt"
	"math"

	"bandjoin/internal/data"
	"bandjoin/internal/partition"
)

// action is one applied step of the repeat loop: either a regular split of a
// leaf or an increment of a small leaf's internal 1-Bucket grid. The action
// log, together with the deterministic node-ID numbering, lets RecPart replay
// the prefix of actions that produced the best partitioning found (the
// "winning partitioning P*" of Algorithm 1) without snapshotting the tree at
// every iteration.
type action struct {
	nodeID int
	// Regular split.
	dim  int
	val  float64
	kind splitKind
	// Small-leaf action.
	smallAction bool
	addRow      bool
}

// growEnv is the grower's decision state and arithmetic: everything that
// influences a planning decision — split scoring, the per-iteration
// statistics, the termination rule, the incremental total-input accounting —
// lives here, apart from the machinery that feeds it (fastgrower.go: sorted
// views, arenas, the parallel sweep). The recorded hashes of TestPlanGolden
// and the equivalence suite pin its decisions bit for bit.
type growEnv struct {
	ctx  *partition.Context
	opts Options
	band data.Band
	w    int

	beta2, beta3 float64
	varFactor    float64 // (w−1)/w²
	smoothing    float64 // δ of the split score ΔVar/(ΔDup+δ)

	// Sweep constants with the sampling rates folded in: b2s·count ==
	// β2·ScaleS(count) (up to rounding), and likewise for T and the output
	// sample weight. Hoisting the divisions out of the per-candidate loop
	// roughly halves the sweep's cost.
	b2s, b2t, b3o float64 // β2/SRate, β2/TRate, β3·OutWeight
	invS, invT    float64 // 1/SRate, 1/TRate (0 when the rate is 0)

	actions []action
	history []IterationStats

	// Lower bounds (Lemma 1) used for overhead computation.
	inputLowerBound float64
	estTotalOutput  float64
	loadLowerBound  float64

	// totalInput is Σ leaf.assignedInput() over the current leaves — the
	// estimated total input I including duplicates. It is maintained
	// incrementally (the split leaf's contribution leaves, its replacements'
	// enter) through noteSplit/noteSmall rather than re-summed per iteration.
	// Floating-point addition is order-sensitive: reordering these updates
	// changes plans.
	totalInput float64
}

func newGrowEnv(ctx *partition.Context, opts Options) growEnv {
	w := ctx.Workers
	e := growEnv{
		ctx:       ctx,
		opts:      opts.withDefaults(w),
		band:      ctx.Band,
		w:         w,
		beta2:     ctx.Model.Beta2,
		beta3:     ctx.Model.Beta3,
		varFactor: float64(w-1) / float64(w*w),
	}
	e.inputLowerBound = float64(ctx.Sample.TotalS + ctx.Sample.TotalT)
	e.estTotalOutput = ctx.Sample.EstimatedOutput()
	e.loadLowerBound = ctx.Model.LowerBoundLoad(e.inputLowerBound, e.estTotalOutput, w)
	e.smoothing = e.opts.DupSmoothingFraction * e.inputLowerBound
	if e.smoothing < 1 {
		e.smoothing = 1
	}
	smp := ctx.Sample
	if smp.SRate > 0 {
		e.invS = 1 / smp.SRate
		e.b2s = e.beta2 / smp.SRate
	}
	if smp.TRate > 0 {
		e.invT = 1 / smp.TRate
		e.b2t = e.beta2 / smp.TRate
	}
	e.b3o = e.beta3 * smp.OutWeight
	return e
}

// rootRegion bounds the split tree's root by the bounding box of the samples,
// expanded by one band width. The assignment of real tuples never depends on
// region containment (only on split predicates), so tuples outside the sample
// bounding box are still routed correctly; the finite box only serves the
// "small partition" detection and candidate-split filtering.
func (e *growEnv) rootRegion() data.Region {
	d := e.band.Dims()
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := 0; i < d; i++ {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	expand := func(r *data.Relation) {
		for i := 0; i < r.Len(); i++ {
			k := r.Key(i)
			for dim, v := range k {
				if v < lo[dim] {
					lo[dim] = v
				}
				if v > hi[dim] {
					hi[dim] = v
				}
			}
		}
	}
	expand(e.ctx.Sample.S)
	expand(e.ctx.Sample.T)
	for i := 0; i < d; i++ {
		if math.IsInf(lo[i], 0) || math.IsInf(hi[i], 0) {
			lo[i], hi[i] = 0, 0
		}
		lo[i] -= e.band.MaxWidth(i)
		hi[i] += e.band.MaxWidth(i) + 1e-9
	}
	return data.Region{Lo: lo, Hi: hi}
}

// setEstimates refreshes the leaf's scaled input/output estimates from its
// sample membership counts.
func (e *growEnv) setEstimates(n *node) {
	smp := e.ctx.Sample
	n.estS = smp.ScaleS(n.nS)
	n.estT = smp.ScaleT(n.nT)
	n.estOut = smp.ScaleOut(n.nOut)
}

// noteSplit folds a regular split into the incremental total-input sum.
func (e *growEnv) noteSplit(parent, left, right *node) {
	e.totalInput += left.assignedInput() + right.assignedInput() - parent.assignedInput()
}

// noteSmall folds a small-leaf grid increment into the incremental
// total-input sum; prev is the leaf's assignedInput before the increment.
func (e *growEnv) noteSmall(n *node, prev float64) {
	e.totalInput += n.assignedInput() - prev
}

// evalSmall scores incrementing the row or column count of a small leaf's
// internal 1-Bucket grid. Adding a row duplicates every T-tuple in the leaf
// once more (each T-tuple is replicated to all rows of its column); adding a
// column duplicates every S-tuple once more.
func (e *growEnv) evalSmall(n *node) candidate {
	cur := n.sumSquaredLoads(e.beta2, e.beta3)

	rowLoad := n.subLoad(e.beta2, e.beta3, n.rows+1, n.cols)
	rowSq := float64((n.rows+1)*n.cols) * rowLoad * rowLoad
	scoreRow := newScore(e.varFactor*(cur-rowSq), n.estT, e.smoothing)

	colLoad := n.subLoad(e.beta2, e.beta3, n.rows, n.cols+1)
	colSq := float64(n.rows*(n.cols+1)) * colLoad * colLoad
	scoreCol := newScore(e.varFactor*(cur-colSq), n.estS, e.smoothing)

	if scoreRow.better(scoreCol) {
		return candidate{sc: scoreRow, smallAction: true, addRow: true}
	}
	if scoreCol.valid {
		return candidate{sc: scoreCol, smallAction: true, addRow: false}
	}
	return candidate{sc: invalidScore()}
}

// sweepDim scores every candidate split point of one dimension and returns the
// dimension's best candidate, visiting candidates in ascending order and
// scoring the T-split before the S-split at each point. The value slices must
// be the leaf's sample values in that dimension, sorted ascending; cands, cS,
// and cT must come from candsFromSorted over sv and tv:
// the candidate points plus, per candidate, the number of S and T values
// strictly below it.
func (e *growEnv) sweepDim(dim int, sv, tv, ovS, ovT, cands []float64, cS, cT []int32, lpSq float64) candidate {
	nS, nT, nOut := len(sv), len(tv), len(ovS)
	low, high := e.band.Low[dim], e.band.High[dim]
	b2s, b2t, b3o := e.b2s, e.b2t, e.b3o
	varFactor, smoothing := e.varFactor, e.smoothing
	symmetric := e.opts.Symmetric

	// The running best is tracked as (ratio, varRed); a challenger wins when
	// varRed > ratio·(dup'+δ) — the multiply form of the ratio comparison —
	// so the division is paid only by the rare improving candidate, not by
	// every scored split. Multiply-form ties are broken by larger variance
	// reduction, mirroring score.better.
	bestRatio, bestVarRed, bestDup := math.Inf(-1), math.Inf(-1), 0.0
	bestX, bestKind := 0.0, splitT
	found := false
	consider := func(varRed, dup, x float64, kind splitKind) {
		if dup < 0 {
			dup = 0
		}
		den := dup + smoothing
		lhs := bestRatio * den
		if varRed < lhs || (varRed == lhs && varRed <= bestVarRed) {
			return
		}
		bestRatio = varRed / den
		bestVarRed = varRed
		bestDup = dup
		bestX, bestKind = x, kind
		found = true
	}

	// Monotone pointers into the sorted value arrays; every threshold is
	// a non-decreasing function of the candidate x, so one sweep suffices.
	// The unshifted counts (S and T values below x itself) ride along with
	// the candidates, so only the band-shifted thresholds advance here.
	// The two loads are linked: lL + lR equals the leaf's duplication-free
	// total plus the duplicated tuples' contribution, so lR is one
	// fused multiply-add away from lL instead of a second full dot product.
	base := b2s*float64(nS) + b2t*float64(nT) + b3o*float64(nOut)

	var pTHigh, pTLow, pOS int // T-split pointers
	var pSLow, pSHigh, pOT int // S-split pointers
	for ci, x := range cands {
		// --- T-split: partition S at x, duplicate T within the band.
		pS := int(cS[ci])
		pTHigh = advance(tv, pTHigh, x+high)
		pTLow = advance(tv, pTLow, x-low)
		pOS = advance(ovS, pOS, x)

		dupT := float64(pTHigh - pTLow) // tLeft + tRight − nT, exactly
		lL := b2s*float64(pS) + b2t*float64(pTHigh) + b3o*float64(pOS)
		lR := base - lL + b2t*dupT
		if varRed := varFactor * (lpSq - lL*lL - lR*lR); varRed > 0 {
			consider(varRed, dupT*e.invT, x, splitT)
		}

		if !symmetric {
			continue
		}
		// --- S-split: partition T at x, duplicate S within the band.
		pT := int(cT[ci])
		pSLow = advance(sv, pSLow, x+low)
		pSHigh = advance(sv, pSHigh, x-high)
		pOT = advance(ovT, pOT, x)

		dupS := float64(pSLow - pSHigh) // sL + sR − nS, exactly
		lL = b2s*float64(pSLow) + b2t*float64(pT) + b3o*float64(pOT)
		lR = base - lL + b2s*dupS
		if varRed := varFactor * (lpSq - lL*lL - lR*lR); varRed > 0 {
			consider(varRed, dupS*e.invS, x, splitS)
		}
	}
	if !found {
		return candidate{sc: invalidScore()}
	}
	return candidate{
		sc:   score{valid: true, dup: bestDup, varRed: bestVarRed, ratio: bestRatio},
		dim:  dim,
		val:  bestX,
		kind: bestKind,
	}
}

// advance moves pointer p forward until vals[p] >= threshold and returns the
// new position, i.e. the count of values strictly below the threshold.
func advance(vals []float64, p int, threshold float64) int {
	for p < len(vals) && vals[p] < threshold {
		p++
	}
	return p
}

// ---------------------------------------------------------------------------
// Per-iteration statistics and termination

// statsScratch holds the reusable buffers of snapshotStats, so the
// per-iteration statistics are allocation-free in steady state.
type statsScratch struct {
	inputs, outputs, loads          []float64
	workerLoad, workerIn, workerOut []float64
	lpt                             partition.LPTScratch
}

// snapshotStats estimates the quality of the current partitioning: total input
// including duplicates (maintained incrementally in e.totalInput), and max
// worker load / input / output under LPT placement of all (sub-)partitions.
// The leaves slice (the leaf heap's backing slice) is iterated in its given
// order.
func (e *growEnv) snapshotStats(leaves []*node, iteration int, sc *statsScratch) IterationStats {
	inputs, outputs, loads := sc.inputs[:0], sc.outputs[:0], sc.loads[:0]
	parts := 0
	for _, leaf := range leaves {
		inputs, outputs, loads = leaf.subPartitionLoads(e.beta2, e.beta3, inputs, outputs, loads)
		parts += leaf.numPartitions()
	}
	sc.inputs, sc.outputs, sc.loads = inputs, outputs, loads
	sched := partition.LPTInto(loads, e.w, &sc.lpt)
	workerLoad := resetFloats(&sc.workerLoad, e.w)
	workerIn := resetFloats(&sc.workerIn, e.w)
	workerOut := resetFloats(&sc.workerOut, e.w)
	for p, wk := range sched {
		workerLoad[wk] += loads[p]
		workerIn[wk] += inputs[p]
		workerOut[wk] += outputs[p]
	}
	maxW := 0
	for wk := 1; wk < e.w; wk++ {
		if workerLoad[wk] > workerLoad[maxW] {
			maxW = wk
		}
	}

	st := IterationStats{
		Iteration:     iteration,
		Partitions:    parts,
		EstTotalInput: e.totalInput,
		EstMaxLoad:    workerLoad[maxW],
		EstIm:         workerIn[maxW],
		EstOm:         workerOut[maxW],
	}
	if e.inputLowerBound > 0 {
		st.DupOverhead = math.Max(0, (e.totalInput-e.inputLowerBound)/e.inputLowerBound)
	}
	if e.loadLowerBound > 0 {
		st.LoadOverhead = math.Max(0, (st.EstMaxLoad-e.loadLowerBound)/e.loadLowerBound)
	}
	st.PredictedTime = e.ctx.Model.Predict(e.totalInput, st.EstIm, st.EstOm)
	return st
}

// resetFloats returns *buf resized to n with all elements zeroed.
func resetFloats(buf *[]float64, n int) []float64 {
	b := *buf
	if cap(b) < n {
		b = make([]float64, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = 0
		}
	}
	*buf = b
	return b
}

// shouldStop evaluates the configured termination condition against the
// recorded history.
func (e *growEnv) shouldStop() bool {
	last := e.history[len(e.history)-1]
	switch e.opts.Termination {
	case TerminateTheoretical:
		// Input duplication grows monotonically; once it exceeds the best
		// load overhead seen, no later partitioning can improve the
		// max{dup, load} objective.
		minLoad := math.Inf(1)
		for _, h := range e.history {
			if h.LoadOverhead < minLoad {
				minLoad = h.LoadOverhead
			}
		}
		return last.DupOverhead > minLoad
	default:
		window := e.opts.ImprovementWindow
		n := len(e.history)
		if n <= window {
			return false
		}
		bestOld := math.Inf(1)
		for _, h := range e.history[:n-window] {
			if h.PredictedTime < bestOld {
				bestOld = h.PredictedTime
			}
		}
		bestNow := bestOld
		for _, h := range e.history[n-window:] {
			if h.PredictedTime < bestNow {
				bestNow = h.PredictedTime
			}
		}
		return bestNow > bestOld*(1-e.opts.MinImprovement)
	}
}

// bestIteration returns the index into the action log whose prefix produced
// the best objective value.
func (e *growEnv) bestIteration() int {
	best := 0
	bestObj := math.Inf(1)
	for _, h := range e.history {
		obj := h.objective(e.opts.Termination)
		if obj < bestObj {
			bestObj = obj
			best = h.Iteration
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Structural replay of an action prefix

// replay rebuilds the split tree produced by the first k actions without
// recomputing any scores; node IDs are assigned in creation order, so they
// coincide with the IDs recorded in the action log. The returned tree is
// freshly allocated (never from the grower's arena), since the Plan retains it.
func (e *growEnv) replay(k int) (*node, error) {
	root := &node{id: 0, region: e.rootRegion(), isLeaf: true, rows: 1, cols: 1, heapIdx: -1}
	root.small = root.region.IsSmall(e.band)
	nodes := []*node{root}
	for i := 0; i < k; i++ {
		a := e.actions[i]
		if a.nodeID >= len(nodes) {
			return nil, fmt.Errorf("core: replay action %d references unknown node %d", i, a.nodeID)
		}
		n := nodes[a.nodeID]
		if !n.isLeaf {
			return nil, fmt.Errorf("core: replay action %d targets inner node %d", i, a.nodeID)
		}
		if a.smallAction {
			if a.addRow {
				n.rows++
			} else {
				n.cols++
			}
			continue
		}
		leftRegion, rightRegion := n.region.SplitAt(a.dim, a.val)
		left := &node{id: len(nodes), region: leftRegion, isLeaf: true, rows: 1, cols: 1, heapIdx: -1}
		right := &node{id: len(nodes) + 1, region: rightRegion, isLeaf: true, rows: 1, cols: 1, heapIdx: -1}
		left.small = left.region.IsSmall(e.band)
		right.small = right.region.IsSmall(e.band)
		nodes = append(nodes, left, right)
		n.isLeaf = false
		n.dim, n.val, n.kind = a.dim, a.val, a.kind
		n.left, n.right = left, right
	}
	return root, nil
}
