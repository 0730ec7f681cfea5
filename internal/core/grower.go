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

	// work is what the growth did, reported as Plan.Work.
	work PlanWork
}

func newGrowEnv(ctx *partition.Context, opts Options) growEnv {
	w := ctx.Workers
	e := growEnv{
		ctx:       ctx,
		opts:      opts,
		band:      ctx.Band,
		w:         w,
		beta2:     ctx.Model.Beta2,
		beta3:     ctx.Model.Beta3,
		varFactor: float64(w-1) / float64(w*w),
	}
	e.inputLowerBound = float64(ctx.Sample.TotalS + ctx.Sample.TotalT)
	e.estTotalOutput = ctx.Sample.EstimatedOutput()
	e.loadLowerBound = ctx.Model.LowerBoundLoad(e.inputLowerBound, e.estTotalOutput, w)
	// δ, the split score's smoothing budget (score.go), is 0.2% of |S|+|T|.
	const dupSmoothingFraction = 0.002
	e.smoothing = dupSmoothingFraction * e.inputLowerBound
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

// sweepBlock is the number of consecutive candidates that share one bound in
// sweepDim. A constant, not an option: DESIGN.md "Score arithmetic" records
// the 32/64/128 measurement that chose it.
const sweepBlock = 32

// Slack of sweepDim's pruning test. A block is skipped only when its bound
// is below the threshold by more than both, so floating-point rounding can
// never turn a skipped candidate into one the full scan would have kept:
//
//   - pruneAbsSlack (a fraction of lpSq + 4·base², added to the bound's
//     variance reduction; 2^13 ulps) covers the absolute rounding of lpSq − lL² − lR²,
//     which cancels to a few ulps of that scale — lL, lR ≤ 2·base and
//     lpSq ≈ base² — both in a candidate's own expression and in the
//     bound's monotone form of lR;
//   - pruneRelSlack (relative, on the ratio) covers the running best's
//     multiply-form comparison, which can let the best ratio slip by ≈2 ulps
//     per accepted candidate: 2^-24 outlasts 2^26 acceptances, more
//     candidates than any sample has.
const (
	pruneAbsSlack = 0x1p-40
	pruneRelSlack = 0x1p-24
)

// sweepBound is one block's state in sweepDim: the six sweep pointers at its
// first candidate, and per split kind an upper bound on the ratio any of its
// candidates can score (−1 when none can reduce the variance).
type sweepBound struct {
	pTHigh, pTLow, pOS, pSLow, pSHigh, pOT int32
	ubT, ubS                               float64
}

// sweepDim returns the best candidate split of one dimension of a leaf, the
// one the full scan finds: every candidate visited in ascending order, the
// T-split scored before the S-split at each point, the running best replaced
// by each candidate that beats it. es holds the leaf's sample values in that
// dimension, sorted ascending (NaN last), and cands, cS and cT from
// candsFromSorted over them: the candidate points plus, per candidate, the
// number of S and T values strictly below it. The second result is how many
// candidates the per-candidate loop scored.
//
// Branch and bound. The candidates are cut into blocks of sweepBlock. One
// forward pass records the pointers at each block's first candidate, scores
// each block's first and last candidate exactly (the largest ratio among them
// is the threshold τ), and bounds each block per split kind: every count is
// non-decreasing in x and every coefficient non-negative, so over a block lL
// is at least its value at the first candidate, lR — in its monotone form
// base − b2s·pS − b2t·pTLow − b3o·pOS (S-split: base − b2s·pSHigh − b2t·pT −
// b3o·pOT) — at least its value at the last, and the duplication at least
// pTHigh(first) − pTLow(last) (S-split: pSLow(first) − pSHigh(last)). The
// per-candidate loop then runs, unchanged, only over the blocks and kinds
// whose bound reaches τ, restarting its pointers from the recorded ones.
//
// Why the result is the full scan's: the returned state is that of the last
// accepted candidate. Once the scan has visited the candidate that set τ, its
// running best stays at τ (less the slip pruneRelSlack covers), so the last
// accepted candidate scores at least that and sits in an unpruned block. A
// skipped candidate scores below τ by more than the slack: if the full scan
// accepted it at all, it was an intermediate best. The first later candidate
// that scores clearly above every skipped one — the last accepted is such a
// candidate — beats either scan's running best by more than rounding, so both
// scans accept it and agree from there on.
func (e *growEnv) sweepDim(dim int, es *evalScratch, lpSq float64) (candidate, int) {
	sv, tv, ovS, ovT := es.sv, es.tv, es.ovS, es.ovT
	cands, cS, cT := es.cands, es.cS, es.cT
	nS, nT, nOut := len(sv), len(tv), len(ovS)
	low, high := e.band.Low[dim], e.band.High[dim]
	b2s, b2t, b3o := e.b2s, e.b2t, e.b3o
	invS, invT := e.invS, e.invT
	varFactor, smoothing := e.varFactor, e.smoothing
	symmetric := e.opts.Symmetric

	// The two loads are linked: lL + lR equals the leaf's duplication-free
	// total plus the duplicated tuples' contribution, so lR is one fused
	// multiply-add away from lL instead of a second full dot product.
	base := b2s*float64(nS) + b2t*float64(nT) + b3o*float64(nOut)
	scoreT := func(pS, pTHigh, pTLow, pOS int) (varRed, dup float64) {
		dupT := float64(pTHigh - pTLow) // tLeft + tRight − nT, exactly
		lL := b2s*float64(pS) + b2t*float64(pTHigh) + b3o*float64(pOS)
		lR := base - lL + b2t*dupT
		return varFactor * (lpSq - lL*lL - lR*lR), dupT * invT
	}
	scoreS := func(pT, pSLow, pSHigh, pOT int) (varRed, dup float64) {
		dupS := float64(pSLow - pSHigh) // sL + sR − nS, exactly
		lL := b2s*float64(pSLow) + b2t*float64(pT) + b3o*float64(pOT)
		lR := base - lL + b2s*dupS
		return varFactor * (lpSq - lL*lL - lR*lR), dupS * invS
	}

	// --- Bounding pass. Monotone pointers into the sorted value arrays;
	// every threshold is a non-decreasing function of x, so one forward pass
	// suffices. The unshifted counts (S and T values below x itself) ride
	// along with the candidates, so only the band-shifted thresholds advance.
	nb := (len(cands) + sweepBlock - 1) / sweepBlock
	if cap(es.bounds) < nb {
		// Sized by the candidates' capacity, so the bounds grow only when
		// the candidates do.
		es.bounds = make([]sweepBound, (cap(cands)+sweepBlock-1)/sweepBlock)
	}
	bounds := es.bounds[:nb]
	absSlack := pruneAbsSlack * varFactor * (lpSq + 4*base*base)
	tau := 0.0
	seed := func(varRed, dup float64) {
		if varRed > 0 {
			if r := varRed / (dup + smoothing); r > tau {
				tau = r
			}
		}
	}
	bound := func(lLMin, lRMin, dupMin, inv float64) float64 {
		lRMin = max(lRMin, 0)
		varRed := varFactor*(lpSq-lLMin*lLMin-lRMin*lRMin) + absSlack
		if !(varRed > 0) {
			return -1
		}
		return varRed / (max(dupMin, 0)*inv + smoothing)
	}
	var pTHigh, pTLow, pOS int // T-split pointers
	var pSLow, pSHigh, pOT int // S-split pointers
	for b := range bounds {
		bd := &bounds[b]
		first := b * sweepBlock
		last := min(first+sweepBlock, len(cands)) - 1

		x := cands[first]
		pTHigh = advance(tv, pTHigh, x+high)
		pTLow = advance(tv, pTLow, x-low)
		pOS = advance(ovS, pOS, x)
		fS, fTHigh, fOS := int(cS[first]), pTHigh, pOS
		seed(scoreT(fS, pTHigh, pTLow, pOS))
		bd.pTHigh, bd.pTLow, bd.pOS = int32(pTHigh), int32(pTLow), int32(pOS)
		x = cands[last]
		pTHigh = advance(tv, pTHigh, x+high)
		pTLow = advance(tv, pTLow, x-low)
		pOS = advance(ovS, pOS, x)
		lS := int(cS[last])
		seed(scoreT(lS, pTHigh, pTLow, pOS))
		bd.ubT = bound(b2s*float64(fS)+b2t*float64(fTHigh)+b3o*float64(fOS),
			base-(b2s*float64(lS)+b2t*float64(pTLow)+b3o*float64(pOS)),
			float64(fTHigh-pTLow), invT)

		if !symmetric {
			continue
		}
		x = cands[first]
		pSLow = advance(sv, pSLow, x+low)
		pSHigh = advance(sv, pSHigh, x-high)
		pOT = advance(ovT, pOT, x)
		fT, fSLow, fOT := int(cT[first]), pSLow, pOT
		seed(scoreS(fT, pSLow, pSHigh, pOT))
		bd.pSLow, bd.pSHigh, bd.pOT = int32(pSLow), int32(pSHigh), int32(pOT)
		x = cands[last]
		pSLow = advance(sv, pSLow, x+low)
		pSHigh = advance(sv, pSHigh, x-high)
		pOT = advance(ovT, pOT, x)
		lT := int(cT[last])
		seed(scoreS(lT, pSLow, pSHigh, pOT))
		bd.ubS = bound(b2s*float64(fSLow)+b2t*float64(fT)+b3o*float64(fOT),
			base-(b2s*float64(pSHigh)+b2t*float64(lT)+b3o*float64(pOT)),
			float64(fSLow-pSHigh), invS)
	}
	cut := tau * (1 - pruneRelSlack)

	// --- The per-candidate loop over the blocks that can win.
	//
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
	scored := 0
	for b := range bounds {
		bd := &bounds[b]
		runT := bd.ubT >= cut
		runS := symmetric && bd.ubS >= cut
		if !runT && !runS {
			continue
		}
		first := b * sweepBlock
		last := min(first+sweepBlock, len(cands))
		scored += last - first
		pTHigh, pTLow, pOS = int(bd.pTHigh), int(bd.pTLow), int(bd.pOS)
		pSLow, pSHigh, pOT = int(bd.pSLow), int(bd.pSHigh), int(bd.pOT)
		for ci := first; ci < last; ci++ {
			x := cands[ci]
			if runT {
				// T-split: partition S at x, duplicate T within the band.
				pTHigh = advance(tv, pTHigh, x+high)
				pTLow = advance(tv, pTLow, x-low)
				pOS = advance(ovS, pOS, x)
				if varRed, dup := scoreT(int(cS[ci]), pTHigh, pTLow, pOS); varRed > 0 {
					consider(varRed, dup, x, splitT)
				}
			}
			if runS {
				// S-split: partition T at x, duplicate S within the band.
				pSLow = advance(sv, pSLow, x+low)
				pSHigh = advance(sv, pSHigh, x-high)
				pOT = advance(ovT, pOT, x)
				if varRed, dup := scoreS(int(cT[ci]), pSLow, pSHigh, pOT); varRed > 0 {
					consider(varRed, dup, x, splitS)
				}
			}
		}
	}
	if !found {
		return candidate{sc: invalidScore()}, scored
	}
	return candidate{
		sc:   score{valid: true, dup: bestDup, varRed: bestVarRed, ratio: bestRatio},
		dim:  dim,
		val:  bestX,
		kind: bestKind,
	}, scored
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
		// Progress is a 1% gain in predicted join time within the last w
		// iterations, the paper's window.
		const minImprovement = 0.01
		window := e.w
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
		return bestNow > bestOld*(1-minImprovement)
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
