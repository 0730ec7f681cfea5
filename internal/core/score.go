package core

// zeroDup is the threshold below which an estimated duplication increase is
// treated as zero for reporting purposes.
const zeroDup = 1e-9

// score is the value of a candidate split: the load-variance reduction it
// achieves and the input duplication it adds (both estimated from the samples
// and scaled to real tuple counts).
//
// The paper orders splits and leaves by the ratio ΔVar/ΔDup, with
// zero-duplication splits ranked by variance reduction among themselves. A
// literal implementation of that ordering starves heavily loaded partitions:
// an arbitrarily small variance reduction with zero duplication would always
// outrank the (duplication-adding) split or 1-Bucket refinement of the
// partition that actually dominates the max worker load. We therefore smooth
// the denominator by a small duplication budget δ (0.2% of |S|+|T|, a constant
// in newGrowEnv): free splits with meaningful variance
// reduction still rank first, ties among free splits are still broken by
// variance reduction, but a heavy partition whose only splits cost
// duplication can no longer be starved by near-useless free splits. The
// deviation from the paper is recorded in DESIGN.md.
type score struct {
	valid  bool
	dup    float64 // estimated additional duplicated input tuples
	varRed float64 // reduction of the load variance V[P] = (w−1)/w² Σ l_p²
	ratio  float64 // varRed / (dup + δ)
}

// invalidScore is the score of a leaf that has no useful split.
func invalidScore() score { return score{} }

// newScore builds a score with the given smoothing constant δ, marking it
// invalid when it offers no variance reduction (such a split would only add
// duplication or do nothing).
func newScore(varRed, dup, smoothing float64) score {
	if varRed <= 0 {
		return invalidScore()
	}
	if dup < 0 {
		dup = 0
	}
	if smoothing < 1 {
		smoothing = 1
	}
	return score{valid: true, dup: dup, varRed: varRed, ratio: varRed / (dup + smoothing)}
}

// zeroDuplication reports whether the split adds (essentially) no duplicates.
func (s score) zeroDuplication() bool { return s.dup <= zeroDup }

// better reports whether s is strictly preferable to o.
func (s score) better(o score) bool {
	if !s.valid {
		return false
	}
	if !o.valid {
		return true
	}
	if s.ratio != o.ratio {
		return s.ratio > o.ratio
	}
	// Deterministic tie-break: larger variance reduction first.
	return s.varRed > o.varRed
}
