package core

// IterationStats records the estimated quality of the partitioning after a
// given number of repeat-loop iterations of Algorithm 1. All quantities are
// estimates derived from the samples, as the optimizer never sees the full
// input.
type IterationStats struct {
	// Iteration is the number of applied split actions (0 = the single root
	// partition).
	Iteration int
	// Partitions is the number of physical partitions (sub-partitions of
	// small leaves counted individually).
	Partitions int
	// EstTotalInput is the estimated total input including duplicates, I.
	EstTotalInput float64
	// DupOverhead is (I − (|S|+|T|)) / (|S|+|T|), the x-axis of Figure 4.
	DupOverhead float64
	// EstMaxLoad, EstIm and EstOm are the estimated load, input and output of
	// the most loaded worker under LPT placement of the partitions.
	EstMaxLoad float64
	EstIm      float64
	EstOm      float64
	// LoadOverhead is (Lm − L0)/L0 with L0 from Lemma 1, the y-axis of
	// Figure 4.
	LoadOverhead float64
	// PredictedTime is the cost model's join-time estimate M(I, Im, Om).
	PredictedTime float64
}

// objective returns the quantity minimized when selecting the winning
// partitioning under the given termination mode.
func (s IterationStats) objective(mode Termination) float64 {
	if mode == TerminateTheoretical {
		if s.DupOverhead > s.LoadOverhead {
			return s.DupOverhead
		}
		return s.LoadOverhead
	}
	return s.PredictedTime
}

// PlanWork counts what growing one plan did. The counts depend only on the
// plan's inputs — never on GOMAXPROCS or scheduling — so they compare runs on
// different machines where timings cannot.
type PlanWork struct {
	// Candidates is the number of candidate split points the sweeps
	// materialised, summed over every (leaf, dimension) sweep: each block's
	// seed — the candidate at its first merged position, when there is one —
	// plus every candidate of a block the per-candidate loop ran. Candidates
	// in blocks whose bound could not reach the best are never formed.
	Candidates int64
	// Scored is the number of candidates the sweep's per-candidate loop
	// scored.
	Scored int64
	// Advances is the number of steps the sweeps' bounding passes moved
	// their monotone pointers, summed like Candidates.
	Advances int64
	// Iterations is the number of growth-loop iterations: actions applied.
	Iterations int
}
