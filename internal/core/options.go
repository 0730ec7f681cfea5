// Package core implements RecPart, the paper's main contribution: recursive
// partitioning of the d-dimensional join-attribute space for distributed
// band-joins (Algorithm 1). Starting from a single partition covering the
// whole space, RecPart repeatedly splits the leaf with the best available
// split, where splits are scored by the ratio of load-variance reduction to
// input-duplication increase (Algorithm 2). Partitions that have become small
// relative to the band width switch to an internal 1-Bucket grid. The final
// plan assigns every input tuple to the partitions it must reach (Algorithm 3)
// so that each join result is produced by exactly one local join.
package core

import "fmt"

// Termination selects how RecPart decides when to stop growing the split tree
// and which of the partitionings seen so far wins (Section 4.2).
type Termination int

const (
	// TerminateApplied stops when the cost-model-predicted join time has not
	// improved by at least MinImprovement over the last ImprovementWindow
	// iterations; the winning partitioning minimizes predicted join time.
	TerminateApplied Termination = iota
	// TerminateTheoretical stops when the input-duplication overhead exceeds
	// the smallest max-load overhead seen so far; the winning partitioning
	// minimizes max{duplication overhead, load overhead} relative to the
	// Lemma 1 lower bounds.
	TerminateTheoretical
)

// String implements fmt.Stringer.
func (t Termination) String() string {
	switch t {
	case TerminateApplied:
		return "applied"
	case TerminateTheoretical:
		return "theoretical"
	default:
		return fmt.Sprintf("termination(%d)", int(t))
	}
}

// Options configures RecPart.
type Options struct {
	// Symmetric enables symmetric partitioning: every candidate split is
	// evaluated both as a T-split (partition S, duplicate T) and as an
	// S-split (partition T, duplicate S), and the better one is used. With
	// Symmetric false the algorithm is the paper's RecPart-S, which always
	// duplicates T.
	Symmetric bool

	// Termination selects the stopping rule; the default is the applied
	// (cost-model) rule the paper uses for its cloud experiments.
	Termination Termination

	// MaxIterations caps the number of repeat-loop executions as a safety
	// net. Zero means the default of 64·w + 64, far above the "small multiple
	// of w" the paper observes in practice.
	MaxIterations int

	// ImprovementWindow is the number of recent iterations over which the
	// applied rule looks for improvement. Zero means w, the paper's choice.
	ImprovementWindow int

	// MinImprovement is the relative improvement in predicted join time that
	// counts as progress for the applied rule. Zero means 1%.
	MinImprovement float64

	// DupSmoothingFraction is the smoothing budget δ of the split score
	// ΔVar/(ΔDup+δ), expressed as a fraction of |S|+|T|. Zero means 0.2%.
	// See score.go for why the smoothing exists; the ablation benchmark
	// BenchmarkAblationDupSmoothing sweeps it.
	DupSmoothingFraction float64

	// Seed drives the deterministic pseudo-random row/column assignment used
	// inside small partitions.
	Seed int64

	// Parallelism bounds the planner's worker pool for best-split evaluation
	// (per-dimension sweeps of the leaves created by each split). Zero selects
	// GOMAXPROCS; 1 evaluates inline on the calling goroutine. The planner's
	// decisions are bit-identical regardless of the value.
	Parallelism int
}

// DefaultOptions returns RecPart with symmetric partitioning enabled and the
// applied termination rule.
func DefaultOptions() Options {
	return Options{Symmetric: true, Termination: TerminateApplied, Seed: 1}
}

// withDefaults fills unset option fields given the number of workers.
func (o Options) withDefaults(workers int) Options {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 64*workers + 64
	}
	if o.ImprovementWindow <= 0 {
		o.ImprovementWindow = workers
	}
	if o.MinImprovement <= 0 {
		o.MinImprovement = 0.01
	}
	if o.DupSmoothingFraction <= 0 {
		o.DupSmoothingFraction = 0.002
	}
	return o
}
