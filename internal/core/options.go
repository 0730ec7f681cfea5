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
	// improved by at least 1% over the last w iterations (w workers); the
	// winning partitioning minimizes predicted join time.
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

	// Seed drives the deterministic pseudo-random row/column assignment used
	// inside small partitions.
	Seed int64
}

// DefaultOptions returns RecPart with symmetric partitioning enabled and the
// applied termination rule.
func DefaultOptions() Options {
	return Options{Symmetric: true, Termination: TerminateApplied, Seed: 1}
}
