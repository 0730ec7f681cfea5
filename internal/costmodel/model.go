// Package costmodel implements the abstract running-time model of Li et al.
// used by the paper (Section 2): join time is estimated as a linear function
// M(I, Im, Om) = β0 + β1·I + β2·Im + β3·Om of the total input (including
// duplicates) I, and the input Im and output Om assigned to the most loaded
// worker. (The paper allows M to be piecewise linear; one segment is fitted
// here.) The β coefficients are obtained by linear regression on
// a micro-benchmark of local joins, mirroring the paper's offline profiling of
// the cluster.
package costmodel

import (
	"fmt"
	"math"
)

// Model is the linear running-time model.
//
// The same coefficients serve two purposes in the paper and here:
//
//   - predicting join time of a candidate partitioning (applied termination
//     condition, Grid* tuning, experiment reporting), and
//   - weighing input versus output when computing per-partition load
//     l_p = β2·I_p + β3·O_p for RecPart's variance-based split scoring.
type Model struct {
	Beta0 float64 // fixed overhead (seconds)
	Beta1 float64 // per shuffled input tuple (seconds)
	Beta2 float64 // per input tuple on the most loaded worker (seconds)
	Beta3 float64 // per output tuple on the most loaded worker (seconds)
}

// Default returns a model with the β2/β3 ≈ 4 ratio the paper measured on its
// Amazon EMR cluster and a small per-shuffled-tuple cost. It is used when no
// calibration has been run; the absolute scale is arbitrary but the ratios
// match the paper's cluster.
func Default() Model {
	return Model{
		Beta0: 0,
		Beta1: 25e-9,  // 25 ns per shuffled tuple
		Beta2: 200e-9, // 200 ns per local input tuple
		Beta3: 50e-9,  // 50 ns per local output tuple (β2/β3 = 4)
	}
}

// Predict estimates join time (in seconds) for total input i, max-worker
// input im, and max-worker output om.
func (m Model) Predict(i, im, om float64) float64 {
	return m.Beta0 + m.Beta1*i + m.Beta2*im + m.Beta3*om
}

// Load returns the load β2·i + β3·o induced by i input tuples and o output
// tuples on one worker, the quantity RecPart balances (Section 2).
func (m Model) Load(i, o float64) float64 {
	return m.Beta2*i + m.Beta3*o
}

// LowerBoundLoad returns L0 = (β2·(|S|+|T|) + β3·|S ⋈ T|)/w, the Lemma 1
// lower bound on max worker load.
func (m Model) LowerBoundLoad(inputSize, outputSize float64, workers int) float64 {
	if workers <= 0 {
		return math.Inf(1)
	}
	return (m.Beta2*inputSize + m.Beta3*outputSize) / float64(workers)
}

// Validate reports whether the model is usable: finite coefficients and a
// positive input weight (β2), without which load balancing is meaningless.
func (m Model) Validate() error {
	for _, v := range []float64{m.Beta0, m.Beta1, m.Beta2, m.Beta3} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("costmodel: coefficient is not finite: %+v", m)
		}
	}
	if m.Beta2 <= 0 {
		return fmt.Errorf("costmodel: β2 must be positive, got %g", m.Beta2)
	}
	if m.Beta3 < 0 || m.Beta1 < 0 {
		return fmt.Errorf("costmodel: β1 and β3 must be non-negative: %+v", m)
	}
	return nil
}

// WithShuffleWeight returns a copy of the model with β1 set so that
// β2/β1 equals the given ratio (Table 8's x-axis is β2/β1). A high ratio
// models fast networks and slow local processing.
func (m Model) WithShuffleWeight(beta2OverBeta1 float64) Model {
	out := m
	if beta2OverBeta1 <= 0 {
		out.Beta1 = 0
		return out
	}
	out.Beta1 = out.Beta2 / beta2OverBeta1
	return out
}

// String implements fmt.Stringer.
func (m Model) String() string {
	return fmt.Sprintf("M(I,Im,Om) = %.3g + %.3g·I + %.3g·Im + %.3g·Om", m.Beta0, m.Beta1, m.Beta2, m.Beta3)
}
