package costmodel

import (
	"fmt"
	"math/rand"
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

// CalibrationOptions configures the micro-benchmark that determines the β
// coefficients (the paper runs a benchmark of 100 queries offline, once per
// cluster).
type CalibrationOptions struct {
	// Queries is the number of training joins to run.
	Queries int
	// MaxInput is the largest per-side input size of a training join.
	MaxInput int
	// Seed makes calibration deterministic.
	Seed int64
}

// DefaultCalibration returns a calibration small enough to finish in well
// under a second while still spanning an order of magnitude of input and
// output sizes.
func DefaultCalibration() CalibrationOptions {
	return CalibrationOptions{Queries: 40, MaxInput: 20000, Seed: 7}
}

// CalibrationResult is the outcome of a calibration run.
type CalibrationResult struct {
	Model    Model
	RSquared float64
	// Observations holds one row per training query: I, Im, Om, seconds.
	Observations [][4]float64
}

// Calibrate runs the micro-benchmark and fits the model coefficients.
//
// Each training query joins two uniform relations whose size and band width
// are varied so that input-dominated and output-dominated local joins both
// appear in the training set; the measured wall time is regressed on
// (1, I, Im, Om). Since a single-worker micro-benchmark has I = Im (nothing is
// shuffled), β1 cannot be identified from it; it is set from the measured
// per-tuple partitioning cost of streaming the input once, mirroring the
// paper's observation that shuffle cost is proportional to total input.
func Calibrate(opts CalibrationOptions) (*CalibrationResult, error) {
	if opts.Queries <= 0 {
		opts = DefaultCalibration()
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	var (
		features [][]float64
		times    []float64
		obs      [][4]float64
	)
	for q := 0; q < opts.Queries; q++ {
		// Vary input size geometrically and band width to vary selectivity.
		frac := 0.1 + 0.9*float64(q)/float64(opts.Queries)
		n := int(float64(opts.MaxInput) * frac)
		if n < 100 {
			n = 100
		}
		eps := 0.5 * rng.Float64() / float64(n) * 1e4
		gen := data.NewUniform([]float64{0}, []float64{1e4})
		s := gen.Generate("calS", n, rng)
		t := gen.Generate("calT", n, rng)
		band := data.Symmetric(eps)

		start := time.Now()
		out := localjoin.Join(s, t, band, nil)
		elapsed := time.Since(start).Seconds()

		im := float64(s.Len() + t.Len())
		features = append(features, []float64{1, im, float64(out)})
		times = append(times, elapsed)
		obs = append(obs, [4]float64{im, im, float64(out), elapsed})
	}

	coef, err := NonNegativeLeastSquares(features, times)
	if err != nil {
		return nil, fmt.Errorf("costmodel: calibration regression failed: %w", err)
	}
	model := Model{Beta0: coef[0], Beta2: coef[1], Beta3: coef[2]}
	// β1: cost of routing one tuple through the shuffle, measured as a pure
	// streaming pass over the largest training input.
	model.Beta1 = measureStreamCost(opts.MaxInput, rng)
	if model.Beta2 <= 0 {
		// Degenerate fit (e.g. timer resolution too coarse); fall back to the
		// default ratios scaled to the observed magnitude.
		model = Default()
	}

	pred := make([]float64, len(times))
	for i, f := range features {
		pred[i] = model.Beta0 + model.Beta2*f[1] + model.Beta3*f[2]
	}
	return &CalibrationResult{Model: model, RSquared: RSquared(times, pred), Observations: obs}, nil
}

// measureStreamCost times one pass of copying n tuples into per-partition
// buffers, the dominant per-tuple cost of the shuffle in the simulator.
func measureStreamCost(n int, rng *rand.Rand) float64 {
	if n < 1000 {
		n = 1000
	}
	gen := data.NewUniform([]float64{0}, []float64{1})
	r := gen.Generate("stream", n, rng)
	buckets := make([]*data.Relation, 16)
	for i := range buckets {
		buckets[i] = data.NewRelation(fmt.Sprintf("b%d", i), 1)
	}
	start := time.Now()
	for i := 0; i < r.Len(); i++ {
		k := r.Key(i)
		buckets[i%len(buckets)].AppendKey(k)
	}
	elapsed := time.Since(start).Seconds()
	return elapsed / float64(n)
}
