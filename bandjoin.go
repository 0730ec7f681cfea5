// Package bandjoin is a library for running distributed band-joins with
// near-optimal partitioning, reproducing "Near-Optimal Distributed Band-Joins
// through Recursive Partitioning" (Li, Gatterbauer, Riedewald, SIGMOD 2020).
//
// A band-join of relations S and T returns all pairs (s, t) whose join
// attributes are within a per-dimension band width of each other,
// |s.Ai − t.Ai| ≤ εi. To run one on w workers the input must be partitioned;
// the partitioning determines how much input is duplicated and how evenly the
// load is balanced. This package provides:
//
//   - RecPart, the paper's recursive partitioner, plus the baselines it is
//     evaluated against (1-Bucket, Grid-ε, Grid*, CSIO, distributed IEJoin);
//   - a single-process cluster simulator and a net/rpc based distributed
//     executor, both reporting the paper's evaluation metrics (total input I,
//     max-worker input Im and output Om, max load Lm, lower bounds, and
//     relative overheads);
//   - Engine, a serving layer over either executor: register relations once,
//     then serve many concurrent queries with cached input samples, cached
//     plans, and worker-retained shuffled partitions (repeated queries move
//     zero shuffle bytes);
//   - data generators for the paper's workloads (Pareto, reverse Pareto,
//     ebird/cloud and PTF surrogates), sampling, and the abstract cost model.
//
// The smallest complete program:
//
//	s, t := bandjoin.Pareto(3, 1.5, 100_000, 1)
//	res, err := bandjoin.Join(s, t, bandjoin.Uniform(3, 2.0), bandjoin.Options{Workers: 8})
//	if err != nil { ... }
//	fmt.Println(res.Output, res.DupOverhead, res.LoadOverhead)
package bandjoin

import (
	"context"
	"fmt"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/partition"
)

// Relation is a collection of tuples; only the join attributes are stored.
type Relation = data.Relation

// Band is a band-join condition over d join attributes.
type Band = data.Band

// Result reports the outcome and accounting of one distributed band-join.
type Result = exec.Result

// Pair identifies one join result by the original tuple indices in S and T.
type Pair = exec.Pair

// Partitioner is a distributed band-join partitioning algorithm.
type Partitioner = partition.Partitioner

// Plan is the output of a partitioner's optimization phase.
type Plan = partition.Plan

// CostModel is the linear running-time model M(I, Im, Om) = β0+β1·I+β2·Im+β3·Om.
type CostModel = costmodel.Model

// NewRelation returns an empty relation with the given name and number of
// join attributes.
func NewRelation(name string, dims int) *Relation { return data.NewRelation(name, dims) }

// Symmetric returns the band condition |s.Ai − t.Ai| ≤ eps[i].
func Symmetric(eps ...float64) Band { return data.Symmetric(eps...) }

// Uniform returns a symmetric band condition with the same width in all d
// dimensions.
func Uniform(d int, eps float64) Band { return data.Uniform(d, eps) }

// Asymmetric returns the band condition s.Ai − low[i] ≤ t.Ai ≤ s.Ai + high[i].
func Asymmetric(low, high []float64) Band { return data.Asymmetric(low, high) }

// DefaultCostModel returns the cost model with the paper's cluster ratios
// (β2/β3 ≈ 4).
func DefaultCostModel() CostModel { return costmodel.Default() }

// CalibrateCostModel fits the cost model's coefficients on a local
// micro-benchmark (the paper's offline cluster profiling step).
func CalibrateCostModel() (CostModel, error) {
	res, err := costmodel.Calibrate(costmodel.DefaultCalibration())
	if err != nil {
		return CostModel{}, err
	}
	return res.Model, nil
}

// Options configures Join.
type Options struct {
	// Workers is the number of (simulated) worker machines; it defaults to 8.
	Workers int
	// Partitioner selects the partitioning algorithm; nil selects RecPart
	// with symmetric partitioning.
	Partitioner Partitioner
	// Model supplies the β coefficients; the zero value selects the default
	// model.
	Model CostModel
	// InputSampleSize and OutputSampleSize bound the optimization-phase
	// samples; zero selects the defaults.
	InputSampleSize  int
	OutputSampleSize int
	// CollectPairs materializes the result pairs in Result.Pairs (intended
	// for small inputs and tests).
	CollectPairs bool
	// EstimateOnly skips the shuffle and local joins and reports sample-based
	// estimates of I, Im, Om instead (useful for very high-duplication
	// configurations).
	EstimateOnly bool
	// MorselRows sets the join execution grain on both planes: partitions'
	// probe (S) sides are split into morsels of this many rows, executed by a
	// shared worker pool draining a largest-partition-first queue, so one fat
	// partition cannot bound query latency (skew immunity). 0 (the default)
	// sizes morsels automatically from the partition sizes and the join
	// parallelism; > 0 fixes the row count; < 0 runs every partition as one
	// morsel, the skew baseline. Results are bit-identical for every setting.
	MorselRows int
	// Seed makes sampling and randomized assignment deterministic.
	Seed int64
}

// Join runs the band-join of s and t on the in-process cluster simulator.
//
// It is implemented as a throwaway Engine serving exactly one query, so the
// one-shot path and the serving path (Engine.Join) are the same code — the
// long-standing tests of Join pin the engine refactor. Callers issuing many
// queries over the same relations should hold an Engine instead and let it
// cache samples, plans, and shuffled partitions across queries.
func Join(s, t *Relation, band Band, opts Options) (*Result, error) {
	if s == nil || t == nil {
		return nil, fmt.Errorf("bandjoin: nil input relation")
	}
	// Retention is pointless on a single-query engine; disabling it avoids
	// holding a second copy of the shuffled input until Close.
	e := NewEngine(EngineOptions{DisableRetention: true})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		return nil, err
	}
	if err := e.Register("t", t); err != nil {
		return nil, err
	}
	return e.Join(context.Background(), "s", "t", band, opts)
}

// Count runs the band-join and returns only the result cardinality.
func Count(s, t *Relation, band Band, opts Options) (int64, error) {
	opts.CollectPairs = false
	res, err := Join(s, t, band, opts)
	if err != nil {
		return 0, err
	}
	return res.Output, nil
}
