package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// PipelineConfig scales the execution-pipeline benchmark: a synthetic
// band-join executed twice on the same plan — once on the retained serial
// reference path (serial shuffle, one local join at a time, the
// one-dimensional sorted probe) and once on the optimized path (parallel
// two-pass shuffle, GOMAXPROCS-parallel allocation-free local joins).
type PipelineConfig struct {
	// Tuples is the per-relation input size (the acceptance workload is 1M).
	Tuples int
	// Dims is the number of join attributes.
	Dims int
	// Eps is the symmetric per-dimension band width.
	Eps float64
	// Workers is the simulated cluster size.
	Workers int
	// Rounds runs each path this many times and keeps the fastest, damping
	// scheduler noise.
	Rounds int
	// Seed drives data generation and planning.
	Seed int64
	// SkipMicro disables the local-join micro-benchmarks (used by quick
	// harness tests; the micro-benchmarks re-run their function many times).
	SkipMicro bool
}

// DefaultPipelineConfig returns the acceptance-criteria workload:
// 1M x 1M tuples, 2 dimensions (so local joins verify a second dimension and
// no 1D counting shortcut applies), band width tuned for an output of the
// same order as the input.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{Tuples: 1_000_000, Dims: 2, Eps: 0.001, Workers: 30, Rounds: 3, Seed: 1}
}

// PipelineMeasurement is the timing of one execution path.
type PipelineMeasurement struct {
	// Path identifies the configuration ("serial-reference" or "parallel").
	Path string `json:"path"`
	// Algorithm is the local-join algorithm used.
	Algorithm string `json:"algorithm"`
	// ShuffleSeconds, JoinSeconds, TotalSeconds are wall times of the fastest
	// round (Total = Shuffle + Join).
	ShuffleSeconds float64 `json:"shuffle_seconds"`
	JoinSeconds    float64 `json:"join_seconds"`
	TotalSeconds   float64 `json:"total_seconds"`
	// ShuffleTuplesPerSec is routed tuples (total input I, including
	// duplicates) per second of shuffle time.
	ShuffleTuplesPerSec float64 `json:"shuffle_tuples_per_sec"`
	// JoinInputTuplesPerSec is partition input tuples consumed per second of
	// join wall time; JoinOutputPairsPerSec is result pairs per second.
	JoinInputTuplesPerSec float64 `json:"join_input_tuples_per_sec"`
	JoinOutputPairsPerSec float64 `json:"join_output_pairs_per_sec"`
}

// MicroBenchmark is one local-join micro-benchmark result (testing.Benchmark
// over one Join call on a partition-sized input).
type MicroBenchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// PipelineReport is the machine-readable benchmark artifact (BENCH_pipeline.json)
// every future PR's numbers are compared against.
type PipelineReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"gomaxprocs"`

	Tuples      int     `json:"tuples_per_relation"`
	Dims        int     `json:"dims"`
	Eps         float64 `json:"band_width"`
	Workers     int     `json:"workers"`
	Partitioner string  `json:"partitioner"`
	Partitions  int     `json:"partitions"`
	TotalInput  int64   `json:"total_input"`
	Output      int64   `json:"output_pairs"`

	Reference PipelineMeasurement `json:"reference"`
	Optimized PipelineMeasurement `json:"optimized"`

	// Speedups are reference / optimized wall-time ratios.
	SpeedupEndToEnd float64 `json:"speedup_end_to_end"`
	SpeedupShuffle  float64 `json:"speedup_shuffle"`
	SpeedupJoin     float64 `json:"speedup_join"`

	Micro []MicroBenchmark `json:"micro_benchmarks,omitempty"`
}

// RunPipeline executes the pipeline benchmark. The plan is computed once and
// shared by both paths, so the comparison isolates the execution pipeline.
func RunPipeline(cfg PipelineConfig) (*PipelineReport, error) {
	if cfg.Tuples <= 0 || cfg.Dims <= 0 || cfg.Workers <= 0 {
		return nil, fmt.Errorf("bench: invalid pipeline config %+v", cfg)
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	s, t := data.ParetoPair(cfg.Dims, 1.5, cfg.Tuples, cfg.Seed)
	band := data.Uniform(cfg.Dims, cfg.Eps)

	pt := core.NewRecPartS()
	smp, err := sample.Draw(s, t, band, sample.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("bench: sampling: %w", err)
	}
	ctx := &partition.Context{Band: band, Workers: cfg.Workers, Sample: smp, Model: costmodel.Default(), Seed: cfg.Seed}
	plan, err := pt.Plan(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench: planning: %w", err)
	}

	refOpts := exec.Options{
		Workers:       cfg.Workers,
		Model:         costmodel.Default(),
		SerialShuffle: true,
		Parallelism:   1,
		Algorithm:     localjoin.SortProbe{},
	}
	optOpts := exec.Options{Workers: cfg.Workers, Model: costmodel.Default()}

	ref, refRes, err := measurePipeline(plan, s, t, band, refOpts, cfg.Rounds, "serial-reference")
	if err != nil {
		return nil, err
	}
	opt, optRes, err := measurePipeline(plan, s, t, band, optOpts, cfg.Rounds, "parallel")
	if err != nil {
		return nil, err
	}
	if refRes.Output != optRes.Output || refRes.TotalInput != optRes.TotalInput {
		return nil, fmt.Errorf("bench: paths disagree: reference (I=%d, out=%d) vs optimized (I=%d, out=%d)",
			refRes.TotalInput, refRes.Output, optRes.TotalInput, optRes.Output)
	}

	rep := &PipelineReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Tuples:      cfg.Tuples,
		Dims:        cfg.Dims,
		Eps:         cfg.Eps,
		Workers:     cfg.Workers,
		Partitioner: pt.Name(),
		Partitions:  optRes.Partitions,
		TotalInput:  optRes.TotalInput,
		Output:      optRes.Output,
		Reference:   ref,
		Optimized:   opt,
	}
	rep.SpeedupEndToEnd = ratio(ref.TotalSeconds, opt.TotalSeconds)
	rep.SpeedupShuffle = ratio(ref.ShuffleSeconds, opt.ShuffleSeconds)
	rep.SpeedupJoin = ratio(ref.JoinSeconds, opt.JoinSeconds)

	if !cfg.SkipMicro {
		rep.Micro = microBenchmarks()
	}
	return rep, nil
}

// measurePipeline runs ExecutePlan rounds times and keeps the fastest round.
func measurePipeline(plan partition.Plan, s, t *data.Relation, band data.Band, opts exec.Options, rounds int, path string) (PipelineMeasurement, *exec.Result, error) {
	var best *exec.Result
	for r := 0; r < rounds; r++ {
		res, err := exec.ExecutePlan(context.Background(), plan, s, t, band, opts)
		if err != nil {
			return PipelineMeasurement{}, nil, fmt.Errorf("bench: %s ExecutePlan: %w", path, err)
		}
		if best == nil || res.ShuffleTime+res.JoinWallTime < best.ShuffleTime+best.JoinWallTime {
			best = res
		}
	}
	alg := opts.Algorithm
	if alg == nil {
		alg = localjoin.Default()
	}
	shuffle := best.ShuffleTime.Seconds()
	join := best.JoinWallTime.Seconds()
	m := PipelineMeasurement{
		Path:           path,
		Algorithm:      alg.Name(),
		ShuffleSeconds: shuffle,
		JoinSeconds:    join,
		TotalSeconds:   shuffle + join,
	}
	if shuffle > 0 {
		m.ShuffleTuplesPerSec = float64(best.TotalInput) / shuffle
	}
	if join > 0 {
		m.JoinInputTuplesPerSec = float64(best.TotalInput) / join
		m.JoinOutputPairsPerSec = float64(best.Output) / join
	}
	return m, best, nil
}

// microBenchmarks measures the local-join algorithms in isolation on a
// partition-sized input, reporting allocations per Join call (the acceptance
// criterion: zero in the steady state for the scratch-buffer algorithms).
func microBenchmarks() []MicroBenchmark {
	s, t := data.ParetoPair(3, 1.5, 20_000, 7)
	band := data.Uniform(3, 0.0005)
	algs := []localjoin.Algorithm{
		localjoin.SortProbe{},
		localjoin.GridSortScan{},
		localjoin.EpsGrid{},
	}
	out := make([]MicroBenchmark, 0, len(algs))
	for _, alg := range algs {
		alg.Join(s, t, band, nil) // warm scratch pools
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				alg.Join(s, t, band, nil)
			}
		})
		out = append(out, MicroBenchmark{
			Name:        alg.Name(),
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return out
}

// WritePipelineJSON writes the report as indented JSON.
func WritePipelineJSON(w io.Writer, rep *PipelineReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func ratio(ref, opt float64) float64 {
	if opt <= 0 {
		return 0
	}
	return ref / opt
}
