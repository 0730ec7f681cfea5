package bandjoin

import (
	"fmt"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/exec"
	"bandjoin/internal/sample"
	"bandjoin/internal/wire"
)

// resolved is the fully defaulted and validated form of Options. It is the
// single source of option-resolution truth shared by the one-shot Join, the
// cluster path, and the engine — previously each path defaulted its knobs
// independently (and silently accepted nonsense like negative worker counts).
type resolved struct {
	Workers         int
	Partitioner     Partitioner
	Model           CostModel
	Sampling        sample.Options
	CollectPairs    bool
	EstimateOnly    bool
	Seed            int64
	ChunkSize       int
	JoinParallelism int
	MorselRows      int
}

// resolve validates the options and fills defaults. Nonsensical values —
// negative Workers, ClusterChunkSize, ClusterJoinParallelism,
// or sample sizes — are errors rather than being silently replaced, so a
// caller who mis-derives a knob hears about it instead of getting a default.
func (o Options) resolve() (resolved, error) {
	var r resolved
	if o.Workers < 0 {
		return r, fmt.Errorf("bandjoin: Workers must be >= 0 (0 selects the default), got %d", o.Workers)
	}
	if o.InputSampleSize < 0 || o.OutputSampleSize < 0 {
		return r, fmt.Errorf("bandjoin: sample sizes must be >= 0, got input %d, output %d",
			o.InputSampleSize, o.OutputSampleSize)
	}
	if o.ClusterChunkSize < 0 || o.ClusterChunkSize > wire.MaxChunkRows {
		return r, fmt.Errorf("bandjoin: ClusterChunkSize must be in [0, %d], got %d", wire.MaxChunkRows, o.ClusterChunkSize)
	}
	if o.ClusterJoinParallelism < 0 {
		return r, fmt.Errorf("bandjoin: ClusterJoinParallelism must be >= 0, got %d", o.ClusterJoinParallelism)
	}
	if o.PlannerParallelism < 0 {
		return r, fmt.Errorf("bandjoin: PlannerParallelism must be >= 0, got %d", o.PlannerParallelism)
	}

	r.Workers = o.Workers
	if r.Workers == 0 {
		r.Workers = 8
	}
	r.Partitioner = o.Partitioner
	if r.Partitioner == nil {
		r.Partitioner = defaultPartitioner(o.PlannerParallelism)
	}
	r.Model = o.Model
	if (r.Model == costmodel.Model{}) {
		r.Model = costmodel.Default()
	}
	r.Sampling = sample.Options{
		InputSampleSize:  o.InputSampleSize,
		OutputSampleSize: o.OutputSampleSize,
		Seed:             o.Seed + 1,
	}
	if r.Sampling.InputSampleSize == 0 {
		r.Sampling = sample.DefaultOptions()
		r.Sampling.Seed = o.Seed + 1
	}
	r.CollectPairs = o.CollectPairs
	r.EstimateOnly = o.EstimateOnly
	r.Seed = o.Seed
	r.ChunkSize = o.ClusterChunkSize
	r.JoinParallelism = o.ClusterJoinParallelism
	r.MorselRows = o.MorselRows // negative is meaningful: one morsel per partition
	return r, nil
}

// execOptions converts the resolved options into the in-process executor's
// form.
func (r resolved) execOptions() exec.Options {
	return exec.Options{
		Workers:      r.Workers,
		Model:        r.Model,
		Sampling:     r.Sampling,
		CollectPairs: r.CollectPairs,
		MorselRows:   r.MorselRows,
		Seed:         r.Seed,
	}
}
