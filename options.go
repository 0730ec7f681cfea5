package bandjoin

import (
	"fmt"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/exec"
	"bandjoin/internal/sample"
)

// resolved is the fully defaulted and validated form of Options. It is the
// single source of option-resolution truth shared by the one-shot Join, the
// cluster path, and the engine — previously each path defaulted its knobs
// independently (and silently accepted nonsense like negative worker counts).
type resolved struct {
	Workers      int
	Partitioner  Partitioner
	Model        CostModel
	Sampling     sample.Options
	CollectPairs bool
	EstimateOnly bool
	Seed         int64
}

// resolve validates the options and fills defaults. Nonsensical values —
// negative Workers or sample sizes — are errors rather than being silently replaced, so a
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

	r.Workers = o.Workers
	if r.Workers == 0 {
		r.Workers = 8
	}
	r.Partitioner = o.Partitioner
	if r.Partitioner == nil {
		r.Partitioner = RecPart()
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
		Seed:         r.Seed,
	}
}
