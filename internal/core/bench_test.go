package core

import (
	"math"
	"testing"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// BenchmarkReplan measures what a band never seen before costs once the input
// sample is drawn — the optimizer's whole per-query cost in an engine whose
// sample tier hits: ForBand (the sample join) and Plan (the grower), as
// separate sub-benchmarks over one drawn InputSample, with a fresh band per
// iteration. The shape is the benchmark's plan-sweep-pareto8d: 8-d Pareto,
// 32 000 input samples, 4 000 output pairs, widths in [0.16, 0.18).
func BenchmarkReplan(b *testing.B) {
	s, t := data.ParetoPair(8, 1.5, 200000, 1)
	drawn, err := sample.DrawInputs(s, t, sample.Options{InputSampleSize: 32000, OutputSampleSize: 4000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	band := func(i int) data.Band {
		_, frac := math.Modf(float64(i) * 0.6180339887498949)
		return data.Uniform(8, 0.16+0.02*frac)
	}
	plan := func(b *testing.B, smp *sample.Sample) {
		ctx := &partition.Context{Band: smp.Band, Workers: 8, Sample: smp, Model: costmodel.Default(), Seed: 1}
		if _, err := NewDefault().Plan(ctx); err != nil {
			b.Fatal(err)
		}
	}
	forBand := func(b *testing.B, i int) *sample.Sample {
		smp, err := drawn.ForBand(band(i))
		if err != nil {
			b.Fatal(err)
		}
		return smp
	}
	// One plan outside the timers: the first builds the sample's columns and
	// sizes the planner's pooled scratch.
	plan(b, forBand(b, 0))

	b.Run("ForBand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forBand(b, i+1)
		}
	})
	b.Run("Plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			smp := forBand(b, i+1)
			b.StartTimer()
			plan(b, smp)
		}
	})
}
