package core

import (
	"math"
	"testing"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// replanShape is the shape of the benchmark's plan-sweep-pareto8d: 8-d
// Pareto, 32 000 input samples, 4 000 output pairs, and a band of width in
// [0.16, 0.18) for each i.
func replanShape(tb testing.TB) (*sample.InputSample, func(i int) data.Band) {
	tb.Helper()
	s, t := data.ParetoPair(8, 1.5, 200000, 1)
	drawn, err := sample.DrawInputs(s, t, sample.Options{InputSampleSize: 32000, OutputSampleSize: 4000, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	band := func(i int) data.Band {
		_, frac := math.Modf(float64(i) * 0.6180339887498949)
		return data.Uniform(8, 0.16+0.02*frac)
	}
	return drawn, band
}

// replanContext is the planning context of one band of replanShape.
func replanContext(tb testing.TB, drawn *sample.InputSample, band data.Band) *partition.Context {
	tb.Helper()
	smp, err := drawn.ForBand(band)
	if err != nil {
		tb.Fatal(err)
	}
	return &partition.Context{Band: smp.Band, Workers: 8, Sample: smp, Model: costmodel.Default(), Seed: 1}
}

// BenchmarkReplan measures what a band never seen before costs once the input
// sample is drawn — the optimizer's whole per-query cost in an engine whose
// sample tier hits: ForBand (the sample join) and Plan (the grower), as
// separate sub-benchmarks over one drawn InputSample, with a fresh band per
// iteration, on replanShape.
func BenchmarkReplan(b *testing.B) {
	drawn, band := replanShape(b)
	plan := func(b *testing.B, ctx *partition.Context) {
		if _, err := NewDefault().Plan(ctx); err != nil {
			b.Fatal(err)
		}
	}
	// One plan outside the timers: the first builds the sample's columns and
	// sizes the planner's pooled scratch.
	plan(b, replanContext(b, drawn, band(0)))

	b.Run("ForBand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := drawn.ForBand(band(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ctx := replanContext(b, drawn, band(i+1))
			b.StartTimer()
			plan(b, ctx)
		}
	})
}

// maxPlanAllocs is the allocation count of a warm plan on replanShape, with
// the sweeps run inline, before the sweep's block bounds existed: the bounds
// live in pooled scratch, so the count must not grow. What remains is the plan
// itself — the replayed split tree, its regions and the history — not the
// grower's working state. The sweeps run inline because a worker pool hands
// tasks out in whatever order its goroutines arrive, so which pooled scratch
// first meets the largest leaf, and allocates, varies from run to run.
const maxPlanAllocs = 305

// TestPlanSteadyStateAllocs pins a warm plan's allocations on replanShape.
// AllocsPerRun runs at GOMAXPROCS 1, so the planner's sweeps run inline.
func TestPlanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady state not observable")
	}
	drawn, band := replanShape(t)
	ctx := replanContext(t, drawn, band(1))
	rp := NewDefault()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := rp.Plan(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per warm plan", allocs)
	if allocs > maxPlanAllocs {
		t.Errorf("a warm plan allocates %.0f times, more than the %d before the sweep's block bounds", allocs, maxPlanAllocs)
	}
}
