package core

import (
	"math"
	"runtime"
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
// iteration, on replanShape. Past its first few iterations ForBand times rung
// hits, a filter over a covering band's cached pairs; ForBandMiss times the
// join a rung's first band pays, each iteration asking its band of a fresh
// InputSample over the same rows that has answered one band before (set up
// outside the timer).
func BenchmarkReplan(b *testing.B) {
	drawn, band := replanShape(b)
	plan := func(b *testing.B, ctx *partition.Context) {
		if _, err := NewDefault().Plan(ctx); err != nil {
			b.Fatal(err)
		}
	}
	// One plan outside the timers: the first builds the sample's columns and
	// sizes the planner's scratch.
	plan(b, replanContext(b, drawn, band(0)))

	b.Run("ForBand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := drawn.ForBand(band(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ForBandMiss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := &sample.InputSample{S: drawn.S, T: drawn.T, SRate: drawn.SRate, TRate: drawn.TRate,
				TotalS: drawn.TotalS, TotalT: drawn.TotalT, Opts: drawn.Opts}
			if _, err := fresh.ForBand(band(0)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := fresh.ForBand(band(i + 1)); err != nil {
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
// live in the planner's scratch, so the count must not grow. What remains is
// the plan itself — the replayed split tree, its regions and the history — not
// the grower's working state. The sweeps run inline because a worker pool
// hands tasks out in whatever order its goroutines arrive, so which worker's
// scratch first meets the largest leaf, and allocates, varies from run to run.
const maxPlanAllocs = 305

// TestPlanSteadyStateAllocs pins a warm plan's allocations on replanShape.
// AllocsPerRun runs at GOMAXPROCS 1, so the planner's sweeps run inline.
func TestPlanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("data.Argsort's sync.Pool drops items under -race; steady state not observable")
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

// maxBytesPerPlanAfterGC bounds what a plan on replanShape allocates when two
// GCs ran since the last plan and it starts on a fresh goroutine: the plan
// itself, 40–100 KB. A plan that cannot find the last plan's scratch
// regrows its arenas, about 16 MB.
const maxBytesPerPlanAfterGC = 1 << 20

// TestPlanAfterGCSteadyStateAllocs: the planner's scratch survives garbage
// collections and is found by a plan that runs on another goroutine, and so
// on whichever core picks it up.
func TestPlanAfterGCSteadyStateAllocs(t *testing.T) {
	drawn, band := replanShape(t)
	rp := NewDefault()
	plan := func(ctx *partition.Context) {
		done := make(chan error)
		go func() {
			_, err := rp.Plan(ctx)
			done <- err
		}()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	const warm, rounds = 3, 6
	ctxs := make([]*partition.Context, warm+rounds)
	for i := range ctxs {
		ctxs[i] = replanContext(t, drawn, band(i+1))
	}
	for _, ctx := range ctxs[:warm] {
		plan(ctx)
	}
	var before, after runtime.MemStats
	var total uint64
	for _, ctx := range ctxs[warm:] {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		plan(ctx)
		runtime.ReadMemStats(&after)
		t.Logf("%d bytes allocated", after.TotalAlloc-before.TotalAlloc)
		total += after.TotalAlloc - before.TotalAlloc
	}
	if perPlan := total / rounds; perPlan > maxBytesPerPlanAfterGC {
		t.Errorf("a plan after two GCs allocates %d bytes, more than %d: it regrew the planner's scratch", perPlan, maxBytesPerPlanAfterGC)
	}
}

// TestHeldPlanSurvivesScratchReuse: a finished Plan never aliases the
// planner's scratch, so the plans that reuse it after leave a held plan's
// routing unchanged.
func TestHeldPlanSurvivesScratchReuse(t *testing.T) {
	cases := equivCases()
	held := cases[len(cases)-1]
	ctx := equivContext(t, held)
	opts := DefaultOptions()
	opts.Symmetric = held.symmetric
	plan, err := New(opts).PlanDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := hashAssignments(plan, ctx.Sample)
	for _, c := range cases[:len(cases)-1] {
		opts := DefaultOptions()
		opts.Symmetric = c.symmetric
		if _, err := New(opts).Plan(equivContext(t, c)); err != nil {
			t.Fatal(err)
		}
	}
	if got := hashAssignments(plan, ctx.Sample); got != want {
		t.Fatalf("the held plan's assignments hash to %#x after %d more plans, %#x before", got, len(cases)-1, want)
	}
}
