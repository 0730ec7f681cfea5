package exec

import (
	"context"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

func TestEstimatePartitionLoadsCoversAllPartitions(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 3000, 3)
	band := data.Symmetric(0.1, 0.1)
	smp, err := sample.Draw(s, tt, band, sample.Options{InputSampleSize: 1000, OutputSampleSize: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &partition.Context{Band: band, Workers: 6, Sample: smp, Model: costmodel.Default(), Seed: 1}
	plan, err := core.NewDefault().Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	loads := estimatePartitions(plan, ctx).load
	if len(loads) < plan.NumPartitions() {
		t.Fatalf("loads cover %d partitions, plan has %d", len(loads), plan.NumPartitions())
	}
	total := 0.0
	for _, l := range loads {
		if l < 0 {
			t.Fatal("negative estimated load")
		}
		total += l
	}
	// Total estimated load must at least account for the undivided input.
	minTotal := ctx.Model.Beta2 * float64(s.Len()+tt.Len()) * 0.9
	if total < minTotal {
		t.Errorf("total estimated load %g is implausibly small (< %g)", total, minTotal)
	}
}

// TestPlanQueryRejectsBadInputs: planning refuses a worker count below one
// and an invalid band before it plans anything.
func TestPlanQueryRejectsBadInputs(t *testing.T) {
	s, tt := data.ParetoPair(1, 1.5, 300, 5)
	band := data.Symmetric(0.1)
	smp, err := sample.Draw(s, tt, band, sample.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanQuery(core.NewDefault(), smp, band, Options{Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := PlanQuery(core.NewDefault(), smp, data.Band{Low: []float64{-1}, High: []float64{1}}, Options{Workers: 2}); err == nil {
		t.Error("invalid band accepted")
	}
	if _, err := PlanQuery(core.NewDefault(), smp, data.Band{Low: []float64{1}, High: []float64{1, 2}}, Options{Workers: 2}); err == nil {
		t.Error("invalid band accepted")
	}
}

// TestExecutePlanRejectsBadInputs: executing a valid plan refuses a worker
// count below one before it routes anything.
func TestExecutePlanRejectsBadInputs(t *testing.T) {
	s, tt := data.ParetoPair(1, 1.5, 300, 5)
	band := data.Symmetric(0.1)
	smp, err := sample.Draw(s, tt, band, sample.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PlanQuery(core.NewDefault(), smp, band, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecutePlan(context.Background(), prep.Plan, s, tt, band, Options{Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
}
