package sample

import (
	"math"
	"math/rand"
	"testing"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

func TestUniformSampleSizeAndMembership(t *testing.T) {
	r := data.NewRelation("r", 1)
	for i := 0; i < 1000; i++ {
		r.Append(float64(i))
	}
	rng := rand.New(rand.NewSource(1))
	s := Uniform(r, 100, rng)
	if s.Len() != 100 {
		t.Fatalf("sample size = %d, want 100", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		v := s.Key(i)[0]
		if v < 0 || v >= 1000 || v != math.Trunc(v) {
			t.Fatalf("sample value %g is not an input value", v)
		}
	}
	// Requesting more than the population returns the whole relation.
	all := Uniform(r, 5000, rng)
	if all.Len() != 1000 {
		t.Errorf("oversized sample = %d, want 1000", all.Len())
	}
}

func TestUniformSampleIsRoughlyUnbiased(t *testing.T) {
	r := data.NewRelation("r", 1)
	for i := 0; i < 10000; i++ {
		r.Append(float64(i))
	}
	s := Uniform(r, 2000, rand.New(rand.NewSource(2)))
	below := 0
	for i := 0; i < s.Len(); i++ {
		if s.Key(i)[0] < 5000 {
			below++
		}
	}
	frac := float64(below) / float64(s.Len())
	if frac < 0.42 || frac > 0.58 {
		t.Errorf("sample fraction below the median = %.2f, want ≈ 0.5", frac)
	}
}

func TestDrawValidation(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 500, 1)
	if _, err := Draw(s, tt, data.Symmetric(1), DefaultOptions()); err == nil {
		t.Error("band dimensionality mismatch accepted")
	}
	if _, err := Draw(s, tt, data.Band{Low: []float64{-1, 0}, High: []float64{1, 0}}, DefaultOptions()); err == nil {
		t.Error("invalid band accepted")
	}
	empty := data.NewRelation("e", 2)
	if _, err := Draw(empty, empty.Clone(""), data.Symmetric(1, 1), DefaultOptions()); err == nil {
		t.Error("empty inputs accepted")
	}
}

func TestDrawScalesBackToTotals(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 4000, 3)
	band := data.Symmetric(0.1, 0.1)
	smp, err := Draw(s, tt, band, Options{InputSampleSize: 800, OutputSampleSize: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if smp.TotalS != 4000 || smp.TotalT != 4000 {
		t.Errorf("totals %d/%d", smp.TotalS, smp.TotalT)
	}
	if got := smp.ScaleS(smp.S.Len()); math.Abs(got-4000) > 1 {
		t.Errorf("ScaleS of the whole sample = %g, want 4000", got)
	}
	if got := smp.ScaleT(smp.T.Len()); math.Abs(got-4000) > 1 {
		t.Errorf("ScaleT of the whole sample = %g, want 4000", got)
	}
	if smp.S.Len()+smp.T.Len() > 800 {
		t.Errorf("input sample larger than requested: %d", smp.S.Len()+smp.T.Len())
	}
}

func TestOutputSampleEstimatesJoinSize(t *testing.T) {
	s, tt := data.ParetoPair(1, 1.5, 6000, 5)
	band := data.Symmetric(0.01)
	exact := localjoin.Join(s, tt, band, nil)
	if exact == 0 {
		t.Skip("workload produced no output; widen the band")
	}
	smp, err := Draw(s, tt, band, Options{InputSampleSize: 3000, OutputSampleSize: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	est := smp.EstimatedOutput()
	ratio := est / float64(exact)
	if ratio < 0.3 || ratio > 3.0 {
		t.Errorf("output estimate %g is far from the exact size %d (ratio %.2f)", est, exact, ratio)
	}
	if smp.OutS.Len() != smp.OutT.Len() {
		t.Errorf("output sample sides differ: %d vs %d", smp.OutS.Len(), smp.OutT.Len())
	}
	// Every output sample pair must actually satisfy the band condition.
	for i := 0; i < smp.OutS.Len(); i++ {
		if !band.Matches(smp.OutS.Key(i), smp.OutT.Key(i)) {
			t.Fatalf("output sample pair %d does not satisfy the band condition", i)
		}
	}
}

func TestOutputSampleCap(t *testing.T) {
	// A huge band makes the sample join produce many pairs; the cap must hold
	// and the weight must compensate.
	s, tt := data.ParetoPair(1, 1.5, 2000, 7)
	band := data.Symmetric(1000)
	smp, err := Draw(s, tt, band, Options{InputSampleSize: 600, OutputSampleSize: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if smp.OutS.Len() > 200 {
		t.Errorf("output sample %d exceeds the cap", smp.OutS.Len())
	}
	est := smp.EstimatedOutput()
	exactOrder := float64(2000) * float64(2000) // nearly a Cartesian product
	if est < exactOrder/10 || est > exactOrder*10 {
		t.Errorf("capped output estimate %g is off by more than 10x from ≈%g", est, exactOrder)
	}
}

func TestScaleHelpers(t *testing.T) {
	smp := &Sample{SRate: 0.1, TRate: 0.5, OutWeight: 7}
	if smp.ScaleS(10) != 100 || smp.ScaleT(10) != 20 || smp.ScaleOut(3) != 21 {
		t.Error("scaling helpers wrong")
	}
	zero := &Sample{}
	if zero.ScaleS(5) != 0 || zero.ScaleT(5) != 0 {
		t.Error("zero-rate scaling should be 0")
	}
}

func TestDefaultOptionsApplied(t *testing.T) {
	s, tt := data.ParetoPair(1, 1.0, 300, 9)
	smp, err := Draw(s, tt, data.Symmetric(0.5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if smp.S.Len() == 0 || smp.T.Len() == 0 {
		t.Error("defaulted options produced an empty sample")
	}
}

// TestDrawGuaranteesSamplesForOutnumberedInput is the regression test for the
// degenerate-sampling bug: with |S| = 10 against |T| = 1,000,000 the
// proportional split rounds S's share to zero samples, which collapsed SRate
// to 0 and with it every ScaleS-based load estimate. Both inputs must now get
// at least one sample tuple.
func TestDrawGuaranteesSamplesForOutnumberedInput(t *testing.T) {
	small := data.NewRelation("small", 1)
	for i := 0; i < 10; i++ {
		small.Append(float64(i) / 10)
	}
	big := data.NewRelationCapacity("big", 1, 1_000_000)
	for i := 0; i < 1_000_000; i++ {
		big.Append(float64(i%1000) / 1000)
	}
	band := data.Symmetric(0.05)

	for _, tc := range []struct {
		name string
		s, t *data.Relation
	}{
		{"small-S", small, big},
		{"small-T", big, small},
	} {
		t.Run(tc.name, func(t *testing.T) {
			smp, err := Draw(tc.s, tc.t, band, DefaultOptions())
			if err != nil {
				t.Fatalf("Draw: %v", err)
			}
			if smp.S.Len() < 1 || smp.T.Len() < 1 {
				t.Fatalf("sample sizes (%d, %d): every non-empty input must contribute at least one sample",
					smp.S.Len(), smp.T.Len())
			}
			if smp.SRate <= 0 || smp.TRate <= 0 {
				t.Fatalf("sampling rates (%g, %g) must be positive", smp.SRate, smp.TRate)
			}
			if smp.ScaleS(smp.S.Len()) <= 0 || smp.ScaleT(smp.T.Len()) <= 0 {
				t.Fatalf("scale estimates degenerate: ScaleS=%g ScaleT=%g",
					smp.ScaleS(smp.S.Len()), smp.ScaleT(smp.T.Len()))
			}
		})
	}
}

// TestDrawMatchesStagedDraw: Draw must be exactly DrawInputs followed by
// ForBand, and ForBand must be repeatable — the cached-sample path an engine
// takes has to produce bit-identical samples to the one-shot path.
func TestDrawMatchesStagedDraw(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 3000, 11)
	band := data.Symmetric(0.2, 0.2)
	opts := Options{InputSampleSize: 900, OutputSampleSize: 300, Seed: 5}

	oneShot, err := Draw(s, tt, band, opts)
	if err != nil {
		t.Fatal(err)
	}
	in, err := DrawInputs(s, tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		staged, err := in.ForBand(band)
		if err != nil {
			t.Fatal(err)
		}
		if staged.S.Len() != oneShot.S.Len() || staged.T.Len() != oneShot.T.Len() {
			t.Fatalf("round %d: input sample sizes (%d,%d), one-shot (%d,%d)",
				round, staged.S.Len(), staged.T.Len(), oneShot.S.Len(), oneShot.T.Len())
		}
		for i := 0; i < staged.S.Len(); i++ {
			for d := 0; d < staged.S.Dims(); d++ {
				if staged.S.KeyAt(i, d) != oneShot.S.KeyAt(i, d) {
					t.Fatalf("round %d: S sample row %d differs", round, i)
				}
			}
		}
		if staged.OutS.Len() != oneShot.OutS.Len() || staged.OutWeight != oneShot.OutWeight {
			t.Fatalf("round %d: output sample (%d pairs, w=%g), one-shot (%d pairs, w=%g)",
				round, staged.OutS.Len(), staged.OutWeight, oneShot.OutS.Len(), oneShot.OutWeight)
		}
		for i := 0; i < staged.OutS.Len(); i++ {
			for d := 0; d < staged.OutS.Dims(); d++ {
				if staged.OutS.KeyAt(i, d) != oneShot.OutS.KeyAt(i, d) || staged.OutT.KeyAt(i, d) != oneShot.OutT.KeyAt(i, d) {
					t.Fatalf("round %d: output sample pair %d differs", round, i)
				}
			}
		}
	}
}

// TestInputSampleReuseAcrossBands: one InputSample serves several band
// conditions, each matching its own one-shot Draw.
func TestInputSampleReuseAcrossBands(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 2000, 17)
	opts := Options{InputSampleSize: 600, OutputSampleSize: 400, Seed: 9}
	in, err := DrawInputs(s, tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.05, 0.2, 0.5} {
		band := data.Uniform(2, eps)
		staged, err := in.ForBand(band)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := Draw(s, tt, band, opts)
		if err != nil {
			t.Fatal(err)
		}
		if staged.OutS.Len() != oneShot.OutS.Len() || staged.EstimatedOutput() != oneShot.EstimatedOutput() {
			t.Errorf("eps=%g: staged estimate %g (%d pairs), one-shot %g (%d pairs)",
				eps, staged.EstimatedOutput(), staged.OutS.Len(), oneShot.EstimatedOutput(), oneShot.OutS.Len())
		}
	}
	if _, err := in.ForBand(data.Symmetric(1, 1, 1)); err == nil {
		t.Error("dimension mismatch accepted by ForBand")
	}
}
