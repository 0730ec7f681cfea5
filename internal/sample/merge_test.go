package sample

import (
	"math"
	"testing"

	"bandjoin/internal/data"
)

// seqRelation returns an n-tuple 1D relation with keys lo, lo+1, ….
func seqRelation(name string, lo, n int) *data.Relation {
	r := data.NewRelationCapacity(name, 1, n)
	for i := 0; i < n; i++ {
		r.Append(float64(lo + i))
	}
	return r
}

func sameRelation(a, b *data.Relation) bool {
	if a.Len() != b.Len() || a.Dims() != b.Dims() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		for d := 0; d < a.Dims(); d++ {
			if a.KeyAt(i, d) != b.KeyAt(i, d) {
				return false
			}
		}
	}
	return true
}

func TestMergeValidation(t *testing.T) {
	s := seqRelation("s", 0, 5000)
	tt := seqRelation("t", 0, 5000)
	in, err := DrawInputs(s, tt, Options{InputSampleSize: 400, Seed: 3})
	if err != nil {
		t.Fatalf("DrawInputs: %v", err)
	}
	bad := data.NewRelation("d", 2)
	bad.Append(1, 2)
	if _, err := in.Merge(bad, nil); err == nil {
		t.Error("S delta of wrong dimensionality accepted")
	}
	if _, err := in.Merge(nil, bad); err == nil {
		t.Error("T delta of wrong dimensionality accepted")
	}
	// Empty merge returns the receiver unchanged (same snapshot is fine).
	out, err := in.Merge(nil, data.NewRelation("d", 1))
	if err != nil {
		t.Fatalf("empty Merge: %v", err)
	}
	if out != in {
		t.Error("empty merge did not return the receiver")
	}
}

// TestMergeDeterministic: merging the same delta onto the same sample is
// bit-identical — the engine's plan-cache equivalence rests on this — while
// successive merges draw from fresh streams.
func TestMergeDeterministic(t *testing.T) {
	s := seqRelation("s", 0, 20000)
	tt := seqRelation("t", 0, 20000)
	opts := Options{InputSampleSize: 1000, Seed: 7}
	in, err := DrawInputs(s, tt, opts)
	if err != nil {
		t.Fatalf("DrawInputs: %v", err)
	}
	dS := seqRelation("ds", 20000, 3000)
	dT := seqRelation("dt", 20000, 1000)

	a, err := in.Merge(dS, dT)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	b, err := in.Merge(dS, dT)
	if err != nil {
		t.Fatalf("repeat Merge: %v", err)
	}
	if !sameRelation(a.S, b.S) || !sameRelation(a.T, b.T) {
		t.Error("repeated merge of the same delta is not bit-identical")
	}
	if a.TotalS != 23000 || a.TotalT != 21000 {
		t.Errorf("merged totals (%d, %d), want (23000, 21000)", a.TotalS, a.TotalT)
	}
	if a.S.Len() != in.S.Len() || a.T.Len() != in.T.Len() {
		t.Errorf("merged sample sizes (%d, %d) differ from base (%d, %d); down-sampled sides must keep their reservoir size",
			a.S.Len(), a.T.Len(), in.S.Len(), in.T.Len())
	}
	// The receiver is never mutated.
	if in.TotalS != 20000 || in.TotalT != 20000 {
		t.Errorf("receiver totals mutated to (%d, %d)", in.TotalS, in.TotalT)
	}
}

// TestMergeIsStatisticallyFresh: after appending a delta that is a known
// fraction of the stream, the merged reservoir must hold roughly that fraction
// of delta rows — the uniformity property that keeps cached samples usable for
// planning without rescanning the base.
func TestMergeIsStatisticallyFresh(t *testing.T) {
	const baseN, deltaN = 40000, 20000 // delta is 1/3 of the final stream
	s := seqRelation("s", 0, baseN)
	tt := seqRelation("t", 0, baseN)
	in, err := DrawInputs(s, tt, Options{InputSampleSize: 4000, Seed: 11})
	if err != nil {
		t.Fatalf("DrawInputs: %v", err)
	}
	out, err := in.Merge(seqRelation("ds", baseN, deltaN), seqRelation("dt", baseN, deltaN))
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	for _, side := range []struct {
		name string
		rel  *data.Relation
	}{{"S", out.S}, {"T", out.T}} {
		fromDelta := 0
		for i := 0; i < side.rel.Len(); i++ {
			if side.rel.KeyAt(i, 0) >= baseN {
				fromDelta++
			}
		}
		frac := float64(fromDelta) / float64(side.rel.Len())
		if frac < 0.25 || frac > 0.42 {
			t.Errorf("%s: delta fraction in merged sample = %.3f, want ≈ 1/3", side.name, frac)
		}
	}
	if got, want := out.SRate, float64(out.S.Len())/float64(baseN+deltaN); got != want {
		t.Errorf("SRate = %g, want %g", got, want)
	}
}

// TestMergeFillsUnfilledReservoir: a side whose sample still holds the whole
// base (the reservoir never filled) grows toward its proportional share of
// InputSampleSize before replacement starts, exactly like a reservoir filling
// from the extended stream.
func TestMergeFillsUnfilledReservoir(t *testing.T) {
	s := seqRelation("s", 0, 50)
	tt := seqRelation("t", 0, 50)
	in, err := DrawInputs(s, tt, Options{InputSampleSize: 400, Seed: 5})
	if err != nil {
		t.Fatalf("DrawInputs: %v", err)
	}
	if in.S.Len() != 50 || in.T.Len() != 50 {
		t.Fatalf("tiny inputs not fully sampled: (%d, %d)", in.S.Len(), in.T.Len())
	}
	out, err := in.Merge(seqRelation("ds", 50, 300), nil)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// New totals: S=350, T=50 → S's proportional target is 400*350/400 = 350,
	// capped by availability; the whole stream fits, so the sample holds it all.
	if out.S.Len() != 350 {
		t.Errorf("unfilled S reservoir grew to %d, want 350 (whole stream fits its target)", out.S.Len())
	}
	if out.T.Len() != 50 {
		t.Errorf("T sample resized to %d without a T delta", out.T.Len())
	}
	if out.SRate != 1 {
		t.Errorf("SRate = %g, want 1 when the sample holds the whole input", out.SRate)
	}
}

// TestMergeMatchesDrawDistributionForPlanning: planning from a merged sample
// must behave like planning from a fresh draw of the extended inputs — not
// bit-identically (different RNG streams), but with equivalent coverage: the
// merged sample's value range spans the delta's range, which a stale sample
// would miss entirely.
func TestMergeCoversDeltaRange(t *testing.T) {
	s := seqRelation("s", 0, 30000)
	tt := seqRelation("t", 0, 30000)
	in, err := DrawInputs(s, tt, Options{InputSampleSize: 2000, Seed: 17})
	if err != nil {
		t.Fatalf("DrawInputs: %v", err)
	}
	// Delta occupies a disjoint, far-away value range.
	out, err := in.Merge(seqRelation("ds", 1_000_000, 15000), seqRelation("dt", 1_000_000, 15000))
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	maxS := math.Inf(-1)
	for i := 0; i < out.S.Len(); i++ {
		maxS = max(maxS, out.S.Key(i)[0])
	}
	if maxS < 1_000_000 {
		t.Errorf("merged S sample max = %g; the appended range is invisible to the planner", maxS)
	}
}
