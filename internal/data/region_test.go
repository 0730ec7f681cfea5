package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRegionPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRegion accepted mismatched bounds")
		}
	}()
	NewRegion([]float64{0}, []float64{1, 2})
}

// TestSplitTilesExactly is the invariant the split tree relies on: after a
// split, every key of the parent region belongs to exactly one child.
func TestSplitTilesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(raw [3]float64, splitRaw float64) bool {
		parent := NewRegion([]float64{-10, -10, -10}, []float64{10, 10, 10})
		split := math.Mod(math.Abs(splitRaw), 18) - 9
		left, right := parent.SplitAt(1, split)
		key := []float64{
			math.Mod(raw[0], 10),
			math.Mod(raw[1], 10),
			math.Mod(raw[2], 10),
		}
		if !contains(parent, key) {
			return true
		}
		return contains(left, key) != contains(right, key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRegionSmall(t *testing.T) {
	band := Symmetric(1, 2)
	small := NewRegion([]float64{0, 0}, []float64{2, 4}) // extent equals 2ε in both dims
	if !small.IsSmall(band) {
		t.Error("region with extent 2ε in every dimension should be small")
	}
	big := NewRegion([]float64{0, 0}, []float64{2.1, 4})
	if big.IsSmall(band) {
		t.Error("region exceeding 2ε in one dimension should not be small")
	}
	if !big.SmallInDim(1, band) || big.SmallInDim(0, band) {
		t.Error("SmallInDim disagrees with extents")
	}
	inf := math.Inf(1)
	unbounded := NewRegion([]float64{-inf, -inf}, []float64{inf, inf})
	if unbounded.IsSmall(band) {
		t.Error("unbounded region cannot be small")
	}
	equi := Symmetric(0, 0)
	if NewRegion([]float64{0, 0}, []float64{1, 1}).IsSmall(equi) {
		t.Error("non-degenerate region cannot be small under an equi-join")
	}
}

func TestRegionExtentAndString(t *testing.T) {
	r := NewRegion([]float64{1}, []float64{4})
	if r.Extent(0) != 3 {
		t.Errorf("Extent = %g", r.Extent(0))
	}
	if r.String() == "" {
		t.Error("String() empty")
	}
}

// contains reports whether the key lies in the region the way the split tree
// routes it: lower-closed, upper-open, with an upper bound of +Inf unbounded.
func contains(r Region, key []float64) bool {
	for i, v := range key {
		if v < r.Lo[i] || (v >= r.Hi[i] && !math.IsInf(r.Hi[i], 1)) {
			return false
		}
	}
	return true
}
