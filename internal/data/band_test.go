package data

import (
	"math"
	"testing"
)

func TestSymmetricMatches(t *testing.T) {
	b := Symmetric(1, 2)
	cases := []struct {
		s, tt []float64
		want  bool
	}{
		{[]float64{0, 0}, []float64{1, 2}, true},
		{[]float64{0, 0}, []float64{1.0001, 0}, false},
		{[]float64{0, 0}, []float64{0, -2}, true},
		{[]float64{0, 0}, []float64{0, -2.5}, false},
		{[]float64{5, 5}, []float64{5, 5}, true},
	}
	for _, c := range cases {
		if got := b.Matches(c.s, c.tt); got != c.want {
			t.Errorf("Matches(%v, %v) = %v, want %v", c.s, c.tt, got, c.want)
		}
	}
}

func TestAsymmetricMatches(t *testing.T) {
	// s - 2 <= t <= s + 1
	b := Asymmetric([]float64{2}, []float64{1})
	if !b.Matches([]float64{10}, []float64{8}) {
		t.Error("t = s-2 should match")
	}
	if b.Matches([]float64{10}, []float64{7.9}) {
		t.Error("t = s-2.1 should not match")
	}
	if !b.Matches([]float64{10}, []float64{11}) {
		t.Error("t = s+1 should match")
	}
	if b.Matches([]float64{10}, []float64{11.1}) {
		t.Error("t = s+1.1 should not match")
	}
}

func TestAsymmetricPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Asymmetric accepted mismatched widths")
		}
	}()
	Asymmetric([]float64{1}, []float64{1, 2})
}

func TestUniform(t *testing.T) {
	b := Uniform(3, 2.5)
	if b.Dims() != 3 {
		t.Fatalf("Dims = %d", b.Dims())
	}
	for i := 0; i < 3; i++ {
		if b.Low[i] != 2.5 || b.High[i] != 2.5 {
			t.Errorf("dimension %d widths = %g/%g", i, b.Low[i], b.High[i])
		}
	}
}

func TestBandValidate(t *testing.T) {
	if err := Symmetric(1, 2).Validate(); err != nil {
		t.Errorf("valid band rejected: %v", err)
	}
	if err := (Band{}).Validate(); err == nil {
		t.Error("empty band accepted")
	}
	if err := (Band{Low: []float64{1}, High: []float64{1, 2}}).Validate(); err == nil {
		t.Error("mismatched band accepted")
	}
	if err := (Band{Low: []float64{-1}, High: []float64{1}}).Validate(); err == nil {
		t.Error("negative width accepted")
	}
	if err := (Band{Low: []float64{math.NaN()}, High: []float64{1}}).Validate(); err == nil {
		t.Error("NaN width accepted")
	}
	if err := (Band{Low: []float64{math.Inf(1)}, High: []float64{1}}).Validate(); err == nil {
		t.Error("infinite width accepted")
	}
}

func TestIsEquiJoin(t *testing.T) {
	if !Symmetric(0, 0).IsEquiJoin() {
		t.Error("zero widths should be an equi-join")
	}
	if Symmetric(0, 1).IsEquiJoin() {
		t.Error("non-zero width flagged as equi-join")
	}
}

func TestWidthAccessors(t *testing.T) {
	b := Asymmetric([]float64{1}, []float64{3})
	if b.Width(0) != 4 {
		t.Errorf("Width = %g, want 4", b.Width(0))
	}
	if b.MaxWidth(0) != 3 {
		t.Errorf("MaxWidth = %g, want 3", b.MaxWidth(0))
	}
}

func TestMatchesDim(t *testing.T) {
	b := Symmetric(1, 5)
	if !b.MatchesDim(0, 3, 4) || b.MatchesDim(0, 3, 4.5) {
		t.Error("MatchesDim dimension 0 wrong")
	}
	if !b.MatchesDim(1, 0, 5) || b.MatchesDim(1, 0, 6) {
		t.Error("MatchesDim dimension 1 wrong")
	}
}

// TestMatchesNonFinite pins the documented semantics: Matches and MatchesDim
// are the same predicate, false for NaN on either side, and ±Inf matches only
// itself.
func TestMatchesNonFinite(t *testing.T) {
	b := Symmetric(1)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		s, t float64
		want bool
	}{
		{nan, 0, false}, {0, nan, false}, {nan, nan, false},
		{inf, inf, true}, {-inf, -inf, true}, {inf, -inf, false},
		{inf, math.MaxFloat64, false}, {0, inf, false},
		{1e300, 1e300, true}, {math.MaxFloat64, inf, false},
	}
	for _, c := range cases {
		if got := b.Matches([]float64{c.s}, []float64{c.t}); got != c.want {
			t.Errorf("Matches(%g, %g) = %v, want %v", c.s, c.t, got, c.want)
		}
		if got := b.MatchesDim(0, c.s, c.t); got != c.want {
			t.Errorf("MatchesDim(%g, %g) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestBandString(t *testing.T) {
	if Symmetric(1).String() == "" {
		t.Error("String() empty")
	}
}
