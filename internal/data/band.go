package data

import (
	"fmt"
	"math"
)

// Band describes a band-join condition over d join attributes. A pair (s, t)
// matches when, for every dimension i,
//
//	s.A_i - Low[i] <= t.A_i <= s.A_i + High[i].
//
// The symmetric band-join of the paper, |s.A_i − t.A_i| ≤ ε_i, corresponds to
// Low[i] == High[i] == ε_i. Asymmetric conditions (Section 2 of the paper)
// use different Low and High.
//
// The condition is evaluated exactly as written, in float64 arithmetic, and
// that evaluation is the definition every join algorithm and partitioner
// must agree with on every input:
//   - a NaN key matches nothing, not even another NaN (both comparisons are
//     false);
//   - ±Inf keys follow IEEE arithmetic: since widths are finite (Validate),
//     s.A_i = +Inf gives the range [+Inf, +Inf], so +Inf matches exactly +Inf,
//     and likewise −Inf matches exactly −Inf;
//   - for huge finite keys the bounds s.A_i − Low[i] and s.A_i + High[i]
//     round like any float64 sum (a width below half an ulp of the key is
//     absorbed; a sum beyond MaxFloat64 becomes ±Inf).
type Band struct {
	Low  []float64
	High []float64
}

// Symmetric returns a symmetric band condition with width eps[i] in each
// dimension.
func Symmetric(eps ...float64) Band {
	low := make([]float64, len(eps))
	high := make([]float64, len(eps))
	copy(low, eps)
	copy(high, eps)
	return Band{Low: low, High: high}
}

// Uniform returns a symmetric band condition with the same width in every one
// of d dimensions.
func Uniform(d int, eps float64) Band {
	w := make([]float64, d)
	for i := range w {
		w[i] = eps
	}
	return Symmetric(w...)
}

// Asymmetric returns a band condition with per-dimension lower and upper
// widths. It panics if the slices have different lengths.
func Asymmetric(low, high []float64) Band {
	if len(low) != len(high) {
		panic(fmt.Sprintf("data: asymmetric band widths must have equal length, got %d and %d", len(low), len(high)))
	}
	l := make([]float64, len(low))
	h := make([]float64, len(high))
	copy(l, low)
	copy(h, high)
	return Band{Low: l, High: h}
}

// Dims returns the dimensionality of the band condition.
func (b Band) Dims() int { return len(b.Low) }

// Validate reports whether the band condition is well formed: non-empty, equal
// Low/High lengths, and non-negative finite widths.
func (b Band) Validate() error {
	if len(b.Low) == 0 {
		return fmt.Errorf("data: band condition has no dimensions")
	}
	if len(b.Low) != len(b.High) {
		return fmt.Errorf("data: band condition has %d lower and %d upper widths", len(b.Low), len(b.High))
	}
	for i := range b.Low {
		if b.Low[i] < 0 || b.High[i] < 0 {
			return fmt.Errorf("data: band width in dimension %d is negative (low=%g, high=%g)", i, b.Low[i], b.High[i])
		}
		if math.IsNaN(b.Low[i]) || math.IsInf(b.Low[i], 0) || math.IsNaN(b.High[i]) || math.IsInf(b.High[i], 0) {
			return fmt.Errorf("data: band width in dimension %d is not finite", i)
		}
	}
	return nil
}

// Matches reports whether the pair (s, t) satisfies the band condition.
func (b Band) Matches(s, t []float64) bool {
	for i := range b.Low {
		if !b.MatchesDim(i, s[i], t[i]) {
			return false
		}
	}
	return true
}

// MatchesDim reports whether dimension i of the pair (s, t) satisfies the band
// condition in that dimension.
func (b Band) MatchesDim(i int, s, t float64) bool {
	return t >= s-b.Low[i] && t <= s+b.High[i]
}

// Width returns the total band extent (Low[i]+High[i]) in dimension i. For a
// symmetric band with width ε this is 2ε.
func (b Band) Width(i int) float64 { return b.Low[i] + b.High[i] }

// MaxWidth returns the largest per-dimension half-width max(Low[i], High[i]).
// It is used when a single conservative radius is needed.
func (b Band) MaxWidth(i int) float64 { return math.Max(b.Low[i], b.High[i]) }

// IsEquiJoin reports whether every band width is zero, i.e. the condition
// degenerates to an equi-join (Figure 1, ε = 0).
func (b Band) IsEquiJoin() bool {
	for i := range b.Low {
		if b.Low[i] != 0 || b.High[i] != 0 {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (b Band) String() string {
	return fmt.Sprintf("band(low=%v, high=%v)", b.Low, b.High)
}
