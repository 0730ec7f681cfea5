package main

import (
	"math"
	"testing"

	"bandjoin"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The expected values are Python's: statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuantilesMatchPython(t *testing.T) {
	ten := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if q1, q2, q3 := quantile(ten, 0.25), median(ten), quantile(ten, 0.75); !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := iqr(ten); !near(got, 5.5) {
		t.Errorf("iqr of 1..10 = %v, want 5.5", got)
	}
	three := []float64{0.66, 0.62, 0.71}
	if q1, q2, q3 := quantile(three, 0.25), median(three), quantile(three, 0.75); !near(q1, 0.62) || !near(q2, 0.66) || !near(q3, 0.71) {
		t.Errorf("quartiles of three = %v %v %v, want 0.62 0.66 0.71", q1, q2, q3)
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one value = %v", got)
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("sum = %v", got)
	}
}

func TestJudge(t *testing.T) {
	cases := []struct {
		base, cur     float64
		better        string
		bound, spread float64
		want          string
	}{
		{1.0, 1.05, "lower", 0.10, 0, verdictUnchanged},
		{1.0, 1.11, "lower", 0.10, 0, verdictRegressed},
		{1.0, 0.85, "lower", 0.10, 0, verdictImproved},
		{100, 95, "higher", 0.10, 0, verdictUnchanged},
		{100, 89, "higher", 0.10, 0, verdictRegressed},
		{100, 120, "higher", 0.10, 0, verdictImproved},
		// Noise wider than the bound: a difference inside the bound proves
		// nothing, one beyond it is still a regression.
		{1.0, 1.05, "lower", 0.10, 0.2, verdictUnresolved},
		{1.0, 0.80, "lower", 0.10, 0.2, verdictUnresolved},
		{1.0, 1.30, "lower", 0.10, 0.2, verdictRegressed},
		{1.053, 1.0531, "lower", 0.01, 0, verdictUnchanged},
		{1.053, 1.07, "lower", 0.01, 0, verdictRegressed},
	}
	for _, c := range cases {
		if got := judge(c.base, c.cur, c.better, c.bound, c.spread); got != c.want {
			t.Errorf("judge(%v, %v, %s, bound %v, spread %v) = %s, want %s", c.base, c.cur, c.better, c.bound, c.spread, got, c.want)
		}
	}
}

// Failures have an absolute bound of zero: any rise in the failed share
// regresses, whatever the base.
func TestJudgeFailures(t *testing.T) {
	if got := judgeFailures(0, 100, 0, 90); got != verdictUnchanged {
		t.Errorf("no failures on either side: %s", got)
	}
	if got := judgeFailures(0, 100, 1, 1000); got != verdictRegressed {
		t.Errorf("one new failure in a thousand: %s", got)
	}
	if got := judgeFailures(2, 100, 1, 100); got != verdictImproved {
		t.Errorf("fewer failures: %s", got)
	}
	if got := judgeFailures(1, 100, 2, 100); got != verdictRegressed {
		t.Errorf("more failures: %s", got)
	}
}

func TestNestedLoopIsTheDefinition(t *testing.T) {
	s := bandjoin.NewRelation("s", 2)
	s.Append(1, 1)
	s.Append(5, 5)
	tr := bandjoin.NewRelation("t", 2)
	tr.Append(1.5, 0.5) // within (1,1) ± (1, 0.5) on the asymmetric band below
	tr.Append(0.4, 1)   // 0.4 < 1 − 0.5: outside in the first attribute
	tr.Append(5, 7)     // 7 = 5 + 2: the upper edge is inside
	tr.Append(5, 7.01)
	band := bandjoin.Asymmetric([]float64{0.5, 0.5}, []float64{1, 2})
	got := nestedLoop(s, tr, band)
	want := []bandjoin.Pair{{S: 0, T: 0}, {S: 1, T: 2}}
	if err := samePairs(got, want); err != nil {
		t.Fatalf("nested loop: %v (got %v)", err, got)
	}
	if err := samePairs([]bandjoin.Pair{{S: 1, T: 2}, {S: 0, T: 0}}, want); err != nil {
		t.Errorf("order must not matter: %v", err)
	}
	if samePairs([]bandjoin.Pair{{S: 0, T: 0}}, want) == nil {
		t.Error("a missing pair went unnoticed")
	}
	if samePairs([]bandjoin.Pair{{S: 0, T: 0}, {S: 0, T: 0}}, want) == nil {
		t.Error("a duplicated pair went unnoticed")
	}
}
