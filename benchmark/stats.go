package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by the rule of Python's
// statistics.quantiles (the default "exclusive" method, which the acceptance
// check of this benchmark uses): position q·(n+1) in the sorted sample,
// interpolating linearly between neighbours. It returns NaN for an empty
// slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)+1)
	j := min(max(int(math.Floor(pos)), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// worsening returns by what share of base the value cur is worse than base
// (negative when it is better), for a metric where lower or higher is better.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// Verdicts of comparing one metric between a base run and a current run.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares cur against base under a relative bound. spread is the
// run-to-run noise of the metric as a share of its median (0 when unknown):
// a difference inside the bound is "unchanged" only when the noise is inside
// the bound too, otherwise the comparison cannot tell and is "unresolved".
func judge(base, cur float64, better string, bound, spread float64) string {
	w := worsening(base, cur, better)
	switch {
	case w > bound:
		return verdictRegressed
	case spread > bound:
		return verdictUnresolved
	case w < -bound:
		return verdictImproved
	default:
		return verdictUnchanged
	}
}

// judgeFailures is the absolute rule for failed operations: any increase in
// the failed share is a regression, whatever the base.
func judgeFailures(baseFailed, baseAttempted, curFailed, curAttempted int) string {
	b := float64(baseFailed) / float64(max(baseAttempted, 1))
	c := float64(curFailed) / float64(max(curAttempted, 1))
	switch {
	case c > b:
		return verdictRegressed
	case c < b:
		return verdictImproved
	default:
		return verdictUnchanged
	}
}
