package main

import (
	"fmt"
	"sort"

	"bandjoin"
)

// nestedLoop is the ground truth, written straight from the band-join
// definition: every pair with s.Ai − low_i ≤ t.Ai ≤ s.Ai + high_i in every
// attribute, in (S index, T index) order. It shares no code with the program.
func nestedLoop(s, t *bandjoin.Relation, band bandjoin.Band) []bandjoin.Pair {
	var out []bandjoin.Pair
	dims := s.Dims()
	for i := 0; i < s.Len(); i++ {
		sk := s.Key(i)
	next:
		for j := 0; j < t.Len(); j++ {
			tk := t.Key(j)
			for d := 0; d < dims; d++ {
				if !(sk[d]-band.Low[d] <= tk[d] && tk[d] <= sk[d]+band.High[d]) {
					continue next
				}
			}
			out = append(out, bandjoin.Pair{S: int64(i), T: int64(j)})
		}
	}
	return out
}

// samePairs reports whether got is exactly the pair set want (each pair once).
// want is in nestedLoop order; got is sorted in place.
func samePairs(got, want []bandjoin.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d pairs, the definition gives %d", len(got), len(want))
	}
	sort.Slice(got, func(a, b int) bool {
		if got[a].S != got[b].S {
			return got[a].S < got[b].S
		}
		return got[a].T < got[b].T
	})
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("pair %d is (%d,%d), the definition gives (%d,%d)",
				i, got[i].S, got[i].T, want[i].S, want[i].T)
		}
	}
	return nil
}
