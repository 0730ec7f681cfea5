package localjoin

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"bandjoin/internal/data"
)

func algorithms() []Algorithm {
	return []Algorithm{NestedLoop{}, SortProbe{}, GridSortScan{}, EpsGrid{}, Auto{}}
}

func makePair(n, d int, eps float64, seed int64) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(d, 1.5, n, seed)
	return s, t, data.Uniform(d, eps)
}

// collect gathers the result pair identifiers of an algorithm.
func collect(alg Algorithm, s, t *data.Relation, band data.Band) map[[2]int]bool {
	out := make(map[[2]int]bool)
	alg.Join(s, t, band, func(si, ti int, _, _ []float64) {
		out[[2]int{si, ti}] = true
	})
	return out
}

func TestAllAlgorithmsAgreeWithNestedLoop(t *testing.T) {
	s, tt, band := makePair(400, 2, 0.1, 3)
	want := collect(NestedLoop{}, s, tt, band)
	if len(want) == 0 {
		t.Fatal("reference join produced no results; widen the band")
	}
	for _, alg := range algorithms()[1:] {
		got := collect(alg, s, tt, band)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s disagrees with nested loop: %d vs %d pairs", alg.Name(), len(got), len(want))
		}
	}
}

func TestCountMatchesEmit(t *testing.T) {
	s, tt, band := makePair(300, 3, 0.05, 5)
	for _, alg := range algorithms() {
		var emitted int64
		count := alg.Join(s, tt, band, func(int, int, []float64, []float64) { emitted++ })
		if count != emitted {
			t.Errorf("%s: returned count %d but emitted %d", alg.Name(), count, emitted)
		}
		countOnly := alg.Join(s, tt, band, nil)
		if countOnly != count {
			t.Errorf("%s: count-only mode returned %d, want %d", alg.Name(), countOnly, count)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	empty := data.NewRelation("e", 1)
	one := data.NewRelation("o", 1)
	one.Append(1)
	band := data.Symmetric(1)
	for _, alg := range algorithms() {
		if alg.Join(empty, one, band, nil) != 0 || alg.Join(one, empty, band, nil) != 0 {
			t.Errorf("%s: join with an empty input produced results", alg.Name())
		}
	}
}

func TestEquiJoin(t *testing.T) {
	s := data.NewRelation("s", 1)
	tt := data.NewRelation("t", 1)
	for i := 0; i < 50; i++ {
		s.Append(float64(i % 10))
		tt.Append(float64(i % 5))
	}
	band := data.Symmetric(0)
	want := NestedLoop{}.Join(s, tt, band, nil)
	if want == 0 {
		t.Fatal("equi-join reference produced no results")
	}
	for _, alg := range algorithms()[1:] {
		if got := alg.Join(s, tt, band, nil); got != want {
			t.Errorf("%s equi-join count = %d, want %d", alg.Name(), got, want)
		}
	}
}

func TestAsymmetricBand(t *testing.T) {
	s := data.NewRelation("s", 1)
	tt := data.NewRelation("t", 1)
	s.Append(10)
	for _, v := range []float64{7.9, 8, 9, 10, 11, 11.1} {
		tt.Append(v)
	}
	band := data.Asymmetric([]float64{2}, []float64{1}) // s-2 <= t <= s+1
	for _, alg := range algorithms() {
		if got := alg.Join(s, tt, band, nil); got != 4 {
			t.Errorf("%s asymmetric count = %d, want 4", alg.Name(), got)
		}
	}
}

// TestAlgorithmsAgreeProperty cross-checks the algorithms on random inputs
// with random band widths (testing/quick drives the generation).
func TestAlgorithmsAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64, epsRaw float64) bool {
		eps := 0.001 + (epsRaw-float64(int(epsRaw)))*0.2
		if eps < 0 {
			eps = -eps
		}
		for _, d := range []int{1, 2} {
			s, tt, band := makePair(120, d, eps, seed)
			want := NestedLoop{}.Join(s, tt, band, nil)
			ok := (SortProbe{}).Join(s, tt, band, nil) == want &&
				(GridSortScan{}).Join(s, tt, band, nil) == want &&
				(EpsGrid{}).Join(s, tt, band, nil) == want &&
				(Auto{}).Join(s, tt, band, nil) == want
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestEmitIndicesValid(t *testing.T) {
	s, tt, band := makePair(200, 1, 0.01, 13)
	for _, alg := range algorithms() {
		alg.Join(s, tt, band, func(si, ti int, sk, tk []float64) {
			if si < 0 || si >= s.Len() || ti < 0 || ti >= tt.Len() {
				t.Fatalf("%s emitted out-of-range indices (%d, %d)", alg.Name(), si, ti)
			}
			if s.Key(si)[0] != sk[0] || tt.Key(ti)[0] != tk[0] {
				t.Fatalf("%s emitted keys that do not match the indices", alg.Name())
			}
			if !band.Matches(sk, tk) {
				t.Fatalf("%s emitted a non-matching pair", alg.Name())
			}
		})
	}
}

func TestByName(t *testing.T) {
	names := []string{"auto", "nested-loop", "sort-probe", "grid-sort-scan", "eps-grid"}
	sort.Strings(names)
	for _, n := range names {
		alg, ok := ByName(n)
		if !ok || alg.Name() != n {
			t.Errorf("ByName(%q) = %v, %v", n, alg, ok)
		}
	}
	if _, ok := ByName("does-not-exist"); ok {
		t.Error("ByName accepted an unknown algorithm")
	}
	if Default() == nil {
		t.Error("Default returned nil")
	}
}

// TestPreparedMatchesJoin: for every algorithm with a prepared form, probing
// the prepared T-side structure must produce exactly the pairs — in the same
// order — as the plain per-query Join.
func TestPreparedMatchesJoin(t *testing.T) {
	s, tt := data.ParetoPair(3, 1.4, 400, 7)
	bands := map[string]data.Band{
		"band":      data.Symmetric(0.3, 0.3, 0.3),
		"asym":      data.Asymmetric([]float64{0.4, 0.1, 0.2}, []float64{0.1, 0.3, 0.5}),
		"equi-dim0": {Low: []float64{0, 0.3, 0.3}, High: []float64{0, 0.3, 0.3}},
	}
	algs := []Algorithm{Auto{}, SortProbe{}, GridSortScan{}, EpsGrid{}}
	for bandName, band := range bands {
		for _, alg := range algs {
			type pair struct{ s, t int }
			var plain, probed []pair
			wantCount := alg.Join(s, tt, band, func(si, ti int, _, _ []float64) {
				plain = append(plain, pair{si, ti})
			})
			prep := Prepare(alg, s, tt, band)
			if prep == nil {
				t.Fatalf("%s/%s: no prepared form", alg.Name(), bandName)
			}
			for round := 0; round < 2; round++ {
				probed = probed[:0]
				gotCount := prep.Probe(s, func(si, ti int, _, _ []float64) {
					probed = append(probed, pair{si, ti})
				})
				if gotCount != wantCount {
					t.Fatalf("%s/%s round %d: prepared count %d, plain %d", alg.Name(), bandName, round, gotCount, wantCount)
				}
				if len(probed) != len(plain) {
					t.Fatalf("%s/%s round %d: %d pairs, plain %d", alg.Name(), bandName, round, len(probed), len(plain))
				}
				for i := range plain {
					if plain[i] != probed[i] {
						t.Fatalf("%s/%s round %d: pair %d = %v, plain %v", alg.Name(), bandName, round, i, probed[i], plain[i])
					}
				}
			}
		}
	}
	// Algorithms without a prepared form decline instead of guessing.
	if Prepare(NestedLoop{}, s, tt, bands["band"]) != nil {
		t.Error("NestedLoop unexpectedly has a prepared form")
	}
}
