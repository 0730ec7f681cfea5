package localjoin

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bandjoin/internal/data"
)

// kernel is one way of running the join: the one-shot Join, or a probe of the
// structure Prepare or PrepareOnce builds (the nested loop where they return
// nil).
type kernel struct {
	name string
	join func(s, t *data.Relation, band data.Band, emit Emit) int64
}

func kernels() []kernel {
	probe := func(prepare func(s, t *data.Relation, band data.Band) *EpsGrid) func(s, t *data.Relation, band data.Band, emit Emit) int64 {
		return func(s, t *data.Relation, band data.Band, emit Emit) int64 {
			p := prepare(s, t, band)
			if p == nil {
				return NestedLoop{}.Join(s, t, band, emit)
			}
			defer Release(p)
			return p.Probe(s, emit)
		}
	}
	return []kernel{{"join", Join}, {"prepare", probe(Prepare)}, {"prepare-once", probe(PrepareOnce)}}
}

func makePair(n, d int, eps float64, seed int64) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(d, 1.5, n, seed)
	return s, t, data.Uniform(d, eps)
}

// latticePair is makePair with dimension 0 on a lattice of integers, so that
// a zero width there still leaves pairs to find.
func latticePair(n, d int, band data.Band, seed int64) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(d, 1.5, n, seed)
	for _, r := range []*data.Relation{s, t} {
		for i := 0; i < r.Len(); i++ {
			r.Key(i)[0] = float64(int(4 * r.Key(i)[0]))
		}
	}
	return s, t, band
}

// bandShapes are the inputs the ε-grid took over from the sorted probe and the
// sorted scan — one dimension, a zero width on dimension 0, an equi-join on
// every dimension — beside the 2-d band the grid always served.
func bandShapes() map[string]func() (*data.Relation, *data.Relation, data.Band) {
	return map[string]func() (*data.Relation, *data.Relation, data.Band){
		"2d": func() (*data.Relation, *data.Relation, data.Band) { return makePair(400, 2, 0.1, 3) },
		"1d": func() (*data.Relation, *data.Relation, data.Band) { return makePair(400, 1, 0.01, 3) },
		"zero-dim0": func() (*data.Relation, *data.Relation, data.Band) {
			return latticePair(400, 3, data.Symmetric(0, 0.3, 0.3), 3)
		},
		"all-zero": func() (*data.Relation, *data.Relation, data.Band) {
			return latticePair(400, 1, data.Symmetric(0), 3)
		},
	}
}

// collect gathers the result pair identifiers of a kernel.
func collect(join func(s, t *data.Relation, band data.Band, emit Emit) int64, s, t *data.Relation, band data.Band) map[[2]int]bool {
	out := make(map[[2]int]bool)
	join(s, t, band, func(si, ti int, _, _ []float64) {
		out[[2]int{si, ti}] = true
	})
	return out
}

func TestAllAlgorithmsAgreeWithNestedLoop(t *testing.T) {
	for shape, mk := range bandShapes() {
		s, tt, band := mk()
		want := collect(NestedLoop{}.Join, s, tt, band)
		if len(want) == 0 {
			t.Fatalf("%s: reference join produced no results; widen the band", shape)
		}
		for _, k := range kernels() {
			if got := collect(k.join, s, tt, band); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s disagrees with nested loop: %d vs %d pairs", shape, k.name, len(got), len(want))
			}
		}
	}
}

func TestCountMatchesEmit(t *testing.T) {
	for _, d := range []int{1, 3} {
		s, tt, band := makePair(300, d, 0.05, 5)
		for _, k := range kernels() {
			var emitted int64
			count := k.join(s, tt, band, func(int, int, []float64, []float64) { emitted++ })
			if count != emitted {
				t.Errorf("d=%d/%s: returned count %d but emitted %d", d, k.name, count, emitted)
			}
			if countOnly := k.join(s, tt, band, nil); countOnly != count {
				t.Errorf("d=%d/%s: count-only mode returned %d, want %d", d, k.name, countOnly, count)
			}
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	empty := data.NewRelation("e", 1)
	some, _ := data.ParetoPair(1, 1.5, 100, 1)
	band := data.Symmetric(1)
	for _, k := range kernels() {
		if k.join(empty, some, band, nil) != 0 || k.join(some, empty, band, nil) != 0 {
			t.Errorf("%s: join with an empty input produced results", k.name)
		}
	}
	if Prepare(empty, some, band) != nil || PrepareOnce(some, empty, band) != nil {
		t.Error("a structure over an empty side")
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
	for _, k := range kernels() {
		if got := k.join(s, tt, band, nil); got != want {
			t.Errorf("%s equi-join count = %d, want %d", k.name, got, want)
		}
	}
}

func TestAsymmetricBand(t *testing.T) {
	// Enough copies that the grid, not the nested loop, joins them.
	const copies = 8
	s := data.NewRelation("s", 1)
	tt := data.NewRelation("t", 1)
	for c := 0; c < copies; c++ {
		s.Append(10)
		for _, v := range []float64{7.9, 8, 9, 10, 11, 11.1} {
			tt.Append(v)
		}
	}
	band := data.Asymmetric([]float64{2}, []float64{1}) // s-2 <= t <= s+1
	for _, k := range kernels() {
		if got := k.join(s, tt, band, nil); got != 4*copies*copies {
			t.Errorf("%s asymmetric count = %d, want %d", k.name, got, 4*copies*copies)
		}
	}
}

// TestAlgorithmsAgreeProperty cross-checks the kernels with the nested loop on
// random inputs with random band widths (testing/quick drives the
// generation).
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
			for _, k := range kernels() {
				if k.join(s, tt, band, nil) != want {
					return false
				}
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
	for _, k := range kernels() {
		k.join(s, tt, band, func(si, ti int, sk, tk []float64) {
			if si < 0 || si >= s.Len() || ti < 0 || ti >= tt.Len() {
				t.Fatalf("%s emitted out-of-range indices (%d, %d)", k.name, si, ti)
			}
			if s.Key(si)[0] != sk[0] || tt.Key(ti)[0] != tk[0] {
				t.Fatalf("%s emitted keys that do not match the indices", k.name)
			}
			if !band.Matches(sk, tk) {
				t.Fatalf("%s emitted a non-matching pair", k.name)
			}
		})
	}
}

// TestPreparedMatchesJoin: probing the structure Prepare builds must produce
// exactly the pairs — in the same order — as the one-shot Join, on every
// probe.
func TestPreparedMatchesJoin(t *testing.T) {
	s, tt := data.ParetoPair(3, 1.4, 400, 7)
	s1, t1 := data.ParetoPair(1, 1.4, 400, 7)
	type input struct {
		s, t *data.Relation
		band data.Band
	}
	inputs := map[string]input{
		"band":      {s, tt, data.Symmetric(0.3, 0.3, 0.3)},
		"asym":      {s, tt, data.Asymmetric([]float64{0.4, 0.1, 0.2}, []float64{0.1, 0.3, 0.5})},
		"equi-dim0": {s, tt, data.Band{Low: []float64{0, 0.3, 0.3}, High: []float64{0, 0.3, 0.3}}},
		"1d":        {s1, t1, data.Symmetric(0.01)},
	}
	for name, in := range inputs {
		type pair struct{ s, t int }
		var plain, probed []pair
		wantCount := Join(in.s, in.t, in.band, func(si, ti int, _, _ []float64) {
			plain = append(plain, pair{si, ti})
		})
		prep := Prepare(in.s, in.t, in.band)
		if prep == nil {
			t.Fatalf("%s: no structure", name)
		}
		for round := 0; round < 2; round++ {
			probed = probed[:0]
			gotCount := prep.Probe(in.s, func(si, ti int, _, _ []float64) {
				probed = append(probed, pair{si, ti})
			})
			if gotCount != wantCount {
				t.Fatalf("%s round %d: prepared count %d, plain %d", name, round, gotCount, wantCount)
			}
			if !reflect.DeepEqual(probed, plain) {
				t.Fatalf("%s round %d: %d pairs, plain %d (or in another order)", name, round, len(probed), len(plain))
			}
		}
	}
}
