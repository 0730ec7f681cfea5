package data

import (
	"math"
	"math/rand"
	"testing"
)

func TestParetoGenProperties(t *testing.T) {
	g := NewPareto(3, 1.5)
	r := g.Generate("p", 5000, rand.New(rand.NewSource(1)))
	if r.Len() != 5000 {
		t.Fatalf("Len = %d", r.Len())
	}
	below2 := 0
	for i := 0; i < r.Len(); i++ {
		k := r.Key(i)
		for d, v := range k {
			if v < 1 {
				t.Fatalf("Pareto value %g below the domain minimum (dim %d)", v, d)
			}
		}
		if k[0] < 2 {
			below2++
		}
	}
	// P(X < 2) = 1 - 2^-1.5 ≈ 0.65 for z = 1.5; allow wide tolerance.
	frac := float64(below2) / float64(r.Len())
	if frac < 0.5 || frac > 0.8 {
		t.Errorf("Pareto(1.5) mass below 2 = %.2f, expected ≈ 0.65", frac)
	}
}

func TestParetoSkewOrdering(t *testing.T) {
	// Larger z concentrates more mass near the domain minimum.
	fracBelow := func(z float64) float64 {
		g := NewPareto(1, z)
		r := g.Generate("p", 4000, rand.New(rand.NewSource(2)))
		n := 0
		for i := 0; i < r.Len(); i++ {
			if r.Key(i)[0] < 1.5 {
				n++
			}
		}
		return float64(n) / float64(r.Len())
	}
	if !(fracBelow(2.0) > fracBelow(1.0) && fracBelow(1.0) > fracBelow(0.5)) {
		t.Error("Pareto mass near the minimum does not increase with z")
	}
}

func TestReverseParetoMirrorsPareto(t *testing.T) {
	g := NewReversePareto(2, 1.5)
	r := g.Generate("rp", 2000, rand.New(rand.NewSource(3)))
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Key(i) {
			if v >= 1e6 {
				t.Fatalf("reverse Pareto value %g not below the pivot", v)
			}
		}
	}
	// Most mass should be just below the pivot.
	near := 0
	for i := 0; i < r.Len(); i++ {
		if r.Key(i)[0] > 1e6-3 {
			near++
		}
	}
	if float64(near)/float64(r.Len()) < 0.5 {
		t.Errorf("only %d/%d reverse-Pareto values near the pivot", near, r.Len())
	}
}

func TestUniformGenBounds(t *testing.T) {
	g := NewUniform([]float64{-1, 10}, []float64{1, 20})
	r := g.Generate("u", 3000, rand.New(rand.NewSource(4)))
	for i := 0; i < r.Len(); i++ {
		k := r.Key(i)
		if k[0] < -1 || k[0] >= 1 || k[1] < 10 || k[1] >= 20 {
			t.Fatalf("uniform value %v outside bounds", k)
		}
	}
	if g.String() == "" || r.Dims() != 2 {
		t.Error("metadata accessors wrong")
	}
}

func TestClusteredSurrogatesAreCorrelatedAndBounded(t *testing.T) {
	eb := EBirdSurrogate(5)
	cl := CloudSurrogate(5)
	be := eb.Generate("ebird", 4000, rand.New(rand.NewSource(6)))
	we := cl.Generate("cloud", 4000, rand.New(rand.NewSource(7)))
	for _, r := range []*Relation{be, we} {
		for i := 0; i < r.Len(); i++ {
			k := r.Key(i)
			if k[0] < 10000 || k[0] > 16000 || k[1] < -90 || k[1] > 90 || k[2] < -180 || k[2] > 180 {
				t.Fatalf("surrogate value %v outside the spatio-temporal domain", k)
			}
		}
	}
	// The clustered data must be much more concentrated than uniform: the
	// densest 1-degree latitude cell should hold several percent of tuples.
	hist := make(map[int]int)
	for i := 0; i < be.Len(); i++ {
		hist[int(math.Floor(be.Key(i)[1]))]++
	}
	max := 0
	for _, c := range hist {
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(be.Len()) < 0.03 {
		t.Errorf("ebird surrogate looks uniform: densest latitude bin holds only %.1f%%", 100*float64(max)/float64(be.Len()))
	}
}

func TestPTFPairIsSelfJoin(t *testing.T) {
	s, tt := PTFPair(1000, 9)
	if s.Len() != 1000 || tt.Len() != 1000 {
		t.Fatalf("sizes %d/%d", s.Len(), tt.Len())
	}
	for i := 0; i < s.Len(); i++ {
		a, b := s.Key(i), tt.Key(i)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatal("PTF pair is not a self-join copy")
		}
	}
	// Repeat observations: a tiny band width already matches more than just
	// the identity pairs.
	band := Symmetric(1.0/3600, 1.0/3600)
	matches := 0
	for i := 0; i < 200; i++ {
		for j := 0; j < s.Len(); j++ {
			if i != j && band.Matches(s.Key(i), tt.Key(j)) {
				matches++
			}
		}
	}
	if matches == 0 {
		t.Error("PTF surrogate has no repeat observations within one arcsecond")
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a1, b1 := ParetoPair(3, 1.5, 500, 42)
	a2, b2 := ParetoPair(3, 1.5, 500, 42)
	for i := 0; i < a1.Len(); i++ {
		for d := 0; d < 3; d++ {
			if a1.Key(i)[d] != a2.Key(i)[d] || b1.Key(i)[d] != b2.Key(i)[d] {
				t.Fatal("ParetoPair is not deterministic for a fixed seed")
			}
		}
	}
}

func TestPairConstructors(t *testing.T) {
	s, tt := ReverseParetoPair(2, 1.0, 300, 1)
	if s.Len() != 300 || tt.Len() != 300 || s.Dims() != 2 {
		t.Error("ReverseParetoPair sizes wrong")
	}
	s, tt = EBirdCloudPair(200, 100, 1)
	if s.Len() != 200 || tt.Len() != 100 || s.Dims() != 3 {
		t.Error("EBirdCloudPair sizes wrong")
	}
}
