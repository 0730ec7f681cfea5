package sample

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"bandjoin/internal/data"
)

// hashSample folds everything ForBand derives — the paired output rows in
// order, and their weight — into one FNV-1a hash over the float64 bit
// patterns.
func hashSample(s *Sample) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range []*data.Relation{s.OutS, s.OutT} {
		for i := 0; i < r.Len(); i++ {
			for _, v := range r.Key(i) {
				put(v)
			}
		}
	}
	put(s.OutWeight)
	return h.Sum64()
}

// goldenPointMass2D puts half of S on one point inside T's dense corner, so
// the sample join yields far more pairs than OutputSampleSize and the
// subsample depends on the exact pair order.
func goldenPointMass2D() (s, t *data.Relation) {
	ps, t := data.ParetoPair(2, 1.5, 6000, 21)
	s = data.NewRelationCapacity("s", 2, ps.Len())
	for i := 0; i < ps.Len(); i++ {
		if i%2 == 0 {
			s.Append(1.05, 1.05)
		} else {
			s.AppendKey(ps.Key(i))
		}
	}
	return s, t
}

// goldenQuantized3D draws keys on a 3-decimal lattice over a narrow domain, so
// many T tuples tie on dimension 0 inside one S tuple's band: the order among
// those ties is whatever the dimension-0 sort leaves, and the samples must keep
// it.
func goldenQuantized3D() (s, t *data.Relation) {
	gen := func(name string, seed int64) *data.Relation {
		rng := rand.New(rand.NewSource(seed))
		r := data.NewRelationCapacity(name, 3, 5000)
		for i := 0; i < 5000; i++ {
			r.Append(math.Round(rng.Float64()*200)/1000, math.Round(rng.Float64()*1000)/1000, math.Round(rng.Float64()*1000)/1000)
		}
		return r
	}
	return gen("s", 31), gen("t", 32)
}

// TestForBandGolden pins ForBand's output on three fixed inputs. The hashes
// were captured on the commit before the sample join moved from the
// one-dimensional sorted probe to the k-dimensional ε-grid: the optimizer's
// samples — and with them every plan — must not depend on which local join
// kernel enumerates the pairs.
func TestForBandGolden(t *testing.T) {
	pareto8S, pareto8T := data.ParetoPair(8, 1.5, 40000, 11)
	pointS, pointT := goldenPointMass2D()
	quantS, quantT := goldenQuantized3D()
	cases := []struct {
		name  string
		s, t  *data.Relation
		band  data.Band
		opts  Options
		pairs int
		hash  uint64
	}{
		{"pareto-8d", pareto8S, pareto8T, data.Uniform(8, 0.25),
			Options{InputSampleSize: 16000, OutputSampleSize: 4000, Seed: 7}, 497, 0xc0054116f3214f74},
		{"point-mass-2d", pointS, pointT, data.Uniform(2, 0.05),
			Options{InputSampleSize: 6000, OutputSampleSize: 500, Seed: 7}, 500, 0xb735b36eab2c7ba3},
		{"quantized-3d-ties", quantS, quantT, data.Asymmetric([]float64{0.004, 0.03, 0.05}, []float64{0.006, 0.05, 0.03}),
			Options{InputSampleSize: 8000, OutputSampleSize: 4000, Seed: 7}, 4000, 0x2b44223a034fa62e},
	}
	for _, c := range cases {
		smp, err := Draw(c.s, c.t, c.band, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := hashSample(smp); smp.OutS.Len() != c.pairs || got != c.hash {
			t.Errorf("%s: %d output pairs (weight %g), hash %#x; want %d pairs, hash %#x",
				c.name, smp.OutS.Len(), smp.OutWeight, got, c.pairs, c.hash)
		}
	}
}
