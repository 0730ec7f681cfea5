package data

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator produces synthetic relations with a known distribution of the join
// attributes. All generators are deterministic given the seed so that
// experiments and tests are reproducible.
type Generator interface {
	// Generate returns a relation with n tuples and the generator's
	// dimensionality, drawn using the given pseudo-random source.
	Generate(name string, n int, rng *rand.Rand) *Relation
	// String describes the generator (used in experiment reports).
	String() string
}

// ---------------------------------------------------------------------------
// Pareto

// ParetoGen draws every join attribute independently from a Pareto
// distribution with shape Z over domain [Scale, ∞): PDF z·scale^z / x^(z+1).
// Larger Z means more skew toward the lower end of the domain. This is the
// paper's pareto-z dataset family; the paper uses Scale = 1.
type ParetoGen struct {
	D     int
	Z     float64
	Scale float64
}

// NewPareto returns a Pareto generator over [1, ∞) with d dimensions and
// shape z.
func NewPareto(d int, z float64) ParetoGen { return ParetoGen{D: d, Z: z, Scale: 1} }

// String implements Generator.
func (g ParetoGen) String() string { return fmt.Sprintf("pareto-%g (d=%d)", g.Z, g.D) }

// Sample draws one Pareto value.
func (g ParetoGen) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return g.Scale / math.Pow(u, 1/g.Z)
}

// Generate implements Generator.
func (g ParetoGen) Generate(name string, n int, rng *rand.Rand) *Relation {
	r := NewRelationCapacity(name, g.D, n)
	key := make([]float64, g.D)
	for i := 0; i < n; i++ {
		for d := 0; d < g.D; d++ {
			key[d] = g.Sample(rng)
		}
		r.AppendKey(key)
	}
	return r
}

// ---------------------------------------------------------------------------
// Reverse Pareto

// ReverseParetoGen mirrors a Pareto distribution around Pivot: values are
// Pivot − x with x ~ Pareto(Z) over [1, ∞), so the distribution is skewed
// toward large values just below Pivot and has a long tail toward −∞. The
// paper's rv-pareto-z datasets pair a regular Pareto S with a reverse Pareto T
// (Pivot = 10^6) so that high-frequency regions of the two inputs do not
// coincide.
type ReverseParetoGen struct {
	D     int
	Z     float64
	Pivot float64
}

// NewReversePareto returns a reverse-Pareto generator with pivot 10^6, as in
// the paper.
func NewReversePareto(d int, z float64) ReverseParetoGen {
	return ReverseParetoGen{D: d, Z: z, Pivot: 1e6}
}

// String implements Generator.
func (g ReverseParetoGen) String() string { return fmt.Sprintf("rv-pareto-%g (d=%d)", g.Z, g.D) }

// Generate implements Generator.
func (g ReverseParetoGen) Generate(name string, n int, rng *rand.Rand) *Relation {
	p := ParetoGen{D: g.D, Z: g.Z, Scale: 1}
	r := NewRelationCapacity(name, g.D, n)
	key := make([]float64, g.D)
	for i := 0; i < n; i++ {
		for d := 0; d < g.D; d++ {
			key[d] = g.Pivot - p.Sample(rng)
		}
		r.AppendKey(key)
	}
	return r
}

// ---------------------------------------------------------------------------
// Uniform

// UniformGen draws every join attribute independently and uniformly from
// [Lo[i], Hi[i]).
type UniformGen struct {
	Lo []float64
	Hi []float64
}

// NewUniform returns a uniform generator over the box [lo, hi).
func NewUniform(lo, hi []float64) UniformGen {
	if len(lo) != len(hi) {
		panic("data: uniform generator bounds must have equal length")
	}
	return UniformGen{Lo: lo, Hi: hi}
}

// String implements Generator.
func (g UniformGen) String() string { return fmt.Sprintf("uniform (d=%d)", len(g.Lo)) }

// Generate implements Generator.
func (g UniformGen) Generate(name string, n int, rng *rand.Rand) *Relation {
	r := NewRelationCapacity(name, len(g.Lo), n)
	key := make([]float64, len(g.Lo))
	for i := 0; i < n; i++ {
		for d := range g.Lo {
			key[d] = g.Lo[d] + rng.Float64()*(g.Hi[d]-g.Lo[d])
		}
		r.AppendKey(key)
	}
	return r
}

// ---------------------------------------------------------------------------
// Clustered spatio-temporal data (ebird / cloud surrogate)

// Hotspot is one cluster of a clustered spatio-temporal generator.
type Hotspot struct {
	Center []float64
	Spread []float64
	Weight float64
}

// ClusteredGen draws tuples from a mixture of Gaussian hotspots plus a uniform
// background component over the bounding box [Lo, Hi]. It is the surrogate for
// the paper's real ebird (bird sightings) and cloud (weather reports)
// datasets: both are spatio-temporal with heavy clustering (popular birding
// locations, weather-station locations), and their hotspots are correlated
// with each other. Generated values are clamped to the bounding box so that
// domain-dependent algorithms (Grid-ε) see a finite domain, as for the real
// attributes latitude, longitude, and time.
type ClusteredGen struct {
	Lo, Hi     []float64
	Hotspots   []Hotspot
	Background float64 // fraction of tuples drawn uniformly from the box
	name       string
}

// String implements Generator.
func (g ClusteredGen) String() string {
	return fmt.Sprintf("%s (clustered, d=%d, %d hotspots)", g.name, len(g.Lo), len(g.Hotspots))
}

// Generate implements Generator.
func (g ClusteredGen) Generate(name string, n int, rng *rand.Rand) *Relation {
	r := NewRelationCapacity(name, len(g.Lo), n)
	total := 0.0
	for _, h := range g.Hotspots {
		total += h.Weight
	}
	key := make([]float64, len(g.Lo))
	for i := 0; i < n; i++ {
		if rng.Float64() < g.Background || total == 0 {
			for d := range key {
				key[d] = g.Lo[d] + rng.Float64()*(g.Hi[d]-g.Lo[d])
			}
		} else {
			// Pick a hotspot proportionally to weight.
			x := rng.Float64() * total
			hi := 0
			for hi < len(g.Hotspots)-1 && x > g.Hotspots[hi].Weight {
				x -= g.Hotspots[hi].Weight
				hi++
			}
			h := g.Hotspots[hi]
			for d := range key {
				v := h.Center[d] + rng.NormFloat64()*h.Spread[d]
				if v < g.Lo[d] {
					v = g.Lo[d]
				}
				if v > g.Hi[d] {
					v = g.Hi[d]
				}
				key[d] = v
			}
		}
		r.AppendKey(key)
	}
	return r
}

// EBirdSurrogate returns a generator mimicking the paper's ebird dataset:
// 3 join attributes (time in days since 1970, latitude, longitude) with
// strong clustering around popular observation sites and seasons.
func EBirdSurrogate(seed int64) ClusteredGen {
	rng := rand.New(rand.NewSource(seed))
	lo := []float64{10000, -90, -180}
	hi := []float64{16000, 90, 180}
	hotspots := make([]Hotspot, 0, 24)
	for i := 0; i < 24; i++ {
		hotspots = append(hotspots, Hotspot{
			Center: []float64{
				10000 + rng.Float64()*6000,
				-60 + rng.Float64()*120,
				-160 + rng.Float64()*320,
			},
			Spread: []float64{20 + rng.Float64()*80, 0.5 + rng.Float64()*2, 0.5 + rng.Float64()*2},
			Weight: 0.5 + rng.Float64()*2,
		})
	}
	return ClusteredGen{Lo: lo, Hi: hi, Hotspots: hotspots, Background: 0.10, name: "ebird"}
}

// CloudSurrogate returns a generator mimicking the paper's cloud (synoptic
// weather report) dataset. Its hotspots are derived from the ebird surrogate's
// hotspots (weather stations cover the same populated areas) but with wider
// spreads and a larger uniform background, so the two relations are correlated
// but not identical — the property the paper's real-data experiments rely on.
func CloudSurrogate(seed int64) ClusteredGen {
	b := EBirdSurrogate(seed)
	rng := rand.New(rand.NewSource(seed + 1))
	hotspots := make([]Hotspot, 0, len(b.Hotspots))
	for _, h := range b.Hotspots {
		c := make([]float64, len(h.Center))
		s := make([]float64, len(h.Spread))
		for d := range c {
			c[d] = h.Center[d] + rng.NormFloat64()*h.Spread[d]*0.5
			s[d] = h.Spread[d] * (1.5 + rng.Float64())
		}
		hotspots = append(hotspots, Hotspot{Center: c, Spread: s, Weight: h.Weight})
	}
	return ClusteredGen{Lo: b.Lo, Hi: b.Hi, Hotspots: hotspots, Background: 0.30, name: "cloud"}
}

// ---------------------------------------------------------------------------
// PTF sky-survey surrogate

// PTFGen mimics the Palomar Transient Factory object catalog used in
// Appendix A.5: celestial objects at fixed (right ascension, declination)
// positions, each observed several times with sub-arcsecond jitter. A
// band-self-join with an arcsecond-scale band width groups repeat
// observations of the same object.
type PTFGen struct {
	// ObsPerObject is the mean number of repeat observations per object.
	ObsPerObject float64
	// JitterDeg is the positional jitter (standard deviation, degrees) between
	// repeat observations of the same object. One arcsecond is 1/3600 degree.
	JitterDeg float64
}

// NewPTF returns a PTF surrogate with 3 observations per object on average and
// 0.3 arcsecond jitter.
func NewPTF() PTFGen { return PTFGen{ObsPerObject: 3, JitterDeg: 0.3 / 3600} }

// String implements Generator.
func (g PTFGen) String() string { return "ptf_objects (d=2)" }

// Generate implements Generator.
func (g PTFGen) Generate(name string, n int, rng *rand.Rand) *Relation {
	r := NewRelationCapacity(name, 2, n)
	// Objects cluster along survey fields: draw field centers, then objects
	// inside fields, then repeat observations of each object.
	nFields := 64
	fields := make([][2]float64, nFields)
	for i := range fields {
		fields[i] = [2]float64{rng.Float64() * 360, -30 + rng.Float64()*90}
	}
	key := make([]float64, 2)
	for r.Len() < n {
		f := fields[rng.Intn(nFields)]
		objRA := f[0] + rng.NormFloat64()*1.5
		objDec := f[1] + rng.NormFloat64()*1.5
		obs := 1 + rng.Intn(int(2*g.ObsPerObject))
		for o := 0; o < obs && r.Len() < n; o++ {
			key[0] = objRA + rng.NormFloat64()*g.JitterDeg
			key[1] = objDec + rng.NormFloat64()*g.JitterDeg
			r.AppendKey(key)
		}
	}
	return r
}

// ---------------------------------------------------------------------------
// Convenience pair constructors used throughout the experiments.

// ParetoPair generates the paper's pareto-z pair of relations: S and T both
// Pareto(z) with n tuples each, so high-frequency values coincide.
func ParetoPair(d int, z float64, n int, seed int64) (*Relation, *Relation) {
	g := NewPareto(d, z)
	s := g.Generate("S", n, rand.New(rand.NewSource(seed)))
	t := g.Generate("T", n, rand.New(rand.NewSource(seed+1)))
	return s, t
}

// ReverseParetoPair generates the paper's rv-pareto-z pair: S is Pareto(z)
// over [1, ∞) and T is reverse Pareto descending from 10^6, so dense regions
// of S and T are far apart.
func ReverseParetoPair(d int, z float64, n int, seed int64) (*Relation, *Relation) {
	s := NewPareto(d, z).Generate("S", n, rand.New(rand.NewSource(seed)))
	t := NewReversePareto(d, z).Generate("T", n, rand.New(rand.NewSource(seed+1)))
	return s, t
}

// EBirdCloudPair generates the ebird/cloud surrogate pair with nS bird
// sightings and nT weather reports.
func EBirdCloudPair(nS, nT int, seed int64) (*Relation, *Relation) {
	s := EBirdSurrogate(seed).Generate("ebird", nS, rand.New(rand.NewSource(seed+10)))
	t := CloudSurrogate(seed).Generate("cloud", nT, rand.New(rand.NewSource(seed+11)))
	return s, t
}

// PTFPair generates the PTF surrogate self-join pair: the paper joins the
// observation catalog with itself to find repeat observations of the same
// celestial object, so both sides are the same catalog.
func PTFPair(n int, seed int64) (*Relation, *Relation) {
	g := NewPTF()
	s := g.Generate("ptf_objects", n, rand.New(rand.NewSource(seed)))
	t := s.Clone("ptf_objects'")
	return s, t
}
