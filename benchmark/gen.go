package main

import (
	"math"
	"math/rand"

	"bandjoin"
	"bandjoin/internal/data"
)

// The generators below are the benchmark's own: the program under test only
// ever receives the finished relations. Every generator is a pure function of
// (n, seed), so one seed always yields the same inputs.

// paretoZ is the Pareto shape of every Pareto workload (the paper's
// pareto-1.5 family).
const paretoZ = 1.5

func paretoValue(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return 1 / math.Pow(u, 1/paretoZ)
}

func paretoRelation(name string, dims, n int, rng *rand.Rand) *bandjoin.Relation {
	r := data.NewRelationCapacity(name, dims, n)
	key := make([]float64, dims)
	for i := 0; i < n; i++ {
		for d := range key {
			key[d] = paretoValue(rng)
		}
		r.AppendKey(key)
	}
	return r
}

// genPareto returns two independent Pareto-1.5 relations over [1, ∞)^dims;
// the dense corners of S and T coincide, so output concentrates there.
func genPareto(dims, n int, seed int64) (s, t *bandjoin.Relation) {
	return paretoRelation("s", dims, n, rand.New(rand.NewSource(seed))),
		paretoRelation("t", dims, n, rand.New(rand.NewSource(seed^0x5bd1e995)))
}

// skewPoint is the point mass of the skewed workload; it lies inside T's dense
// region, so the mass rows carry real probe work and output.
const skewPoint = 1.05

// skewMass is the share of S on the point: 5% of the rows, which produce about
// a third of the output. (At the 50% of BENCH_skew.json, whether RecPart splits
// the mass over a 2-worker cluster flips with the seed — load_ratio 1.19 or
// 1.66, dup_ratio 1.01 or 1.26, op time ±15% — so no metric would be steady.)
const skewMass = 0.05

// skewRows draws n rows of the skewed S distribution: skewMass of them on the
// point mass, the rest Pareto.
func skewRows(name string, dims, n int, rng *rand.Rand) *bandjoin.Relation {
	r := data.NewRelationCapacity(name, dims, n)
	key := make([]float64, dims)
	for i := 0; i < n; i++ {
		onMass := rng.Float64() < skewMass
		for d := range key {
			key[d] = paretoValue(rng)
			if onMass {
				key[d] = skewPoint
			}
		}
		r.AppendKey(key)
	}
	return r
}

// genSkew returns the BENCH_skew.json shape: S with a share of its rows on one
// point, T plain Pareto. Every spatial partitioner must route the mass to a
// single partition.
func genSkew(dims, n int, seed int64) (s, t *bandjoin.Relation) {
	return skewRows("s", dims, n, rand.New(rand.NewSource(seed))),
		paretoRelation("t", dims, n, rand.New(rand.NewSource(seed^0x5bd1e995)))
}

// selfMatchQuantum is the key resolution of the self-match workload (three
// decimals), which is what lets the wire format's decimal detection engage.
const selfMatchQuantum = 1e-3

func quantize(v float64) float64 { return math.Round(v/selfMatchQuantum) * selfMatchQuantum }

// genSelfMatch returns a PTF-style catalog pair: S holds repeat observations
// of clustered objects in dims attributes, T is S jittered by less than
// eps/2 per attribute; both are quantized to three decimals. Each T row
// matches its source row and, the domain being wide, almost nothing else.
func genSelfMatch(dims, n int, eps float64, seed int64) (s, t *bandjoin.Relation) {
	rng := rand.New(rand.NewSource(seed))
	s = data.NewRelationCapacity("s", dims, n)
	t = data.NewRelationCapacity("t", dims, n)
	const obsPerObject = 3
	center := make([]float64, dims)
	sk := make([]float64, dims)
	tk := make([]float64, dims)
	for i := 0; i < n; i++ {
		if i%obsPerObject == 0 {
			for d := range center {
				center[d] = rng.Float64() * 100
			}
		}
		for d := range sk {
			sk[d] = quantize(center[d] + rng.NormFloat64()*0.05)
			tk[d] = quantize(sk[d] + (rng.Float64()-0.5)*eps)
		}
		s.AppendKey(sk)
		t.AppendKey(tk)
	}
	return s, t
}
