package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// hashPlan folds everything the grower decides — the whole action log, the
// winning iteration, and the leaf regions of the replayed plan — into one
// FNV-1a hash over the integer values and float64 bit patterns.
func hashPlan(t *testing.T, env growEnv, chosen int) uint64 {
	t.Helper()
	h := fnv.New64a()
	put := func(bits uint64) { put64(h, bits) }
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	put(uint64(len(env.actions)))
	for _, a := range env.actions {
		put(uint64(a.nodeID))
		put(uint64(a.dim))
		put(math.Float64bits(a.val))
		put(uint64(a.kind))
		put(flag(a.smallAction)<<1 | flag(a.addRow))
	}
	put(uint64(chosen))
	root, err := env.replay(chosen)
	if err != nil {
		t.Fatal(err)
	}
	plan := finalizePlan(root, env.band, env.opts.Seed)
	put(uint64(plan.NumPartitions()))
	for _, r := range plan.Regions() {
		for d := range r.Lo {
			put(math.Float64bits(r.Lo[d]))
			put(math.Float64bits(r.Hi[d]))
		}
	}
	return h.Sum64()
}

// goldenPointMass2D puts half of S on one point inside T's dense corner: the
// sweep sees long runs of equal values, and the output sample is a subsample.
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
// every dimension's sorted order is full of ties that only the stable argsort
// (ties by sample index) resolves.
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

// TestPlanGolden pins the grower's decisions on three fixed inputs, for
// RecPart and RecPart-S, a symmetric and an asymmetric band each. The hashes
// were captured on the commit before the grower moved from the row-major
// sample and a per-plan radix sort to the sample's cached sorted columns, when
// the serial reference grower (since removed) produced them too.
//
// The grower also plans from a copy of each sample assembled by hand — no
// InputSample behind it, so no cached columns to share — and must land on the
// same hash: there is one path from a sample to its columns.
func TestPlanGolden(t *testing.T) {
	pareto8S, pareto8T := data.ParetoPair(8, 1.5, 20000, 11)
	pointS, pointT := goldenPointMass2D()
	quantS, quantT := goldenQuantized3D()
	inputs := []struct {
		name    string
		s, t    *data.Relation
		opts    sample.Options
		workers int
		bands   [2]data.Band // symmetric, asymmetric
		hashes  [2][2]uint64 // [band][RecPart-S, RecPart]
	}{
		{"point-mass-2d", pointS, pointT, sample.Options{InputSampleSize: 6000, OutputSampleSize: 500, Seed: 7}, 8,
			[2]data.Band{data.Uniform(2, 0.05), data.Asymmetric([]float64{0, 0.08}, []float64{0.1, 0.01})},
			[2][2]uint64{{0x25303160eed8a8d, 0x69b6fefa67b59000}, {0xee7ac2d77936b006, 0x2b01aa4e723c509e}}},
		{"quantized-3d-ties", quantS, quantT, sample.Options{InputSampleSize: 6000, OutputSampleSize: 2000, Seed: 7}, 12,
			[2]data.Band{data.Uniform(3, 0.02), data.Asymmetric([]float64{0.004, 0.03, 0.05}, []float64{0.006, 0.05, 0.03})},
			[2][2]uint64{{0xa93f69c3e067b58c, 0xb4d88821d756aa85}, {0xc6dc94bd1290bc20, 0xd018e7694e72366d}}},
		{"pareto-8d", pareto8S, pareto8T, sample.Options{InputSampleSize: 4000, OutputSampleSize: 1500, Seed: 7}, 8,
			[2]data.Band{data.Uniform(8, 0.25), data.Asymmetric(
				[]float64{0.1, 0.3, 0.2, 0.4, 0.25, 0.15, 0.3, 0.2}, []float64{0.3, 0.1, 0.25, 0.2, 0.4, 0.3, 0.15, 0.35})},
			[2][2]uint64{{0xa5187951368394f9, 0x884ab60a5b936676}, {0x87a4967d0808579d, 0xec614562e4023e3b}}},
	}
	for _, in := range inputs {
		drawn, err := sample.DrawInputs(in.s, in.t, in.opts)
		if err != nil {
			t.Fatal(err)
		}
		for bi, band := range in.bands {
			smp, err := drawn.ForBand(band)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &partition.Context{Band: band, Workers: in.workers, Sample: smp, Model: costmodel.Default(), Seed: 1}
			handCtx := *ctx
			handCtx.Sample = &sample.Sample{Band: smp.Band, S: smp.S, T: smp.T, SRate: smp.SRate, TRate: smp.TRate,
				TotalS: smp.TotalS, TotalT: smp.TotalT, OutS: smp.OutS, OutT: smp.OutT, OutWeight: smp.OutWeight}
			for si, symmetric := range []bool{false, true} {
				want := in.hashes[bi][si]
				opts := DefaultOptions()
				opts.Symmetric = symmetric
				ctx := ctx
				check := func(how string, o Options) {
					env, chosen := growTree(ctx, o)
					if got := hashPlan(t, env, chosen); got != want {
						t.Errorf("%s band %d symmetric=%v %s: %d actions, chosen %d, hash %#x; want %#x",
							in.name, bi, symmetric, how, len(env.actions), chosen, got, want)
					}
				}
				for _, par := range []int{1, 2, 8} {
					setGOMAXPROCS(t, par)
					check(fmt.Sprintf("par=%d", par), opts)
				}
				ctx = &handCtx
				check("hand-built sample", opts)
			}
		}
	}
}
