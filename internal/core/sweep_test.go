package core

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// fullSweep is the sweep without bounds: every candidate scored, in order, by
// the loop sweepDim runs over the blocks it keeps. It is the reference the
// bounded sweep must match bit for bit.
func fullSweep(e *growEnv, dim int, es *evalScratch, lpSq float64) candidate {
	sv, tv, ovS, ovT := es.sv, es.tv, es.ovS, es.ovT
	low, high := e.band.Low[dim], e.band.High[dim]
	b2s, b2t, b3o := e.b2s, e.b2t, e.b3o
	bestRatio, bestVarRed, bestDup := math.Inf(-1), math.Inf(-1), 0.0
	bestX, bestKind := 0.0, splitT
	found := false
	consider := func(varRed, dup, x float64, kind splitKind) {
		den := max(dup, 0) + e.smoothing
		lhs := bestRatio * den
		if varRed < lhs || (varRed == lhs && varRed <= bestVarRed) {
			return
		}
		bestRatio, bestVarRed, bestDup = varRed/den, varRed, max(dup, 0)
		bestX, bestKind, found = x, kind, true
	}
	base := b2s*float64(len(sv)) + b2t*float64(len(tv)) + b3o*float64(len(ovS))
	var pTHigh, pTLow, pOS, pSLow, pSHigh, pOT int
	for ci, x := range es.cands {
		pTHigh = advance(tv, pTHigh, x+high)
		pTLow = advance(tv, pTLow, x-low)
		pOS = advance(ovS, pOS, x)
		dupT := float64(pTHigh - pTLow)
		lL := b2s*float64(es.cS[ci]) + b2t*float64(pTHigh) + b3o*float64(pOS)
		lR := base - lL + b2t*dupT
		if varRed := e.varFactor * (lpSq - lL*lL - lR*lR); varRed > 0 {
			consider(varRed, dupT*e.invT, x, splitT)
		}
		if !e.opts.Symmetric {
			continue
		}
		pSLow = advance(sv, pSLow, x+low)
		pSHigh = advance(sv, pSHigh, x-high)
		pOT = advance(ovT, pOT, x)
		dupS := float64(pSLow - pSHigh)
		lL = b2s*float64(pSLow) + b2t*float64(es.cT[ci]) + b3o*float64(pOT)
		lR = base - lL + b2s*dupS
		if varRed := e.varFactor * (lpSq - lL*lL - lR*lR); varRed > 0 {
			consider(varRed, dupS*e.invS, x, splitS)
		}
	}
	if !found {
		return candidate{sc: invalidScore()}
	}
	return candidate{sc: score{valid: true, dup: bestDup, varRed: bestVarRed, ratio: bestRatio}, dim: dim, val: bestX, kind: bestKind}
}

// sameCandidate compares two candidates bit for bit.
func sameCandidate(a, b candidate) bool {
	bits := math.Float64bits
	return a.sc.valid == b.sc.valid && bits(a.sc.dup) == bits(b.sc.dup) && bits(a.sc.varRed) == bits(b.sc.varRed) &&
		bits(a.sc.ratio) == bits(b.sc.ratio) && a.dim == b.dim && bits(a.val) == bits(b.val) && a.kind == b.kind &&
		a.smallAction == b.smallAction && a.addRow == b.addRow
}

// sweepLeaf is one leaf's dimension as the sweep sees it: sorted values (NaN
// last), the leaf's region bounds in the dimension, and the sweep's constants.
type sweepLeaf struct {
	env          growEnv
	sv, tv       []float64
	ovS, ovT     []float64
	lo, hi, lpSq float64
}

// checkSweep runs the bounded and the full sweep over one leaf and fails the
// test unless they return the same candidate. It returns the candidates
// generated and scored.
func checkSweep(t *testing.T, name string, l sweepLeaf) (cands, scored int) {
	t.Helper()
	es := &evalScratch{sv: l.sv, tv: l.tv, ovS: l.ovS, ovT: l.ovT}
	es.cands, es.cS, es.cT = candsFromSorted(l.sv, l.tv, l.lo, l.hi, nil, nil, nil)
	if len(es.cands) == 0 {
		return 0, 0
	}
	// Each candidate carries the counts of S and T values below it.
	var pS, pT int
	for ci, x := range es.cands {
		pS, pT = advance(l.sv, pS, x), advance(l.tv, pT, x)
		if int(es.cS[ci]) != pS || int(es.cT[ci]) != pT {
			t.Fatalf("%s: candidate %v has counts %d, %d below it, want %d, %d", name, x, es.cS[ci], es.cT[ci], pS, pT)
		}
	}
	want := fullSweep(&l.env, 0, es, l.lpSq)
	got, scored := l.env.sweepDim(0, es, l.lpSq)
	if !sameCandidate(got, want) {
		t.Fatalf("%s: %d candidates, %d scored: bounded sweep %+v, full scan %+v", name, len(es.cands), scored, got, want)
	}
	if scored > len(es.cands) {
		t.Fatalf("%s: %d of %d candidates scored", name, scored, len(es.cands))
	}
	return len(es.cands), scored
}

// sweepEnv is the sweep's arithmetic for a leaf of 8 workers with the given
// band, split kinds, sampling rates and output weight.
func sweepEnv(low, high float64, symmetric bool, sRate, tRate, outWeight float64) growEnv {
	m := costmodel.Default()
	return growEnv{
		band:      data.Asymmetric([]float64{low}, []float64{high}),
		opts:      Options{Symmetric: symmetric},
		beta2:     m.Beta2,
		beta3:     m.Beta3,
		varFactor: 7.0 / 64,
		smoothing: 1,
		b2s:       m.Beta2 / sRate,
		b2t:       m.Beta2 / tRate,
		b3o:       m.Beta3 * outWeight,
		invS:      1 / sRate,
		invT:      1 / tRate,
	}
}

// leafValues draws n sorted values in [0, 1): on a lattice of the given
// number of points when lattice > 0, a fraction mass of them on the point
// 0.5, then −Inf, +Inf and NaN tails of the given lengths, sorted the way
// data.Argsort orders a column (NaN last).
func leafValues(rng *rand.Rand, n, lattice int, mass float64, negInf, posInf, nan int) []float64 {
	v := make([]float64, 0, n+negInf+posInf+nan)
	for i := 0; i < n; i++ {
		x := rng.Float64()
		if lattice > 0 {
			x = math.Floor(x*float64(lattice)) / float64(lattice)
		}
		if rng.Float64() < mass {
			x = 0.5
		}
		v = append(v, x)
	}
	for i := 0; i < negInf; i++ {
		v = append(v, math.Inf(-1))
	}
	for i := 0; i < posInf; i++ {
		v = append(v, math.Inf(1))
	}
	slices.Sort(v)
	for i := 0; i < nan; i++ {
		v = append(v, math.NaN())
	}
	return v
}

// leafSpec describes a synthetic leaf for the differential test and the
// fuzzer.
type leafSpec struct {
	nS, nT, nOut            int
	lattice                 int
	mass                    float64
	low, high               float64
	symmetric               bool
	negInf, posInf, nan     int // tail lengths, on both sides
	clip                    bool
	sRate, tRate, outWeight float64
	seed                    int64
}

func (s leafSpec) leaf() sweepLeaf {
	rng := rand.New(rand.NewSource(s.seed))
	l := sweepLeaf{env: sweepEnv(s.low, s.high, s.symmetric, s.sRate, s.tRate, s.outWeight)}
	l.sv = leafValues(rng, s.nS, s.lattice, s.mass, s.negInf, s.posInf, s.nan)
	l.tv = leafValues(rng, s.nT, s.lattice, s.mass, s.negInf, s.posInf, s.nan)
	l.ovS = leafValues(rng, s.nOut, s.lattice, s.mass, 0, 0, 0)
	l.ovT = leafValues(rng, s.nOut, s.lattice, s.mass, 0, 0, 0)
	l.lo, l.hi = math.Inf(-1), math.Inf(1)
	if s.clip {
		l.lo, l.hi = 0.2, 0.7
	}
	m := costmodel.Default()
	lp := m.Beta2*(float64(len(l.sv))/s.sRate+float64(len(l.tv))/s.tRate) + m.Beta3*s.outWeight*float64(len(l.ovS))
	l.lpSq = lp * lp
	return l
}

// blockValues returns the integers 0..n, so a leaf with them on both sides
// has exactly n candidates: whole blocks when n is a multiple of sweepBlock.
func blockValues(n int) []float64 {
	v := make([]float64, n+1)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

// TestSweepDimMatchesFullScan compares the bounded sweep with the full scan
// on synthetic leaves — ties and point masses, zero-width and asymmetric
// bands, leaves smaller than a block and exact block multiples, ±Inf and NaN
// tails — and on the root of every dimension of real samples, for RecPart and
// RecPart-S.
func TestSweepDimMatchesFullScan(t *testing.T) {
	var cands, scored int
	tally := func(c, s int) { cands += c; scored += s }
	base := leafSpec{nS: 700, nT: 700, nOut: 300, low: 0.05, high: 0.05, sRate: 0.1, tRate: 0.1, outWeight: 3}
	specs := map[string]func(s *leafSpec){
		"continuous":          func(s *leafSpec) {},
		"ties":                func(s *leafSpec) { s.lattice = 37 },
		"point mass":          func(s *leafSpec) { s.mass = 0.4 },
		"ties and point mass": func(s *leafSpec) { s.lattice = 200; s.mass = 0.2 },
		"zero-width band":     func(s *leafSpec) { s.low, s.high = 0, 0 },
		"asymmetric band":     func(s *leafSpec) { s.low, s.high = 0, 0.08 },
		"asymmetric band 2":   func(s *leafSpec) { s.low, s.high = 0.1, 0.01 },
		"wide band":           func(s *leafSpec) { s.low, s.high = 0.4, 0.3 },
		"smaller than a block": func(s *leafSpec) {
			s.nS, s.nT, s.nOut = 20, 25, 10
		},
		"one side empty":   func(s *leafSpec) { s.nT = 0 },
		"no output sample": func(s *leafSpec) { s.nOut = 0 },
		"±Inf and NaN tails": func(s *leafSpec) {
			s.negInf, s.posInf, s.nan = 3, 4, 5
		},
		"clipped region":  func(s *leafSpec) { s.clip = true; s.lattice = 300 },
		"unequal rates":   func(s *leafSpec) { s.sRate, s.tRate, s.outWeight = 0.02, 0.5, 40 },
		"large":           func(s *leafSpec) { s.nS, s.nT, s.nOut = 5000, 4000, 2000 },
		"large with ties": func(s *leafSpec) { s.nS, s.nT, s.nOut, s.lattice, s.mass = 5000, 4000, 2000, 1500, 0.05 },
	}
	for name, mod := range specs {
		for _, symmetric := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				s := base
				mod(&s)
				s.symmetric, s.seed = symmetric, seed
				tally(checkSweep(t, name, s.leaf()))
			}
		}
	}

	// Exact block multiples (and one past): n candidates from the integers.
	for _, n := range []int{sweepBlock - 1, sweepBlock, sweepBlock + 1, 2 * sweepBlock, 5 * sweepBlock} {
		for _, symmetric := range []bool{false, true} {
			for _, nan := range []int{0, 3} {
				l := sweepLeaf{env: sweepEnv(2, 3, symmetric, 0.5, 0.25, 2), lo: math.Inf(-1), hi: math.Inf(1)}
				l.sv, l.tv = blockValues(n), blockValues(n/2)
				for i := 0; i < nan; i++ {
					l.sv, l.tv = append(l.sv, math.NaN()), append(l.tv, math.NaN())
				}
				l.ovS, l.ovT = blockValues(n/3), blockValues(n/4)
				lp := l.env.b2s*float64(len(l.sv)) + l.env.b2t*float64(len(l.tv)) + l.env.b3o*float64(len(l.ovS))
				l.lpSq = lp * lp
				tally(checkSweep(t, "block multiple", l))
			}
		}
	}

	// The root of every dimension of real samples.
	pareto8S, pareto8T := data.ParetoPair(8, 1.5, 20000, 11)
	pointS, pointT := goldenPointMass2D()
	for _, in := range []struct {
		s, t *data.Relation
		band data.Band
	}{
		{pareto8S, pareto8T, data.Uniform(8, 0.25)},
		{pointS, pointT, data.Asymmetric([]float64{0, 0.08}, []float64{0.1, 0.01})},
	} {
		drawn, err := sample.DrawInputs(in.s, in.t, sample.Options{InputSampleSize: 6000, OutputSampleSize: 1500, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		smp, err := drawn.ForBand(in.band)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &partition.Context{Band: in.band, Workers: 8, Sample: smp, Model: costmodel.Default(), Seed: 1}
		var outS, outT sample.Columns
		outS.Build(smp.OutS)
		outT.Build(smp.OutT)
		sCols, tCols := smp.InputColumns()
		for _, symmetric := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Symmetric = symmetric
			env := newGrowEnv(ctx, opts)
			region := env.rootRegion()
			lp := env.beta2*(smp.ScaleS(smp.S.Len())+smp.ScaleT(smp.T.Len())) + env.beta3*smp.ScaleOut(smp.OutS.Len())
			for dim := 0; dim < in.band.Dims(); dim++ {
				es := &evalScratch{
					sv:  gatherVals(sCols.Col(dim), sCols.Order(dim), nil),
					tv:  gatherVals(tCols.Col(dim), tCols.Order(dim), nil),
					ovS: gatherVals(outS.Col(dim), outS.Order(dim), nil),
					ovT: gatherVals(outT.Col(dim), outT.Order(dim), nil),
				}
				es.cands, es.cS, es.cT = candsFromSorted(es.sv, es.tv, region.Lo[dim], region.Hi[dim], nil, nil, nil)
				want := fullSweep(&env, dim, es, lp*lp)
				got, n := env.sweepDim(dim, es, lp*lp)
				if !sameCandidate(got, want) {
					t.Fatalf("root dim %d symmetric=%v: bounded sweep %+v, full scan %+v", dim, symmetric, got, want)
				}
				tally(len(es.cands), n)
			}
		}
	}
	if scored >= cands {
		t.Fatalf("the bounds pruned nothing: %d of %d candidates scored", scored, cands)
	}
	t.Logf("%d of %d candidates scored", scored, cands)
}

// decodeLeaf turns fuzz bytes into a synthetic leaf: eight header bytes pick
// the sizes, ties, band, split kinds, tails and rates; the rest seeds the
// values.
func decodeLeaf(b []byte) (leafSpec, bool) {
	if len(b) < 8 {
		return leafSpec{}, false
	}
	h := fnv.New64a()
	h.Write(b[8:])
	flags := b[6]
	s := leafSpec{
		nS:        int(b[0]) * 3,
		nT:        int(b[1]) * 3,
		nOut:      int(b[2]) * 2,
		lattice:   int(b[3]) * int(b[3]&7),
		mass:      float64(b[4]) / 400,
		low:       float64(b[5]&15) / 64,
		high:      float64(b[5]>>4) / 64,
		symmetric: flags&1 != 0,
		clip:      flags&2 != 0,
		sRate:     1 / float64(1+b[7]&7),
		tRate:     1 / float64(1+(b[7]>>3)&7),
		outWeight: float64(1 + b[7]>>6),
		seed:      int64(h.Sum64()),
	}
	if flags&4 != 0 {
		s.nan = int(flags>>3) & 3
	}
	if flags&32 != 0 {
		s.posInf = 1 + int(flags>>6)
	}
	if flags&128 != 0 {
		s.negInf = 2
	}
	return s, true
}

// FuzzSweepDim checks the bounded sweep against the full scan on decoded
// leaves.
func FuzzSweepDim(f *testing.F) {
	f.Add([]byte{200, 180, 100, 0, 0, 0x33, 1, 9, 1})
	f.Add([]byte{250, 250, 120, 20, 80, 0x00, 1, 0, 2})
	f.Add([]byte{100, 160, 0, 5, 0, 0x70, 0xff, 0x5a, 3})
	f.Add([]byte{21, 21, 21, 0, 0, 0x11, 0x25, 0, 4})
	f.Add([]byte{90, 70, 40, 12, 30, 0x52, 0x0d, 0x11, 5})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, ok := decodeLeaf(b)
		if !ok {
			return
		}
		checkSweep(t, "fuzz", s.leaf())
	})
}

// TestCandsFromSortedNaNLast: a NaN sorts after every finite value on either
// side, so it cuts no candidate short and is never counted below one.
func TestCandsFromSortedNaNLast(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		sv, tv, cands []float64
		cS, cT        []int32
	}{
		{[]float64{1, 2, 3}, []float64{1.5, nan}, []float64{1.25, 1.75, 2.5}, []int32{1, 1, 2}, []int32{0, 1, 1}},
		{[]float64{1.5, nan}, []float64{1, 2, 3}, []float64{1.25, 1.75, 2.5}, []int32{0, 1, 1}, []int32{1, 1, 2}},
		{[]float64{1, 3, nan, nan}, []float64{2, nan}, []float64{1.5, 2.5}, []int32{1, 1}, []int32{0, 1}},
		{[]float64{nan}, []float64{1, 2, nan}, []float64{1.5}, []int32{0}, []int32{1}},
	} {
		cands, cS, cT := candsFromSorted(c.sv, c.tv, math.Inf(-1), math.Inf(1), nil, nil, nil)
		if !slices.Equal(cands, c.cands) || !slices.Equal(cS, c.cS) || !slices.Equal(cT, c.cT) {
			t.Errorf("sv=%v tv=%v: candidates %v cS %v cT %v, want %v %v %v", c.sv, c.tv, cands, cS, cT, c.cands, c.cS, c.cT)
		}
	}
}

// TestPlanWorkIndependentOfParallelism: a plan's work counters are exact — the
// same at every planner pool size (GOMAXPROCS) — and the block bounds spare most candidates on
// the plan-sweep shape.
func TestPlanWorkIndependentOfParallelism(t *testing.T) {
	drawn, band := replanShape(t)
	ctx := replanContext(t, drawn, band(1))
	var first PlanWork
	for _, par := range []int{1, 2, 8} {
		setGOMAXPROCS(t, par)
		p, err := NewDefault().PlanDetailed(ctx)
		if err != nil {
			t.Fatal(err)
		}
		w := p.Work
		if par == 1 {
			first = w
			t.Logf("%d candidates generated, %d scored (%.1f %%), %d iterations",
				w.Candidates, w.Scored, 100*float64(w.Scored)/float64(w.Candidates), w.Iterations)
			if w.Candidates == 0 || w.Scored >= w.Candidates || w.Iterations != len(p.History)-1 {
				t.Fatalf("work %+v with %d history entries", w, len(p.History))
			}
			continue
		}
		if w != first {
			t.Errorf("GOMAXPROCS %d: work %+v, at GOMAXPROCS 1 %+v", par, w, first)
		}
	}
}
