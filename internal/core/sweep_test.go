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

// fullSweep is the sweep without bounds: every candidate of candsFromSorted
// scored, in order, by the loop sweepDim runs over the blocks it keeps. It is
// the reference the bounded sweep must match bit for bit.
func fullSweep(e *growEnv, dim int, es *evalScratch, cands []float64, cS, cT []int32, lpSq float64) candidate {
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
	for ci, x := range cands {
		pTHigh = advance(tv, pTHigh, x+high)
		pTLow = advance(tv, pTLow, x-low)
		pOS = advance(ovS, pOS, x)
		dupT := float64(pTHigh - pTLow)
		lL := b2s*float64(cS[ci]) + b2t*float64(pTHigh) + b3o*float64(pOS)
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
		lL = b2s*float64(pSLow) + b2t*float64(cT[ci]) + b3o*float64(pOT)
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
// test unless they return the same candidate. It returns the candidates there
// are and the ones the bounded sweep scored.
func checkSweep(t *testing.T, name string, l sweepLeaf) (cands, scored int) {
	t.Helper()
	es := &evalScratch{sv: l.sv, tv: l.tv, ovS: l.ovS, ovT: l.ovT}
	all, cS, cT := candsFromSorted(l.sv, l.tv, l.lo, l.hi, nil, nil, nil)
	// Each candidate carries the counts of S and T values below it.
	var pS, pT int
	for ci, x := range all {
		pS, pT = advance(l.sv, pS, x), advance(l.tv, pT, x)
		if int(cS[ci]) != pS || int(cT[ci]) != pT {
			t.Fatalf("%s: candidate %v has counts %d, %d below it, want %d, %d", name, x, cS[ci], cT[ci], pS, pT)
		}
	}
	want := fullSweep(&l.env, 0, es, all, cS, cT, l.lpSq)
	got, made, scored, _ := l.env.sweepDim(0, es, l.lo, l.hi, l.lpSq)
	if !sameCandidate(got, want) {
		t.Fatalf("%s: %d candidates, %d scored: bounded sweep %+v, full scan %+v", name, len(all), scored, got, want)
	}
	if scored > len(all) || made < scored || made > scored+len(es.bounds) {
		t.Fatalf("%s: %d candidates, %d materialised, %d scored", name, len(all), made, scored)
	}
	return len(all), scored
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

// blockValues returns the integers 0..n, so a leaf with them on one side
// only has exactly n candidates, one per merged position after the first:
// whole blocks when n is a multiple of sweepBlock.
func blockValues(n int) []float64 {
	v := make([]float64, n+1)
	for i := range v {
		v[i] = float64(i)
	}
	return v
}

// tieRuns returns n values off, off+1, … in runs of run equal values.
func tieRuns(n, run int, off float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = off + float64(i/run)
	}
	return v
}

// withNaN returns v with k NaNs appended, where data.Argsort puts them.
func withNaN(v []float64, k int) []float64 {
	for ; k > 0; k-- {
		v = append(v, math.NaN())
	}
	return v
}

// withLoad sets the leaf's squared load from its values and rates.
func withLoad(l sweepLeaf) sweepLeaf {
	lp := l.env.b2s*float64(len(l.sv)) + l.env.b2t*float64(len(l.tv)) + l.env.b3o*float64(len(l.ovS))
	l.lpSq = lp * lp
	return l
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

	// Around block multiples: n candidates from the integers, in exactly
	// n merged positions past the first when T is empty.
	for _, n := range []int{sweepBlock - 1, sweepBlock, sweepBlock + 1, 2 * sweepBlock, 5 * sweepBlock} {
		for _, symmetric := range []bool{false, true} {
			for _, nan := range []int{0, 3} {
				for _, tn := range []int{n / 2, -1} {
					l := sweepLeaf{env: sweepEnv(2, 3, symmetric, 0.5, 0.25, 2), lo: math.Inf(-1), hi: math.Inf(1)}
					l.sv = withNaN(blockValues(n), nan)
					if tn >= 0 {
						l.tv = withNaN(blockValues(tn), nan)
					}
					l.ovS, l.ovT = blockValues(n/3), blockValues(n/4)
					tally(checkSweep(t, "block multiple", withLoad(l)))
				}
			}
		}
	}

	// The blocks' edges: tie runs longer than a block that straddle block
	// boundaries, region clips that fall inside a block, blocks whose low
	// end is in the NaN tail, and leaves of fewer than two values.
	inf := math.Inf(1)
	for name, l := range map[string]sweepLeaf{
		"tie runs across blocks":       {sv: tieRuns(300, 45, 0), tv: tieRuns(280, 70, 0.5), ovS: tieRuns(90, 20, 0), ovT: tieRuns(90, 20, 0.5), lo: -inf, hi: inf},
		"equal tie runs on both sides": {sv: tieRuns(400, 40, 0), tv: tieRuns(400, 40, 0), ovS: tieRuns(100, 33, 0), ovT: tieRuns(100, 33, 0), lo: -inf, hi: inf},
		"tie runs clipped":             {sv: tieRuns(300, 45, 0), tv: tieRuns(280, 70, 0.5), ovS: tieRuns(90, 20, 0), ovT: tieRuns(90, 20, 0.5), lo: 1.3, hi: 4.6},
		"clips inside blocks":          {sv: blockValues(200), tv: blockValues(150), ovS: blockValues(60), ovT: blockValues(60), lo: 37.3, hi: 141.6},
		"clip inside the first block":  {sv: blockValues(200), tv: blockValues(150), ovS: blockValues(60), ovT: blockValues(60), lo: 3.5, hi: 9.25},
		"NaN low ends on both sides":   {sv: withNaN(blockValues(40), 50), tv: withNaN(blockValues(20), 45), ovS: blockValues(15), ovT: blockValues(15), lo: -inf, hi: inf},
		"NaN low ends on S's side":     {sv: withNaN(tieRuns(90, 3, 0), 80), tv: tieRuns(60, 2, 0.25), ovS: blockValues(20), ovT: blockValues(20), lo: -inf, hi: inf},
		"NaN low ends, clipped":        {sv: withNaN(blockValues(40), 50), tv: withNaN(blockValues(20), 45), ovS: blockValues(15), ovT: blockValues(15), lo: 2.5, hi: 30.5},
		"no values":                    {lo: -inf, hi: inf},
		"one S value":                  {sv: []float64{1}, ovS: []float64{1}, ovT: []float64{1}, lo: -inf, hi: inf},
		"one T value":                  {tv: []float64{2}, lo: -inf, hi: inf},
	} {
		for _, symmetric := range []bool{false, true} {
			l.env = sweepEnv(1, 2, symmetric, 0.5, 0.25, 2)
			tally(checkSweep(t, name, withLoad(l)))
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
				cands, cS, cT := candsFromSorted(es.sv, es.tv, region.Lo[dim], region.Hi[dim], nil, nil, nil)
				want := fullSweep(&env, dim, es, cands, cS, cT, lp*lp)
				got, _, n, _ := env.sweepDim(dim, es, region.Lo[dim], region.Hi[dim], lp*lp)
				if !sameCandidate(got, want) {
					t.Fatalf("root dim %d symmetric=%v: bounded sweep %+v, full scan %+v", dim, symmetric, got, want)
				}
				tally(len(cands), n)
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
	// Tie runs longer than a block, straddling its edges.
	f.Add([]byte{250, 250, 60, 2, 0, 0x33, 1, 9, 6})
	// Region clips inside a block.
	f.Add([]byte{200, 200, 50, 0, 0, 0x22, 3, 9, 7})
	// 93 values and 3 NaNs a side: the block at merged position 97 starts
	// after a NaN.
	f.Add([]byte{16, 15, 10, 0, 0, 0x33, 0x1d, 9, 8})
	// Fewer than two values.
	f.Add([]byte{0, 0, 5, 0, 0, 0x11, 1, 0, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		s, ok := decodeLeaf(b)
		if !ok {
			return
		}
		checkSweep(t, "fuzz", s.leaf())
	})
}

// TestCoRankMatchesMerge checks the sweep's merge-path helpers against a
// linear merge at every merged position m: the co-rank i(m), searched over
// its whole range and within a window of an earlier co-rank as the sweep
// searches it, the last value taken, M[m−1], and the value taken next.
func TestCoRankMatchesMerge(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name   string
		sv, tv []float64
	}{
		{"ties", []float64{1, 1, 1, 2, 2, 3}, []float64{1, 1, 2, 2, 2, 2, 3, 3}},
		{"tie runs longer than a block", tieRuns(200, 45, 0), tieRuns(150, 60, 0)},
		{"±Inf", []float64{-inf, -inf, 0, 1, inf}, []float64{-inf, 0, 0, inf, inf}},
		{"NaN tail on S", []float64{1, 2, 3, nan, nan}, []float64{0, 2, 4}},
		{"NaN tail on T", []float64{0, 2, 4}, []float64{1, 2, 3, nan, nan}},
		{"NaN tails on both", []float64{1, inf, nan, nan}, []float64{1, nan, nan, nan}},
		{"only NaN", []float64{nan, nan}, []float64{nan}},
		{"empty S", nil, []float64{1, 2, 2, nan}},
		{"empty T", []float64{-inf, 3, 3, nan}, nil},
		{"both empty", nil, nil},
		{"lattice with tails", leafValues(rng, 300, 20, 0.1, 2, 3, 4), leafValues(rng, 250, 20, 0.1, 1, 2, 40)},
	}
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	for _, c := range cases {
		n := len(c.sv) + len(c.tv)
		is := make([]int, n+1) // is[m] = i(m)
		merged := make([]float64, n)
		i, j := 0, 0
		for m := range merged {
			if j >= len(c.tv) || (i < len(c.sv) && (c.sv[i] <= c.tv[j] || c.tv[j] != c.tv[j])) {
				merged[m] = c.sv[i]
				i++
			} else {
				merged[m] = c.tv[j]
				j++
			}
			is[m+1] = i
		}
		for m := 0; m <= n; m++ {
			if got := coRank(c.sv, c.tv, m, 0, m); got != is[m] {
				t.Fatalf("%s: co-rank of %d is %d, the merge took %d S values", c.name, m, got, is[m])
			}
			for _, w := range []int{1, 3, sweepBlock} {
				from := is[max(m-w, 0)]
				if got := coRank(c.sv, c.tv, m, from, from+w); got != is[m] {
					t.Fatalf("%s: co-rank of %d within %d of %d is %d, the merge took %d S values", c.name, m, w, from, got, is[m])
				}
			}
			if m > 0 {
				if got := mergedLast(c.sv, c.tv, is[m], m-is[m]); !same(got, merged[m-1]) {
					t.Fatalf("%s: M[%d] is %v, the merge took %v", c.name, m-1, got, merged[m-1])
				}
			}
			if m < n {
				got, fromS := mergeNext(c.sv, c.tv, is[m], m-is[m])
				if !same(got, merged[m]) || fromS != (is[m+1] > is[m]) {
					t.Fatalf("%s: next after %d is %v (from S: %v), the merge took %v", c.name, m, got, fromS, merged[m])
				}
			}
		}
	}
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

// Work of the plan of TestPlanWorkIndependentOfParallelism when the sweep
// formed every candidate of a leaf and bounded blocks of 32 candidates: it
// generated 3 008 413 candidates and scored 199 904 of them. Forming only the
// blocks' seeds and the candidates of the blocks that can win must keep the
// candidates under 15 % of the first, and the looser bounds of blocks of
// merged positions must keep the scored within 10 % of the second.
const (
	replanEveryCandidate = 3008413
	replanScoredBefore   = 199904
)

// TestPlanWorkIndependentOfParallelism: a plan's work counters — candidates,
// scored, pointer advances, iterations — are exact, the same at every planner
// pool size (GOMAXPROCS), and the block bounds spare most candidates on the
// plan-sweep shape.
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
			t.Logf("%d candidates materialised, %d scored (%.1f %%), %d pointer advances, %d iterations",
				w.Candidates, w.Scored, 100*float64(w.Scored)/float64(w.Candidates), w.Advances, w.Iterations)
			if w.Candidates == 0 || w.Scored >= w.Candidates || w.Advances == 0 || w.Iterations != len(p.History)-1 {
				t.Fatalf("work %+v with %d history entries", w, len(p.History))
			}
			if w.Candidates > replanEveryCandidate*15/100 || w.Scored > replanScoredBefore*11/10 {
				t.Errorf("work %+v: want at most %d candidates and %d scored", w,
					replanEveryCandidate*15/100, replanScoredBefore*11/10)
			}
			continue
		}
		if w != first {
			t.Errorf("GOMAXPROCS %d: work %+v, at GOMAXPROCS 1 %+v", par, w, first)
		}
	}
}

// candsFromSorted returns the candidate split points of one dimension — the
// mid-points between consecutive distinct values of the merged sample,
// restricted to the open interval (lo, hi) — together with the per-candidate
// counts of S and T values strictly below each point (the sweep's unshifted
// pointers). One merge pass does all three: at the moment a candidate is
// emitted, the merge positions are exactly those counts. Both inputs sort NaN
// last (data.Argsort's order), and so does the merge — S first on ties, and
// a NaN on either side waits for every value of the other — so no candidate
// is lost and no NaN is counted below one.
func candsFromSorted(sv, tv []float64, lo, hi float64, out []float64, cS, cT []int32) ([]float64, []int32, []int32) {
	i, j := 0, 0
	have := false
	var prev float64
	for i < len(sv) || j < len(tv) {
		pi, pj := i, j
		var v float64
		if j >= len(tv) || (i < len(sv) && (sv[i] <= tv[j] || tv[j] != tv[j])) {
			v = sv[i]
			i++
		} else {
			v = tv[j]
			j++
		}
		if have && v != prev {
			mid := prev + (v-prev)/2
			if mid > lo && mid < hi && mid > prev {
				out = append(out, mid)
				cS = append(cS, int32(pi))
				cT = append(cT, int32(pj))
			}
		}
		prev = v
		have = true
	}
	return out, cS, cT
}
