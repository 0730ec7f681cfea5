package sample

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bandjoin/internal/data"
)

// randomBands returns n bands of d dimensions whose widths lie within 40 % of
// base, so that several share a rung; each width is zero with probability
// zeroP, independently for Low and High.
func randomBands(rng *rand.Rand, n, d int, base, zeroP float64) []data.Band {
	width := func() float64 {
		if rng.Float64() < zeroP {
			return 0
		}
		return base * (1 + 0.4*rng.Float64())
	}
	bands := make([]data.Band, n)
	for i := range bands {
		low, high := make([]float64, d), make([]float64, d)
		for j := range d {
			low[j], high[j] = width(), width()
		}
		bands[i] = data.Asymmetric(low, high)
	}
	return bands
}

// withSpecialKeys returns r with every 37th row's dimension i%d set to NaN,
// every 41st row's set to +Inf and every 43rd row's to −Inf, plus five rows
// that are +Inf on every dimension and so match each other under any finite
// band.
func withSpecialKeys(r *data.Relation) *data.Relation {
	d := r.Dims()
	out := data.NewRelationCapacity(r.Name(), d, r.Len()+5)
	for i := 0; i < r.Len(); i++ {
		key := slices.Clone(r.Key(i))
		switch {
		case i%37 == 0:
			key[i%d] = math.NaN()
		case i%41 == 0:
			key[i%d] = math.Inf(1)
		case i%43 == 0:
			key[i%d] = math.Inf(-1)
		}
		out.AppendKey(key)
	}
	inf := make([]float64, d)
	for j := range inf {
		inf[j] = math.Inf(1)
	}
	for range 5 {
		out.AppendKey(inf)
	}
	return out
}

// checkRungsMatchDirect asks bands of one InputSample in the given order and
// of another in reverse, and fails unless every Sample hashes as a fresh
// Draw's, which answers its one band by a direct join. It returns the first
// InputSample, for a look at what it cached.
func checkRungsMatchDirect(t *testing.T, name string, s, tt *data.Relation, opts Options, bands []data.Band) *InputSample {
	t.Helper()
	want := make([]uint64, len(bands))
	pairs := 0
	for i, band := range bands {
		smp, err := Draw(s, tt, band, opts)
		if err != nil {
			t.Fatalf("%s: band %d: %v", name, i, err)
		}
		want[i] = hashSample(smp)
		pairs += smp.OutS.Len()
	}
	if pairs == 0 {
		t.Fatalf("%s: every band's output sample is empty; the hashes pin nothing", name)
	}
	draw := func() *InputSample {
		in, err := DrawInputs(s, tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	forward, reverse := draw(), draw()
	for pass, in := range []*InputSample{forward, reverse} {
		for n := range bands {
			i := n
			if pass == 1 {
				i = len(bands) - 1 - n
			}
			smp, err := in.ForBand(bands[i])
			if err != nil {
				t.Fatalf("%s: band %d: %v", name, i, err)
			}
			if got := hashSample(smp); got != want[i] {
				t.Errorf("%s: band %d (%v), asked %d-th in pass %d: hash %#x, a fresh draw's %#x",
					name, i, bands[i], n, pass, got, want[i])
			}
		}
	}
	return forward
}

// rungCounts reports how many of in's rungs hold a non-empty list and how many
// were too big to keep.
func rungCounts(in *InputSample) (held, tooBig int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rungs {
		switch {
		case r.tooBig:
			tooBig++
		case len(r.pairs) > 0:
			held++
		}
	}
	return held, tooBig
}

// TestForBandRungMatchesDirect: a band answered from a covering rung's cached
// pairs derives exactly the Sample a direct join does, whatever was asked
// before it — on asymmetric bands with zero widths, 1-d bands, NaN and ±Inf
// keys, a width whose rung overflows, and a rung too big to keep.
func TestForBandRungMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))

	t.Run("asymmetric-3d", func(t *testing.T) {
		s, tt := data.ParetoPair(3, 1.5, 3000, 41)
		opts := Options{InputSampleSize: 4000, OutputSampleSize: 300, Seed: 2}
		in := checkRungsMatchDirect(t, "asymmetric-3d", s, tt, opts, randomBands(rng, 40, 3, 0.04, 0))
		if held, _ := rungCounts(in); held == 0 {
			t.Fatal("no rung kept a list: the bands were never filtered")
		}
	})

	t.Run("zero-widths", func(t *testing.T) {
		s, tt := goldenQuantized3D()
		opts := Options{InputSampleSize: 6000, OutputSampleSize: 1000, Seed: 2}
		bands := randomBands(rng, 24, 3, 0.02, 0.3)
		bands = append(bands, data.Asymmetric([]float64{0, 0.03, 0.05}, []float64{0, 0.05, 0.03}))
		in := checkRungsMatchDirect(t, "zero-widths", s, tt, opts, bands)
		if held, _ := rungCounts(in); held == 0 {
			t.Fatal("no rung kept a list: the bands were never filtered")
		}
	})

	t.Run("1d", func(t *testing.T) {
		s, tt := data.ParetoPair(1, 1.5, 3000, 43)
		opts := Options{InputSampleSize: 6000, OutputSampleSize: 400, Seed: 2}
		in := checkRungsMatchDirect(t, "1d", s, tt, opts, randomBands(rng, 30, 1, 0.0003, 0.1))
		if held, _ := rungCounts(in); held == 0 {
			t.Fatal("no rung kept a list: the bands were never filtered")
		}
	})

	t.Run("nan-and-inf-keys", func(t *testing.T) {
		ps, pt := data.ParetoPair(2, 1.5, 2000, 47)
		s, tt := withSpecialKeys(ps), withSpecialKeys(pt)
		// The samples are the whole inputs, so every special row is in them.
		opts := Options{InputSampleSize: s.Len() + tt.Len(), OutputSampleSize: 500, Seed: 2}
		in := checkRungsMatchDirect(t, "nan-and-inf-keys", s, tt, opts, randomBands(rng, 30, 2, 0.03, 0.2))
		if held, _ := rungCounts(in); held == 0 {
			t.Fatal("no rung kept a list: the bands were never filtered")
		}
	})

	t.Run("overflowing-rung", func(t *testing.T) {
		ps, pt := data.ParetoPair(2, 1.5, 2000, 53)
		s, tt := withSpecialKeys(ps), withSpecialKeys(pt)
		opts := Options{InputSampleSize: s.Len() + tt.Len(), OutputSampleSize: 500, Seed: 2}
		huge := data.Asymmetric([]float64{0.01, math.MaxFloat64}, []float64{0.01, math.MaxFloat64 / 1.1})
		if _, _, ok := rungOf(huge); ok {
			t.Fatalf("the rung of %v does not overflow", huge)
		}
		bands := []data.Band{data.Uniform(2, 0.01), huge, data.Uniform(2, 0.0101), huge}
		checkRungsMatchDirect(t, "overflowing-rung", s, tt, opts, bands)
	})

	t.Run("rung-over-the-bound", func(t *testing.T) {
		s, tt := goldenPointMass2D()
		opts := Options{InputSampleSize: 3000, OutputSampleSize: 50, Seed: 2}
		bands := randomBands(rng, 12, 2, 0.05, 0)
		in := checkRungsMatchDirect(t, "rung-over-the-bound", s, tt, opts, bands)
		if _, tooBig := rungCounts(in); tooBig == 0 {
			t.Fatalf("no rung exceeded %d pairs", rungPairLimit*opts.OutputSampleSize)
		}
	})
}

// TestRungCoversBand: every rung width is a ladder value no smaller than the
// width it rounds, zero stays zero, and the rung is the smallest such value
// up to the rounding of Exp2.
func TestRungCoversBand(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.1, 0.16, 0.17677669529663687, 1, 3, 1e300}
	for range 2000 {
		widths = append(widths, math.Ldexp(rng.Float64(), rng.Intn(200)-100))
	}
	for _, w := range widths {
		k, x := rungWidth(w)
		if w == 0 {
			if k != rungZero || x != 0 {
				t.Fatalf("width 0 rounds to exponent %d, value %g", k, x)
			}
			continue
		}
		if x < w || x != ladder(k) {
			t.Fatalf("width %g rounds to %g (exponent %d), below it or off the ladder", w, x, k)
		}
		if below := ladder(k - 1); below >= w && below != x {
			t.Fatalf("width %g rounds to %g, but ladder value %g below it covers it too", w, x, below)
		}
	}
}
