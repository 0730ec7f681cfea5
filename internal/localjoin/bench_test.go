package localjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"bandjoin/internal/data"
)

// benchInputs builds a partition-sized workload: n tuples per side, d
// dimensions, band width chosen so each probe scans a handful of candidates.
func benchInputs(n, d int) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(d, 1.5, n, 42)
	return s, t, data.Uniform(d, 0.001)
}

func benchmarkAlgorithm(b *testing.B, alg Algorithm, n, d int) {
	s, t, band := benchInputs(n, d)
	// Warm the scratch pool so the steady state is measured.
	alg.Join(s, t, band, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total += alg.Join(s, t, band, nil)
	}
	b.StopTimer()
	if total < 0 {
		b.Fatal("impossible negative count")
	}
	b.SetBytes(int64(n * d * 8 * 2))
}

func benchmarkDims(b *testing.B, alg Algorithm, dims ...int) {
	for _, d := range dims {
		b.Run(fmt.Sprintf("n=10000/d=%d", d), func(b *testing.B) {
			benchmarkAlgorithm(b, alg, 10_000, d)
		})
	}
}

func BenchmarkSortProbe(b *testing.B)    { benchmarkDims(b, SortProbe{}, 1, 3) }
func BenchmarkGridSortScan(b *testing.B) { benchmarkDims(b, GridSortScan{}, 1, 3) }
func BenchmarkEpsGrid(b *testing.B)      { benchmarkDims(b, EpsGrid{}, 2, 3) }

// TestSortProbeSteadyStateAllocs asserts the acceptance criterion directly:
// after warm-up, SortProbe performs zero allocations per join call.
func TestSortProbeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady state not observable")
	}
	s, tt, band := benchInputs(5_000, 3)
	alg := SortProbe{}
	alg.Join(s, tt, band, nil) // warm the scratch pool
	avg := testing.AllocsPerRun(10, func() {
		alg.Join(s, tt, band, nil)
	})
	if avg > 0 {
		t.Errorf("SortProbe steady state allocates %.1f times per join, want 0", avg)
	}
}

func TestEpsGridSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady state not observable")
	}
	check := func(cells string, s, tt *data.Relation, band data.Band) {
		alg := EpsGrid{}
		alg.Join(s, tt, band, nil)
		avg := testing.AllocsPerRun(10, func() {
			alg.Join(s, tt, band, nil)
		})
		if avg > 0 {
			t.Errorf("EpsGrid steady state on %s cells allocates %.1f times per join, want 0", cells, avg)
		}
	}
	s, tt, band := benchInputs(5_000, 3)
	check("sparse", s, tt, band)
	s, tt, band = denseCellInputs(20_000)
	check("dense", s, tt, band)
}

func TestGridSortScanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady state not observable")
	}
	s, tt, band := benchInputs(5_000, 3)
	alg := GridSortScan{}
	alg.Join(s, tt, band, nil)
	avg := testing.AllocsPerRun(10, func() {
		alg.Join(s, tt, band, nil)
	})
	if avg > 0 {
		t.Errorf("GridSortScan steady state allocates %.1f times per join, want 0", avg)
	}
}

// denseCellInputs is the serving workload's partition shape: a 2-d Pareto T
// whose corner cells hold around a hundred rows each (the grid cannot refine,
// k = dims), probed by a Pareto S with 5% of its rows on one point inside the
// corner.
func denseCellInputs(n int) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(2, 1.5, n, 42)
	for i := 0; i < n; i += 20 {
		copy(s.Key(i), []float64{1.05, 1.05})
	}
	return s, t, data.Uniform(2, 0.02)
}

// sparseCellInputs is the control: the 8-d self-match shape, every T row a
// jittered copy of one S row in a wide domain, about one row per cell, so the
// dense-cell path never runs.
func sparseCellInputs(n int) (*data.Relation, *data.Relation, data.Band) {
	const dims, eps = 8, 0.02
	rng := rand.New(rand.NewSource(42))
	s := data.NewRelationCapacity("s", dims, n)
	t := data.NewRelationCapacity("t", dims, n)
	sk, tk := make([]float64, dims), make([]float64, dims)
	for i := 0; i < n; i++ {
		for d := range sk {
			sk[d] = rng.Float64() * 100
			tk[d] = sk[d] + (rng.Float64()-0.5)*eps
		}
		s.AppendKey(sk)
		t.AppendKey(tk)
	}
	return s, t, data.Uniform(dims, eps)
}

// refinedCellInputs is the in-process workload's shape: a 3-d Pareto pair whose
// 2-d cells are too heavy, so the grid refines to k = 3 = dims and leaves
// nearly every cell below denseCell — candidates that match about one time in
// three, verified one by one in sparse cells. (ε = 0.045 puts as many of
// 100 000 rows into a cell as the workload's 0.03 does of 320 000.)
func refinedCellInputs(n int) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(3, 1.5, n, 42)
	return s, t, data.Uniform(3, 0.045)
}

// BenchmarkEpsGridDenseCells times the grid kernel in its three regimes, as
// ns/pair: dense cells with every dimension a grid dimension (cost per output
// pair), sparse cells with every dimension a grid dimension (cost per
// candidate), and sparse cells with most dimensions outside the grid (cost per
// probe). Each as the one-shot join (build + probe) and the prepared probe
// counting and emitting. It is what the denseCell threshold is measured with.
func BenchmarkEpsGridDenseCells(b *testing.B) {
	shapes := []struct {
		name   string
		inputs func(int) (*data.Relation, *data.Relation, data.Band)
	}{{"dense2d", denseCellInputs}, {"sparse3d", refinedCellInputs}, {"sparse8d", sparseCellInputs}}
	for _, shape := range shapes {
		s, t, band := shape.inputs(100_000)
		prep := Prepare(EpsGrid{}, s, t, band)
		var sink int
		runs := []struct {
			name string
			run  func() int64
		}{
			{"join", func() int64 { return EpsGrid{}.Join(s, t, band, nil) }},
			{"probe-count", func() int64 { return prep.Probe(s, nil) }},
			{"probe-emit", func() int64 { return prep.Probe(s, func(si, ti int, _, _ []float64) { sink += si ^ ti }) }},
		}
		for _, r := range runs {
			b.Run(shape.name+"/"+r.name, func(b *testing.B) {
				var pairs int64
				for i := 0; i < b.N; i++ {
					pairs += r.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
			})
		}
	}
}
