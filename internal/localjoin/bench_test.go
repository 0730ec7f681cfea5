package localjoin

import (
	"fmt"
	"math"
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

func BenchmarkEpsGrid(b *testing.B) {
	for _, d := range []int{2, 3} {
		b.Run(fmt.Sprintf("n=10000/d=%d", d), func(b *testing.B) {
			s, t, band := benchInputs(10_000, d)
			// Warm the grid pool so the steady state is measured.
			Join(s, t, band, nil)
			b.ReportAllocs()
			b.SetBytes(int64(10_000 * d * 8 * 2))
			for i := 0; i < b.N; i++ {
				Join(s, t, band, nil)
			}
		})
	}
}

// TestEpsGridSteadyStateAllocs: after warm-up, a one-shot Join allocates
// nothing — the grid's buffers come back through Release's pool — on sparse
// and dense cells, in one dimension and with an exact-key dimension 0.
func TestEpsGridSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady state not observable")
	}
	check := func(cells string, s, tt *data.Relation, band data.Band) {
		Join(s, tt, band, nil)
		avg := testing.AllocsPerRun(10, func() {
			Join(s, tt, band, nil)
		})
		if avg > 0 {
			t.Errorf("EpsGrid steady state on %s allocates %.1f times per join, want 0", cells, avg)
		}
	}
	s, tt, band := benchInputs(5_000, 3)
	check("sparse cells", s, tt, band)
	s, tt, band = denseCellInputs(20_000)
	check("dense cells", s, tt, band)
	s, tt, band = benchInputs(5_000, 1)
	check("a 1-d band", s, tt, band)
	s, tt, band = zeroDim0Inputs(5_000)
	check("a zero width on dimension 0", s, tt, band)
}

// zeroDim0Inputs is a 3-d Pareto pair whose dimension 0 is an integer lattice
// (⌊10·x⌋, an eighth of the rows on its first value) under a band of width 0
// there and 0.01 on the other two.
func zeroDim0Inputs(n int) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(3, 1.5, n, 42)
	for _, r := range []*data.Relation{s, t} {
		for i := 0; i < r.Len(); i++ {
			r.Key(i)[0] = math.Floor(10 * r.Key(i)[0])
		}
	}
	return s, t, data.Symmetric(0, 0.01, 0.01)
}

// BenchmarkLocalJoin1D times the kernel on the bands it took over from the
// sorted probe (one dimension: Pareto keys, 10k and 100k rows per side, ε
// 0.001 and 0.01) and the sorted scan (a zero width on dimension 0, 3-d, 20k
// rows), each as a one-shot join counting and emitting, and as the count of a
// prepared probe.
func BenchmarkLocalJoin1D(b *testing.B) {
	type shape struct {
		name string
		s, t *data.Relation
		band data.Band
	}
	var shapes []shape
	for _, n := range []int{10_000, 100_000} {
		for _, eps := range []float64{0.001, 0.01} {
			s, t := data.ParetoPair(1, 1.5, n, 42)
			shapes = append(shapes, shape{fmt.Sprintf("d=1/n=%d/eps=%g", n, eps), s, t, data.Uniform(1, eps)})
		}
	}
	s, t, band := zeroDim0Inputs(20_000)
	shapes = append(shapes, shape{"zero-dim0/d=3/n=20000", s, t, band})
	for _, sh := range shapes {
		prep := Prepare(sh.s, sh.t, sh.band)
		var sink int
		runs := []struct {
			name string
			run  func() int64
		}{
			{"join-count", func() int64 { return Join(sh.s, sh.t, sh.band, nil) }},
			{"join-emit", func() int64 { return Join(sh.s, sh.t, sh.band, func(si, ti int, _, _ []float64) { sink += si ^ ti }) }},
			{"probe-count", func() int64 { return prep.Probe(sh.s, nil) }},
		}
		for _, r := range runs {
			b.Run(sh.name+"/"+r.name, func(b *testing.B) {
				var pairs int64
				for i := 0; i < b.N; i++ {
					pairs += r.run()
				}
				b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
			})
		}
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
		prep := Prepare(s, t, band)
		var sink int
		runs := []struct {
			name string
			run  func() int64
		}{
			{"join", func() int64 { return Join(s, t, band, nil) }},
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
