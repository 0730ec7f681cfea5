package localjoin

import (
	"fmt"
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
	s, tt, band := benchInputs(5_000, 3)
	alg := EpsGrid{}
	alg.Join(s, tt, band, nil)
	avg := testing.AllocsPerRun(10, func() {
		alg.Join(s, tt, band, nil)
	})
	if avg > 0 {
		t.Errorf("EpsGrid steady state allocates %.1f times per join, want 0", avg)
	}
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
