package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

// TestPresortIsTheStableSort: the seal's presort (sortByDim0) orders both
// sides by dimension 0 like a stable comparison sort with NaN last — −0 and +0 tie, rows that tie keep
// their order — and every tuple ID travels with its row.
func TestPresortIsTheStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	build := func(n int) (*data.Relation, []int64) {
		r := data.NewRelationCapacity("r", 3, n)
		ids := make([]int64, n)
		for i := range ids {
			v := float64(rng.Intn(9)-4) / 2 // few values: ties everywhere
			switch rng.Intn(6) {
			case 0:
				v = specials[rng.Intn(len(specials))]
			case 1:
				v = rng.NormFloat64() * 1e6
			}
			r.Append(v, float64(i), rng.Float64())
			ids[i] = int64(1000 + i)
		}
		return r, ids
	}
	for _, n := range []int{0, 1, 2, 5000} {
		s, sIDs := build(n)
		tt, tIDs := build(n / 2)
		sortedS, sortedSIDs := sortByDim0(s, sIDs, 0)
		sortedT, sortedTIDs := sortByDim0(tt, tIDs, 0)
		for _, side := range []struct {
			name     string
			in, out  *data.Relation
			ids, got []int64
		}{{"S", s, sortedS, sIDs, sortedSIDs}, {"T", tt, sortedT, tIDs, sortedTIDs}} {
			want := make([]int, side.in.Len())
			for i := range want {
				want[i] = i
			}
			slices.SortStableFunc(want, func(a, b int) int {
				x, y := side.in.KeyAt(a, 0), side.in.KeyAt(b, 0)
				switch {
				case x < y || (y != y && x == x):
					return -1
				case x > y || (x != x && y == y):
					return 1
				}
				return 0
			})
			if side.out.Len() != len(want) || len(side.got) != len(want) {
				t.Fatalf("n=%d %s: %d rows and %d ids out of %d", n, side.name, side.out.Len(), len(side.got), len(want))
			}
			for pos, from := range want {
				for d := 0; d < 3; d++ {
					if math.Float64bits(side.out.KeyAt(pos, d)) != math.Float64bits(side.in.KeyAt(from, d)) {
						t.Fatalf("n=%d %s: row %d is not input row %d, the stable sort's", n, side.name, pos, from)
					}
				}
				if side.got[pos] != side.ids[from] {
					t.Fatalf("n=%d %s: row %d carries id %d, its row had %d", n, side.name, pos, side.got[pos], side.ids[from])
				}
			}
		}
	}
}

// skewedPair is the serving workload's partition shape: 2-d Pareto sides, 5 %
// of S on one point inside the dense corner.
func skewedPair(n int) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(2, 1.5, n, 42)
	for i := 0; i < n; i += 20 {
		copy(s.Key(i), []float64{1.05, 1.05})
	}
	return s, t, data.Uniform(2, 0.02)
}

// tailedPartition returns a partition as a retained one stands after appends:
// the first n−tail rows of S presorted and prepared with T, the last tail rows
// appended behind them in arrival order.
func tailedPartition(s, t *data.Relation, band data.Band, tail int) (*PartitionInput, *localjoin.EpsGrid) {
	n := s.Len()
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	sealed := &PartitionInput{}
	sealed.S, sealed.SIDs = sortByDim0(s.Slice("s", 0, n-tail), ids[:n-tail], 0)
	sealed.T, sealed.TIDs = sortByDim0(t, ids[:t.Len()], 0)
	prep := localjoin.Prepare(sealed.S, sealed.T, band)
	sealed.S = sealed.S.Extend(s.Slice("d", n-tail, n))
	sealed.SIDs = append(sealed.SIDs, ids[n-tail:]...)
	return sealed, prep
}

func probePairs(prep *localjoin.EpsGrid, p *PartitionInput, sIDs []int64) []Pair {
	var pairs []Pair
	prep.Probe(p.S, func(si, ti int, _, _ []float64) {
		pairs = append(pairs, Pair{S: sIDs[si], T: p.TIDs[ti]})
	})
	slices.SortFunc(pairs, func(a, b Pair) int {
		if a.S != b.S {
			return int(a.S - b.S)
		}
		return int(a.T - b.T)
	})
	return pairs
}

// TestFoldS: the folded S, its IDs and the new structure answer together like
// the unfolded ones did; S comes out in dimension-0 order with nothing left
// unresolved and room for the next tail; the inputs are untouched (a probe
// still running on them stays right).
// And the three do belong together: the old structure over the folded S gives
// other pairs — which is what both planes' locking is there to prevent. It runs
// on the serving shape and on its exact-key twin, a zero width on dimension 0,
// which folds like any other band.
func TestFoldS(t *testing.T) {
	for _, shape := range []string{"2d", "zero-dim0"} {
		s, tt, band := skewedPair(6000)
		if shape == "zero-dim0" {
			s, tt, band = exactDim0(s, tt, band)
		}
		t.Run(shape, func(t *testing.T) { testFoldS(t, s, tt, band) })
	}
}

// exactDim0 puts dimension 0 of s and t on a lattice of integers (⌊50·x⌋) and
// gives band width zero there.
func exactDim0(s, t *data.Relation, band data.Band) (*data.Relation, *data.Relation, data.Band) {
	for _, r := range []*data.Relation{s, t} {
		for i := 0; i < r.Len(); i++ {
			r.Key(i)[0] = math.Floor(50 * r.Key(i)[0])
		}
	}
	low, high := slices.Clone(band.Low), slices.Clone(band.High)
	low[0], high[0] = 0, 0
	return s, t, data.Asymmetric(low, high)
}

func testFoldS(t *testing.T, s, tt *data.Relation, band data.Band) {
	p, prep := tailedPartition(s, tt, band, 600)
	// The rule: more than a sixteenth of the rows before them, 17·k > 6000.
	for tail, want := range map[int]bool{0: false, 352: false, 353: true, 600: true} {
		if q, qprep := tailedPartition(s, tt, band, tail); NeedsFold(q.S, qprep) != want {
			t.Errorf("tail of %d rows behind %d: NeedsFold = %v", tail, 6000-tail, !want)
		}
	}
	want := probePairs(prep, p, p.SIDs)
	if len(want) == 0 {
		t.Fatal("no pairs; the inputs exercise nothing")
	}
	before := p.S.Clone("")
	beforeIDs := slices.Clone(p.SIDs)

	fs, fIDs, fprep, took := FoldS(p.S, p.SIDs, prep)
	if took <= 0 {
		t.Errorf("fold took %v", took)
	}
	folded := &PartitionInput{S: fs, SIDs: fIDs, T: p.T, TIDs: p.TIDs}
	if got := probePairs(fprep, folded, fIDs); !slices.Equal(got, want) {
		t.Fatalf("folded partition: %d pairs, before the fold %d (or other ones)", len(got), len(want))
	}
	for i := 1; i < fs.Len(); i++ {
		if fs.KeyAt(i-1, 0) > fs.KeyAt(i, 0) {
			t.Fatalf("folded S is out of dimension-0 order at row %d", i)
		}
	}
	if NeedsFold(fs, fprep) || localjoin.UnresolvedS(fprep, fs) != 0 {
		t.Errorf("folded partition has %d unresolved rows and needs a fold again", localjoin.UnresolvedS(fprep, fs))
	}
	if fs.Cap() < fs.Len()+fs.Len()/foldTail || cap(fIDs) < fs.Cap() {
		t.Errorf("folded S of %d rows has room for %d and %d ids: the next tail reallocates it", fs.Len(), fs.Cap(), cap(fIDs))
	}
	if fprep == prep {
		t.Error("the fold returned the structure it was given")
	}

	if !slices.Equal(p.S.KeysRange(0, p.S.Len()), before.KeysRange(0, before.Len())) || !slices.Equal(p.SIDs, beforeIDs) {
		t.Fatal("the fold modified its inputs")
	}
	if got := probePairs(prep, p, p.SIDs); !slices.Equal(got, want) {
		t.Fatal("the structure from before the fold no longer answers for the S from before the fold")
	}
	if got := probePairs(prep, folded, fIDs); slices.Equal(got, want) {
		t.Error("the old structure answers for the folded S: this input cannot show a stale structure")
	}

	if NeedsFold(p.S, nil) {
		t.Error("a partition without a prepared structure asks for a fold")
	}
}

// BenchmarkPresort times the seal-time presort of one large partition (both
// sides), as ns/row.
func BenchmarkPresort(b *testing.B) {
	s, t := data.ParetoPair(2, 1.5, 600_000, 42)
	ids := make([]int64, s.Len())
	var sinkS, sinkT *data.Relation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkS, _ = sortByDim0(s, ids, 0)
		sinkT, _ = sortByDim0(t, ids, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(sinkS.Len()+sinkT.Len())), "ns/row")
}

// BenchmarkAppendTail times the prepared probe of a partition whose last
// 0 / 5 / 10 / 20 % of S were appended after the seal — unsorted, unresolved —
// and the same partition after FoldS, as ns per S row; and the fold itself. It
// is what foldTail is measured with at the kernel level.
func BenchmarkAppendTail(b *testing.B) {
	s, t, band := skewedPair(100_000)
	var sink int64
	for _, pct := range []int{0, 5, 10, 20} {
		p, prep := tailedPartition(s, t, band, s.Len()*pct/100)
		probe := func(prep *localjoin.EpsGrid, s *data.Relation) func(*testing.B) {
			return func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sink += prep.Probe(s, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.Len()), "ns/row")
			}
		}
		b.Run(fmt.Sprintf("tail=%d%%/before", pct), probe(prep, p.S))
		if pct == 0 {
			continue
		}
		var fs *data.Relation
		var fprep *localjoin.EpsGrid
		b.Run(fmt.Sprintf("tail=%d%%/fold", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs, _, fprep, _ = FoldS(p.S, p.SIDs, prep)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.S.Len()), "ns/row")
		})
		b.Run(fmt.Sprintf("tail=%d%%/after", pct), probe(fprep, fs))
	}
}
