package localjoin

import (
	"sync"
	"testing"

	"bandjoin/internal/data"
)

type idxPair struct{ s, t int }

// emitInto returns an Emit that appends to *dst.
func emitInto(dst *[]idxPair) Emit {
	return func(si, ti int, _, _ []float64) {
		*dst = append(*dst, idxPair{si, ti})
	}
}

// skewedPair builds inputs where roughly half of S sits on a single point —
// the shape the morsel scheduler exists for: one partition (or here, one
// probe range) holds a disproportionate share of the matches.
func skewedPair(n, d int, eps float64, seed int64) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(d, 1.5, n, seed)
	point := make([]float64, d)
	for i := range point {
		point[i] = 0.5
	}
	sk := data.NewRelation("s", d)
	for i := 0; i < s.Len(); i++ {
		if i%2 == 0 {
			sk.Append(point...)
		} else {
			sk.Append(s.Key(i)...)
		}
	}
	return sk, t, data.Uniform(d, eps)
}

// TestJoinRangeConcatenationMatchesJoin pins the RangeJoiner contract: running
// consecutive ranges and concatenating the emissions must reproduce the plain
// Join bit-identically — same pairs, same order, same count — for every range
// granularity, including degenerate 1-row morsels.
func TestJoinRangeConcatenationMatchesJoin(t *testing.T) {
	cases := map[string]func() (*data.Relation, *data.Relation, data.Band){
		"pareto": func() (*data.Relation, *data.Relation, data.Band) { return makePair(350, 2, 0.1, 3) },
		"skewed": func() (*data.Relation, *data.Relation, data.Band) { return skewedPair(350, 2, 0.05, 9) },
	}
	for caseName, mk := range cases {
		s, tt, band := mk()
		// Every algorithm must stripe.
		for _, alg := range []Algorithm{NestedLoop{}, SortProbe{}, GridSortScan{}, EpsGrid{}, Auto{}} {
			rj, ok := alg.(RangeJoiner)
			if !ok {
				t.Errorf("%s does not implement RangeJoiner", alg.Name())
				continue
			}
			var plain []idxPair
			wantCount := alg.Join(s, tt, band, emitInto(&plain))
			if wantCount == 0 {
				t.Fatalf("%s/%s: reference join empty; widen the band", caseName, alg.Name())
			}
			for _, step := range []int{1, 3, 17, 100, s.Len(), s.Len() + 7} {
				var got []idxPair
				var gotCount int64
				for lo := 0; lo < s.Len(); lo += step {
					hi := min(lo+step, s.Len())
					gotCount += rj.JoinRange(s, tt, band, lo, hi, emitInto(&got))
				}
				if gotCount != wantCount {
					t.Fatalf("%s/%s step %d: range count %d, plain %d", caseName, alg.Name(), step, gotCount, wantCount)
				}
				if len(got) != len(plain) {
					t.Fatalf("%s/%s step %d: %d pairs, plain %d", caseName, alg.Name(), step, len(got), len(plain))
				}
				for i := range plain {
					if got[i] != plain[i] {
						t.Fatalf("%s/%s step %d: pair %d = %v, plain %v", caseName, alg.Name(), step, i, got[i], plain[i])
					}
				}
			}
			// Empty and full ranges behave.
			if rj.JoinRange(s, tt, band, 0, 0, nil) != 0 {
				t.Errorf("%s: empty range emitted pairs", alg.Name())
			}
			if rj.JoinRange(s, tt, band, 0, s.Len(), nil) != wantCount {
				t.Errorf("%s: full range disagrees with Join", alg.Name())
			}
		}
	}
}

// TestProbeRangeConcatenationMatchesProbe pins the same contract on the
// prepared structures — the shared read-only form the morsel scheduler
// actually probes.
func TestProbeRangeConcatenationMatchesProbe(t *testing.T) {
	s, tt, band := skewedPair(400, 3, 0.15, 7)
	for _, alg := range []Algorithm{Auto{}, SortProbe{}, GridSortScan{}, EpsGrid{}} {
		prep := Prepare(alg, s, tt, band)
		if prep == nil {
			t.Fatalf("%s: no prepared form", alg.Name())
		}
		rp, ok := prep.(RangeProber)
		if !ok {
			t.Fatalf("%s: prepared form does not implement RangeProber", alg.Name())
		}
		var plain []idxPair
		wantCount := prep.Probe(s, emitInto(&plain))
		if wantCount == 0 {
			t.Fatalf("%s: reference probe empty; widen the band", alg.Name())
		}
		for _, step := range []int{1, 5, 64, s.Len()} {
			var got []idxPair
			var gotCount int64
			for lo := 0; lo < s.Len(); lo += step {
				hi := min(lo+step, s.Len())
				gotCount += rp.ProbeRange(s, lo, hi, emitInto(&got))
			}
			if gotCount != wantCount {
				t.Fatalf("%s step %d: range count %d, plain %d", alg.Name(), step, gotCount, wantCount)
			}
			for i := range plain {
				if got[i] != plain[i] {
					t.Fatalf("%s step %d: pair %d = %v, plain %v", alg.Name(), step, i, got[i], plain[i])
				}
			}
		}
	}
}

// TestConcurrentProbeRangeShared drives many goroutines through ONE shared
// prepared structure concurrently (run under -race via the repo's race suite):
// each goroutine owns an interleaved subset of the stripes, and reassembling
// the per-stripe buffers in stripe order must reproduce the sequential probe
// exactly. This is precisely the access pattern of the morsel worker pool.
func TestConcurrentProbeRangeShared(t *testing.T) {
	s, tt, band := skewedPair(600, 2, 0.1, 21)
	const goroutines = 8
	const step = 37
	for _, alg := range []Algorithm{Auto{}, SortProbe{}, GridSortScan{}, EpsGrid{}} {
		prep := Prepare(alg, s, tt, band)
		rp := prep.(RangeProber)
		var plain []idxPair
		wantCount := prep.Probe(s, emitInto(&plain))

		nStripes := (s.Len() + step - 1) / step
		buffers := make([][]idxPair, nStripes)
		counts := make([]int64, nStripes)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for stripe := g; stripe < nStripes; stripe += goroutines {
					lo := stripe * step
					hi := min(lo+step, s.Len())
					counts[stripe] = rp.ProbeRange(s, lo, hi, emitInto(&buffers[stripe]))
				}
			}(g)
		}
		wg.Wait()

		var got []idxPair
		var gotCount int64
		for i := range buffers {
			got = append(got, buffers[i]...)
			gotCount += counts[i]
		}
		if gotCount != wantCount {
			t.Fatalf("%s: concurrent count %d, sequential %d", alg.Name(), gotCount, wantCount)
		}
		if len(got) != len(plain) {
			t.Fatalf("%s: %d pairs, sequential %d", alg.Name(), len(got), len(plain))
		}
		for i := range plain {
			if got[i] != plain[i] {
				t.Fatalf("%s: pair %d = %v, sequential %v", alg.Name(), i, got[i], plain[i])
			}
		}
	}
}

// TestPrepareOnceNilOnlyForTheNestedLoop pins what the morsel scheduler's
// builds rely on when they stripe a partition without a structure through
// JoinRange: on non-empty sides PrepareOnce returns a range prober for every
// algorithm with a structure, and nil only for the nested loop — NestedLoop
// itself, and Auto exactly when its dispatch picks the nested loop — whose
// JoinRange has nothing to rebuild per range.
func TestPrepareOnceNilOnlyForTheNestedLoop(t *testing.T) {
	small, smallT := data.ParetoPair(2, 1.5, autoNestedLoopMax, 3)
	s, tt := data.ParetoPair(2, 1.5, 4*autoNestedLoopMax, 3)
	s1, t1 := data.ParetoPair(1, 1.5, 4*autoNestedLoopMax, 3)
	band, band1 := data.Uniform(2, 0.1), data.Uniform(1, 0.1)
	if PrepareOnce(NestedLoop{}, s, tt, band) != nil || PrepareOnce(Auto{}, small, smallT, band) != nil {
		t.Error("the nested loop, chosen or by Auto, has a structure")
	}
	for _, alg := range []Algorithm{Auto{}, SortProbe{}, GridSortScan{}, EpsGrid{}} {
		for _, in := range [][2]*data.Relation{{s, tt}, {s1, t1}} {
			b := band
			if in[0].Dims() == 1 {
				b = band1
			}
			if _, ok := PrepareOnce(alg, in[0], in[1], b).(RangeProber); !ok {
				t.Errorf("%s, %d-d: PrepareOnce returned no range prober", alg.Name(), in[0].Dims())
			}
		}
	}
}
