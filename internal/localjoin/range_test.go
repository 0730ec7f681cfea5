package localjoin

import (
	"slices"
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

// stripes runs run over consecutive ranges of [0, n) of the given step and
// returns the concatenated emissions and the summed count.
func stripes(n, step int, run func(lo, hi int, emit Emit) int64) ([]idxPair, int64) {
	var got []idxPair
	var count int64
	for lo := 0; lo < n; lo += step {
		count += run(lo, min(lo+step, n), emitInto(&got))
	}
	return got, count
}

// TestJoinRangeConcatenationMatchesJoin pins the range contract of the two
// forms the morsel scheduler stripes a partition through — the nested loop's
// JoinRange, and ProbeRange over a PrepareOnce grid: running consecutive
// ranges and concatenating the emissions must reproduce the plain join
// bit-identically — same pairs, same order, same count — for every range
// granularity, including degenerate 1-row morsels.
func TestJoinRangeConcatenationMatchesJoin(t *testing.T) {
	cases := bandShapes()
	cases["skewed"] = func() (*data.Relation, *data.Relation, data.Band) { return skewedPair(350, 2, 0.05, 9) }
	for caseName, mk := range cases {
		s, tt, band := mk()
		once := PrepareOnce(s, tt, band)
		forms := map[string]func(lo, hi int, emit Emit) int64{
			"nested-loop":  func(lo, hi int, emit Emit) int64 { return NestedLoop{}.JoinRange(s, tt, band, lo, hi, emit) },
			"prepare-once": func(lo, hi int, emit Emit) int64 { return once.ProbeRange(s, lo, hi, emit) },
		}
		var plain []idxPair
		wantCount := Join(s, tt, band, emitInto(&plain))
		if wantCount == 0 {
			t.Fatalf("%s: reference join empty; widen the band", caseName)
		}
		for formName, run := range forms {
			want, _ := stripes(s.Len(), s.Len(), run)
			if formName == "prepare-once" && !slices.Equal(want, plain) {
				t.Fatalf("%s: the one-shot Join emits other pairs than its structure's probe", caseName)
			}
			for _, step := range []int{1, 3, 17, 100, s.Len() + 7} {
				got, gotCount := stripes(s.Len(), step, run)
				if gotCount != wantCount {
					t.Fatalf("%s/%s step %d: range count %d, plain %d", caseName, formName, step, gotCount, wantCount)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%s step %d: %d pairs, plain %d (or in another order)", caseName, formName, step, len(got), len(want))
				}
			}
			if run(0, 0, nil) != 0 {
				t.Errorf("%s/%s: empty range emitted pairs", caseName, formName)
			}
		}
		Release(once)
	}
}

// TestProbeRangeConcatenationMatchesProbe pins the same contract on the
// structures Prepare builds — the shared read-only form the morsel scheduler
// probes for retained partitions.
func TestProbeRangeConcatenationMatchesProbe(t *testing.T) {
	cases := bandShapes()
	cases["skewed"] = func() (*data.Relation, *data.Relation, data.Band) { return skewedPair(400, 3, 0.15, 7) }
	for caseName, mk := range cases {
		s, tt, band := mk()
		prep := Prepare(s, tt, band)
		if prep == nil {
			t.Fatalf("%s: no structure", caseName)
		}
		var plain []idxPair
		wantCount := prep.Probe(s, emitInto(&plain))
		if wantCount == 0 {
			t.Fatalf("%s: reference probe empty; widen the band", caseName)
		}
		for _, step := range []int{1, 5, 64, s.Len()} {
			got, gotCount := stripes(s.Len(), step, func(lo, hi int, emit Emit) int64 { return prep.ProbeRange(s, lo, hi, emit) })
			if gotCount != wantCount || !slices.Equal(got, plain) {
				t.Fatalf("%s step %d: range count %d, plain %d (or other pairs)", caseName, step, gotCount, wantCount)
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
	const goroutines = 8
	const step = 37
	cases := bandShapes()
	cases["skewed"] = func() (*data.Relation, *data.Relation, data.Band) { return skewedPair(600, 2, 0.1, 21) }
	for caseName, mk := range cases {
		s, tt, band := mk()
		prep := Prepare(s, tt, band)
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
					counts[stripe] = prep.ProbeRange(s, lo, hi, emitInto(&buffers[stripe]))
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
			t.Fatalf("%s: concurrent count %d, sequential %d", caseName, gotCount, wantCount)
		}
		if !slices.Equal(got, plain) {
			t.Fatalf("%s: %d pairs, sequential %d (or in another order)", caseName, len(got), len(plain))
		}
	}
}

// TestPrepareOnceNilOnlyForTheNestedLoop pins what the morsel scheduler's
// builds rely on when they stripe a partition without a structure through
// NestedLoop.JoinRange: PrepareOnce and Prepare return nil exactly when a
// side is empty or holds at most nestedLoopMax rows, and a grid otherwise, for
// every band shape.
func TestPrepareOnceNilOnlyForTheNestedLoop(t *testing.T) {
	small, smallT := data.ParetoPair(2, 1.5, nestedLoopMax, 3)
	if PrepareOnce(small, smallT, data.Uniform(2, 0.1)) != nil || Prepare(small, smallT, data.Uniform(2, 0.1)) != nil {
		t.Error("a partition of nestedLoopMax rows has a structure")
	}
	for shape, mk := range bandShapes() {
		s, tt, band := mk()
		if PrepareOnce(s, tt, band) == nil || Prepare(s, tt, band) == nil {
			t.Errorf("%s: no structure for %d x %d rows", shape, s.Len(), tt.Len())
		}
		if PrepareOnce(s.Slice("s", 0, nestedLoopMax), tt, band) != nil {
			t.Errorf("%s: a structure for an S side of nestedLoopMax rows", shape)
		}
	}
}
