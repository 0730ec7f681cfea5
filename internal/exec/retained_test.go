package exec

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

// latticeRows returns n 2-d rows on a coarse lattice (plenty of matches and
// ties) with IDs from, from+1, ….
func latticeRows(rng *rand.Rand, n int, from int64) (*data.Relation, []int64) {
	r := data.NewRelationCapacity("r", 2, n)
	ids := make([]int64, n)
	for i := range ids {
		r.Append(float64(rng.Intn(40))/8, float64(rng.Intn(12))/4)
		ids[i] = from + int64(i)
	}
	return r, ids
}

// appendRows appends rows and their IDs to one side of p.
func appendRows(p *Partition, toT bool, rel *data.Relation, ids []int64) {
	p.AppendInput(map[bool]*PartitionInput{
		false: {S: rel, SIDs: ids, T: data.NewRelation("t", 2)},
		true:  {S: data.NewRelation("s", 2), T: rel, TIDs: ids},
	}[toT])
}

// probedPairs refreshes p for band and joins it under LockForProbe
// (JoinPartitions, in morsels of 7 rows), and returns the pairs as tuple IDs
// together with the nested loop's over the rows the probe held, and the
// partition's record.
func probedPairs(t *testing.T, p *Partition, band data.Band) (got, want []Pair, rec PartitionStats) {
	t.Helper()
	jobs, recs, held, unlock := LockForProbe([]*Partition{p}, band, func(int, int64, int64) {}, 2)
	defer unlock()
	in := held[0]
	if _, err := JoinPartitions(context.Background(), recs, jobs, func(int) ([]int64, []int64) { return in.SIDs, in.TIDs }, 7, true); err != nil {
		t.Errorf("JoinPartitions: %v", err) // t.Fatal is for the test's own goroutine
		return nil, nil, rec
	}
	rec = recs[0]
	for k, s := range rec.PairS {
		got = append(got, Pair{S: s, T: rec.PairT[k]})
	}
	localjoin.NestedLoop{}.Join(in.S, in.T, band, func(si, ti int, _, _ []float64) {
		want = append(want, Pair{S: in.SIDs[si], T: in.TIDs[ti]})
	})
	for _, pairs := range [][]Pair{got, want} {
		slices.SortFunc(pairs, func(a, b Pair) int {
			if a.S != b.S {
				return int(a.S - b.S)
			}
			return int(a.T - b.T)
		})
	}
	return got, want, rec
}

// dim0Sorted reports whether a relation's rows ascend on dimension 0.
func dim0Sorted(r *data.Relation) bool {
	for i := 1; i < r.Len(); i++ {
		if r.KeyAt(i, 0) < r.KeyAt(i-1, 0) {
			return false
		}
	}
	return true
}

// TestPartitionLifecycle takes one partition through each way its structure
// can change: sealed, then S rows appended below and above the fold threshold
// (1/16 of the sealed rows), T rows appended, the band changed, and a
// partition sealed small enough for the nested loop that an append to S takes
// past it. The refresh before the next probe must do what the rules say —
// nothing, a fold or a rebuild — leave rebuilt rows in dimension-0 order, and
// the probe must answer exactly the nested loop's pairs; a second refresh then
// has nothing left to do.
func TestPartitionLifecycle(t *testing.T) {
	band := data.Symmetric(0.3, 0.3)
	for _, tc := range []struct {
		name             string
		sRows, tRows     int // at the seal
		appendS, appendT int
		query            data.Band
		want             string
	}{
		{"seal", 400, 300, 0, 0, band, "none"},
		{"S below the fold threshold", 400, 300, 20, 0, band, "none"},
		{"S above the fold threshold", 400, 300, 30, 0, band, "fold"},
		{"T appended", 400, 300, 0, 20, band, "rebuild"},
		{"band changed", 400, 300, 0, 0, data.Band{Low: []float64{0.5, 0}, High: []float64{0.1, 0.25}}, "rebuild"},
		{"nested loop outgrown", 20, 300, 30, 0, band, "rebuild"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			s, sIDs := latticeRows(rng, tc.sRows, 0)
			tt, tIDs := latticeRows(rng, tc.tRows, 0)
			p := PartitionOf(&PartitionInput{S: s, SIDs: sIDs, T: tt, TIDs: tIDs})
			p.Seal(band)
			if !dim0Sorted(p.s) || !dim0Sorted(p.t) {
				t.Fatal("sealed rows are not in dimension-0 order")
			}
			if nested := tc.sRows <= 32; (p.prep == nil) != nested {
				t.Fatalf("sealed with %d S rows: structure %v, want one: %v", tc.sRows, p.prep != nil, !nested)
			}
			if tc.appendS > 0 {
				rel, ids := latticeRows(rng, tc.appendS, int64(tc.sRows))
				appendRows(p, false, rel, ids)
			}
			if tc.appendT > 0 {
				rel, ids := latticeRows(rng, tc.appendT, int64(tc.tRows))
				appendRows(p, true, rel, ids)
			}

			got, want, rec := probedPairs(t, p, tc.query)
			rebuild, fold := rec.RebuildNanos, rec.FoldNanos
			outcome := map[[2]bool]string{{false, false}: "none", {true, false}: "rebuild", {false, true}: "fold", {true, true}: "both"}[[2]bool{rebuild > 0, fold > 0}]
			if outcome != tc.want {
				t.Errorf("refresh took %d ns rebuilding and %d ns folding, want %s", rebuild, fold, tc.want)
			}
			if tc.want == "rebuild" && (!dim0Sorted(p.s) || !dim0Sorted(p.t)) {
				t.Error("rebuilt rows are not in dimension-0 order")
			}
			if tc.want == "rebuild" && p.prep == nil {
				t.Error("the rebuild left the partition on the nested loop")
			}
			if len(want) == 0 {
				t.Fatal("the nested loop has no pairs; the case exercises nothing")
			}
			if !slices.Equal(got, want) {
				t.Errorf("probe found %d pairs, the nested loop %d", len(got), len(want))
			}
			if r, f := p.Refresh(tc.query); r != 0 || f != 0 {
				t.Errorf("a second refresh took %d ns rebuilding and %d ns folding, want nothing", r, f)
			}
		})
	}
}

// TestPartitionConcurrentAppendRefreshProbe appends to both sides of one
// partition while probers refresh and probe it (run under -race, as CI does).
// Whatever rows a probe finds, its pairs must be the nested loop's over them.
func TestPartitionConcurrentAppendRefreshProbe(t *testing.T) {
	band := data.Symmetric(0.3, 0.3)
	rng := rand.New(rand.NewSource(5))
	s, sIDs := latticeRows(rng, 300, 0)
	tt, tIDs := latticeRows(rng, 200, 0)
	p := PartitionOf(&PartitionInput{S: s, SIDs: sIDs, T: tt, TIDs: tIDs})
	p.Seal(band)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, want, _ := probedPairs(t, p, band); !slices.Equal(got, want) {
					t.Errorf("probe found %d pairs, the nested loop %d over the same rows", len(got), len(want))
					return
				}
			}
		}()
	}
	nextS, nextT := int64(300), int64(200)
	for batch := 0; batch < 12; batch++ {
		toT := batch%4 == 3
		rel, ids := latticeRows(rng, 40, nextS)
		if toT {
			rel, ids = latticeRows(rng, 20, nextT)
			nextT += 20
		} else {
			nextS += 40
		}
		appendRows(p, toT, rel, ids)
	}
	close(stop)
	wg.Wait()
	if got, want, _ := probedPairs(t, p, band); !slices.Equal(got, want) || p.s.Len() != int(nextS) || p.t.Len() != int(nextT) {
		t.Errorf("after the appends: %d S and %d T rows, %d pairs, want %d, %d and %d", p.s.Len(), p.t.Len(), len(got), nextS, nextT, len(want))
	}
}
