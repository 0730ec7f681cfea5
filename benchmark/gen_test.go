package main

import (
	"hash/fnv"
	"math"
	"testing"

	"bandjoin"
)

// checksum fingerprints a relation's exact key bits.
func checksum(r *bandjoin.Relation) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Key(i) {
			u := math.Float64bits(v)
			for k := range b {
				b[k] = byte(u >> (8 * k))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// The same seed must give bit-identical inputs and another seed different
// ones, for every workload and for the appended batches.
func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.generate(2000, 5), w.generate(2000, 5), w.generate(2000, 6)
		if a.s.Len() != 2000 || a.t.Len() != 2000 {
			t.Errorf("%s: generated %d x %d rows, want 2000 x 2000", w.name, a.s.Len(), a.t.Len())
		}
		if checksum(a.s) != checksum(b.s) || checksum(a.t) != checksum(b.t) {
			t.Errorf("%s: seed 5 twice gave different relations", w.name)
		}
		if checksum(a.s) == checksum(c.s) || checksum(a.t) == checksum(c.t) {
			t.Errorf("%s: seeds 5 and 6 gave the same relation", w.name)
		}
		if checksum(a.s) == checksum(a.t) {
			t.Errorf("%s: S and T are the same relation", w.name)
		}
	}
	if checksum(appendBatch(4000, 5, 3)) != checksum(appendBatch(4000, 5, 3)) {
		t.Error("append batch (seed 5, k 3) is not reproducible")
	}
	if checksum(appendBatch(4000, 5, 3)) == checksum(appendBatch(4000, 5, 4)) ||
		checksum(appendBatch(4000, 5, 3)) == checksum(appendBatch(4000, 6, 3)) {
		t.Error("append batches repeat across k or seed")
	}
	if got := appendBatch(4000, 5, 0).Len(); got != 10 {
		t.Errorf("a 0.25%% batch of 4000 rows has %d rows, want 10", got)
	}
}

func TestPlanSweepBandsNeverRepeat(t *testing.T) {
	seen := map[float64]bool{}
	for k := 0; k < 500; k++ {
		eps := planSweepBand(k).Low[0]
		if eps < 0.16 || eps >= 0.18 {
			t.Fatalf("band %d has width %v outside [0.16, 0.18)", k, eps)
		}
		if seen[eps] {
			t.Fatalf("band %d repeats width %v", k, eps)
		}
		seen[eps] = true
	}
}
