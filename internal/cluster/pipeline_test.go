package cluster

import (
	"testing"

	"bandjoin/internal/data"
	"bandjoin/internal/wire"
)

// loadRows ships rows [lo, hi) of rel, with their row numbers as IDs, to
// partition 0 of transient job "j" as one Load announcing the partition's
// per-side counts and the upcoming band, as the coordinator's Loads do.
func loadRows(t *testing.T, w *Worker, side string, rel *data.Relation, lo, hi, expectS, expectT int, band data.Band) {
	t.Helper()
	ids := make([]int64, hi-lo)
	for i := range ids {
		ids[i] = int64(lo + i)
	}
	payload := wire.NewEncoder(wire.ModeAuto).EncodeChunk(rel.KeysRange(lo, hi), rel.Dims(), ids)
	args := &LoadArgs{JobID: "j", Side: side, Columnar: payload, ExpectS: expectS, ExpectT: expectT, Band: band}
	if err := w.Load(args, &LoadReply{}); err != nil {
		t.Fatalf("Load %s[%d:%d]: %v", side, lo, hi, err)
	}
}

// TestPipelinedPrepareAnyArrivalOrder: every data Load carries its partition's
// per-side counts, so a worker prepares a transient partition in the
// background exactly once, when its last row arrives — whether S came first, T
// came first or the two interleaved, and when one side is empty — and the join
// then returns exactly the nested loop's pairs.
func TestPipelinedPrepareAnyArrivalOrder(t *testing.T) {
	s, tt := decimalPair(2, 100, 67)
	band := data.Symmetric(0.05, 0.05)
	empty := data.NewRelation("empty", 2)
	const chunk = 30
	type load struct {
		side   string
		lo, hi int
	}
	chunks := func(side string, n int) (out []load) {
		for lo := 0; lo < n; lo += chunk {
			out = append(out, load{side, lo, min(lo+chunk, n)})
		}
		return out
	}
	sChunks, tChunks := chunks("S", s.Len()), chunks("T", tt.Len())
	var interleaved []load
	for i := range sChunks {
		interleaved = append(interleaved, sChunks[i], tChunks[i])
	}
	for _, tc := range []struct {
		name  string
		s, t  *data.Relation
		loads []load
	}{
		{"S-first", s, tt, append(append([]load(nil), sChunks...), tChunks...)},
		{"T-first", s, tt, append(append([]load(nil), tChunks...), sChunks...)},
		{"interleaved", s, tt, interleaved},
		{"empty-T", s, empty, sChunks},
		{"empty-S", empty, tt, tChunks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorker("w")
			for _, l := range tc.loads {
				rel := tc.s
				if l.side == "T" {
					rel = tc.t
				}
				loadRows(t, w, l.side, rel, l.lo, l.hi, tc.s.Len(), tc.t.Len(), band)
			}
			w.inflight.Wait() // the background prepare, if one started
			if n := w.m.pipelinedPreps.Value(); n != 1 {
				t.Fatalf("%d pipelined prepares, want 1", n)
			}
			checkWorkerJoin(t, w, tc.s, tc.t, band)
		})
	}
}

// TestLoadAfterPipelinedPrepareDropsGrid is the regression test for a silent
// wrong answer: rows that land on a transient partition after its background
// structure was built were missed by the join, which probed the stale
// structure. Load is unvalidated network input, so a Load beyond the counts it
// announced must drop the structure and the join build over all the rows.
func TestLoadAfterPipelinedPrepareDropsGrid(t *testing.T) {
	s, tt := decimalPair(2, 80, 71)
	s = s.Slice("S", 0, 40)
	band := data.Symmetric(0.1, 0.1)
	w := NewWorker("w")
	loadRows(t, w, "S", s, 0, 40, 40, 40, band)
	loadRows(t, w, "T", tt, 0, 40, 40, 40, band)
	w.inflight.Wait()
	if n := w.m.pipelinedPreps.Value(); n != 1 {
		t.Fatalf("%d pipelined prepares after the announced rows, want 1", n)
	}
	loadRows(t, w, "T", tt, 40, 80, 40, 40, band)

	if len(definitionPairs(s, tt.Slice("T", 0, 40), band)) == len(definitionPairs(s, tt, band)) {
		t.Fatal("the late T rows join nothing; the test stages no wrong answer")
	}
	checkWorkerJoin(t, w, s, tt, band)
}

// TestLoadAfterPipelinedPrepareKeepsGridForS: late rows on the S side follow
// the delta rule of the retained partitions — the grid, built over T, stays and
// probes them as an unresolved tail — and the join still returns exactly the
// nested loop's pairs over every row.
func TestLoadAfterPipelinedPrepareKeepsGridForS(t *testing.T) {
	s, tt := decimalPair(2, 80, 73)
	tt = tt.Slice("T", 0, 40)
	band := data.Symmetric(0.1, 0.1)
	w := NewWorker("w")
	loadRows(t, w, "S", s, 0, 40, 40, 40, band)
	loadRows(t, w, "T", tt, 0, 40, 40, 40, band)
	w.inflight.Wait()
	if n := w.m.pipelinedPreps.Value(); n != 1 {
		t.Fatalf("%d pipelined prepares after the announced rows, want 1", n)
	}
	loadRows(t, w, "S", s, 40, 80, 40, 40, band)

	if len(definitionPairs(s.Slice("S", 0, 40), tt, band)) == len(definitionPairs(s, tt, band)) {
		t.Fatal("the late S rows join nothing; the test stages no wrong answer")
	}
	checkWorkerJoin(t, w, s, tt, band)
}
