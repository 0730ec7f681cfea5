package cluster

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/exec"
)

// foldFixture is one worker holding a sealed retained plan "plan" whose
// partitions each got the same 2-d T (so the ε-grid serves them) and their own
// slice of S, with further S batches to append and, per number of appended
// batches, the pairs the definition gives partition 0.
type foldFixture struct {
	w       *Worker
	band    data.Band
	t       *data.Relation
	base    int                  // S rows of a partition at the seal
	batches []*data.Relation     // appended to partition 0, in order
	want    []map[exec.Pair]bool // want[k]: partition 0's pairs after k batches
}

func foldPoints(rng *rand.Rand, name string, n int) *data.Relation {
	r := data.NewRelationCapacity(name, 2, n)
	for i := 0; i < n; i++ {
		// A coarse lattice: plenty of matches, ties and dense cells.
		r.Append(float64(rng.Intn(40))/4, float64(rng.Intn(12))/4)
	}
	return r
}

func seqIDs(from, n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(from + i)
	}
	return ids
}

// newFoldFixture ships partitions 0..parts-1 in one kept stream, which seals
// them. Every batch is more than a sixteenth of what precedes it, so each one
// makes a fold due.
func newFoldFixture(t *testing.T, parts, batches int) *foldFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	f := &foldFixture{w: NewWorker("fold"), band: data.Symmetric(0.3, 0.3), t: foldPoints(rng, "t", 400), base: 300}
	s := foldPoints(rng, "s", f.base)
	shipped := make([]testPart, parts)
	for pid := range shipped {
		shipped[pid] = testPart{pid: pid, s: s, t: f.t}
	}
	if _, err := ship(f.w, toPlan("plan", f.band), shipped...); err != nil {
		t.Fatalf("stream: %v", err)
	}
	grown := s.Clone("s")
	for k := 0; k <= batches; k++ {
		want := make(map[exec.Pair]bool)
		for _, p := range definitionPairs(grown, f.t, f.band) {
			want[p] = true
		}
		f.want = append(f.want, want)
		if k < batches {
			batch := foldPoints(rng, "d", grown.Len()/10)
			f.batches = append(f.batches, batch)
			grown.AppendRows(batch, 0, batch.Len())
		}
	}
	return f
}

// appendBatch ships batch k into partition 0 as a delta stream.
func (f *foldFixture) appendBatch(t *testing.T, k int) {
	t.Helper()
	from := f.base
	for _, b := range f.batches[:k] {
		from += b.Len()
	}
	b := f.batches[k]
	hdr := toPlan("plan", f.band)
	hdr.Delta = true
	if _, err := ship(f.w, hdr, testPart{s: b, sIDs: seqIDs(from, b.Len())}); err != nil {
		t.Errorf("delta stream: %v", err)
	}
}

// checkReply fails unless the reply's partition 0 holds exactly the pairs of
// the definition for the S rows it reports having joined.
func (f *foldFixture) checkReply(t *testing.T, what string, jr *JoinReply) {
	t.Helper()
	ps := jr.Partitions[0]
	k, rows := 0, f.base
	for ; rows < ps.InputS && k < len(f.batches); k++ {
		rows += f.batches[k].Len()
	}
	if ps.Partition != 0 || rows != ps.InputS {
		t.Errorf("%s: partition %d joined %d S rows, which is no whole number of batches", what, ps.Partition, ps.InputS)
		return
	}
	got := make(map[exec.Pair]bool, len(ps.PairS))
	for i := range ps.PairS {
		if p := (exec.Pair{S: ps.PairS[i], T: ps.PairT[i]}); f.want[k][p] {
			got[p] = true
		}
	}
	if len(got) != len(f.want[k]) || len(ps.PairS) != len(got) {
		t.Errorf("%s: %d pairs after %d batches, %d of them the definition's %d, each once: a structure met an S it was not resolved for",
			what, len(ps.PairS), k, len(got), len(f.want[k]))
	}
}

func (f *foldFixture) partition(pid int) *exec.Partition {
	pids, parts := f.w.retained.Get("plan").Partitions()
	return parts[slices.Index(pids, pid)]
}

// TestFoldBetweenJoinPhases stages the one interleaving a fold makes dangerous.
// A morsel Join first brings every partition's structure up to date, each
// under its own lock, and only then takes the read locks it probes under; in
// between, another query's fold may re-sort a partition's S and replace its
// structure. The cell lists of a structure are positional, so the Join must
// probe with the structure it finds under its read lock, never with one it
// saw earlier.
//
// The stage: Join A over partitions 0 and 1, with partition 1 write-locked by
// the test, so that A gets through partition 0's first phase (where it folds
// batch 0 — the fold counter tells when) and then waits. Batch 1 lands and a
// second query's first phase folds it in, re-sorting S. Partition 1 is released
// and A probes. A must answer for S with both batches; with the structure of
// its own fold it would pair rows of the new order with the old order's lists
// (exec's TestFoldS shows that this gives other pairs).
func TestFoldBetweenJoinPhases(t *testing.T) {
	f := newFoldFixture(t, 2, 2)
	p0, p1 := f.partition(0), f.partition(1)
	f.appendBatch(t, 0)

	// Hold partition 1's write lock: an append whose rows never come.
	locked, unlock := make(chan struct{}), make(chan struct{})
	go p1.Append(false, func(*data.Relation, *[]int64) error {
		close(locked)
		<-unlock
		return nil
	})
	<-locked
	var reply JoinReply
	done := make(chan error, 1)
	go func() {
		done <- f.w.Join(&JoinArgs{PlanID: "plan", Band: f.band, CollectPairs: true}, &reply)
	}()
	for deadline := time.Now().Add(10 * time.Second); f.w.m.folds.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(unlock)
			t.Fatal("Join A never folded partition 0")
		}
	}
	f.appendBatch(t, 1)
	if _, foldNanos := p0.Refresh(f.band); foldNanos == 0 {
		t.Error("the second query's first phase did not fold batch 1")
	}
	close(unlock)
	if err := <-done; err != nil {
		t.Fatalf("Join A: %v", err)
	}
	if got := reply.Partitions[0].InputS; got != f.base+f.batches[0].Len()+f.batches[1].Len() {
		t.Fatalf("Join A joined %d S rows: it did not wait for the stage", got)
	}
	f.checkReply(t, "Join A", &reply)
	if reply.Partitions[0].FoldNanos == 0 {
		t.Error("Join A folded partition 0 and does not report it")
	}
}

// TestFoldConcurrentJoinAppend runs Joins on both join paths against appends
// that each make a fold due on the same partition (run under -race, as CI
// does). Whatever prefix of the batches a Join finds, its pairs must be the
// definition's for exactly those rows.
func TestFoldConcurrentJoinAppend(t *testing.T) {
	const batches = 6
	f := newFoldFixture(t, 1, batches)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				var jr JoinReply
				args := &JoinArgs{PlanID: "plan", Band: f.band, CollectPairs: true}
				if (g+round)%3 == 0 {
					args.MorselRows = -1 // the per-partition path
				}
				if err := f.w.Join(args, &jr); err != nil {
					t.Errorf("Join: %v", err)
					return
				}
				f.checkReply(t, "concurrent Join", &jr)
			}
		}()
	}
	for k := 0; k < batches; k++ {
		f.appendBatch(t, k)
		var jr JoinReply
		if err := f.w.Join(&JoinArgs{PlanID: "plan", Band: f.band, CollectPairs: true}, &jr); err != nil {
			t.Fatalf("Join: %v", err)
		}
		f.checkReply(t, "Join after an append", &jr)
	}
	close(stop)
	wg.Wait()
	var stats StatsReply
	if err := f.w.Stats(&StatsArgs{}, &stats); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Folds != batches || stats.FoldNanos == 0 || stats.StaleRebuilds != 0 {
		t.Errorf("%d folds (%d ns) and %d stale rebuilds over %d appends to S, want %d folds and no rebuild",
			stats.Folds, stats.FoldNanos, stats.StaleRebuilds, batches, batches)
	}
}
