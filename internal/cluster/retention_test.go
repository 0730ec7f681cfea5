package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// retainPlanFor runs one partitioner's optimization phase for the retention
// tests.
func retainPlanFor(t *testing.T, pt partition.Partitioner, s, tt *data.Relation, band data.Band, workers int) (partition.Plan, *partition.Context) {
	t.Helper()
	smp, err := sample.Draw(s, tt, band, sample.DefaultOptions())
	if err != nil {
		t.Fatalf("sampling: %v", err)
	}
	ctx := &partition.Context{Band: band, Workers: workers, Sample: smp, Model: costmodel.Default(), Seed: 7}
	plan, err := pt.Plan(ctx)
	if err != nil {
		t.Fatalf("%s optimization: %v", pt.Name(), err)
	}
	return plan, ctx
}

func samePairs(t *testing.T, label string, a, b []exec.Pair) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: pair counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: pair %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestRetainedPlanZeroShuffleRerun is the core warm-partition property: a
// repeated RunPlan naming the same plan fingerprint must move zero shuffle
// bytes and zero chunks, and report bit-identical accounting and pairs.
func TestRetainedPlanZeroShuffleRerun(t *testing.T) {
	lc, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer lc.Stop()
	coord, err := Dial(lc.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	s, tt := data.ParetoPair(2, 1.4, 500, 11)
	band := data.Symmetric(0.3, 0.3)
	plan, ctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 3)

	opts := Options{PlanID: "test-plan", CollectPairs: true, ChunkSize: 128}
	cold, err := coord.RunPlan(context.Background(), plan, ctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("cold RunPlan: %v", err)
	}
	if cold.ShuffleBytes == 0 || cold.ShuffleRPCs == 0 {
		t.Fatalf("cold run reports no shuffle traffic (bytes=%d rpcs=%d)", cold.ShuffleBytes, cold.ShuffleRPCs)
	}
	warm, err := coord.RunPlan(context.Background(), plan, ctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("warm RunPlan: %v", err)
	}
	if warm.ShuffleBytes != 0 || warm.ShuffleRPCs != 0 {
		t.Errorf("warm run shuffled: bytes=%d rpcs=%d, want 0/0", warm.ShuffleBytes, warm.ShuffleRPCs)
	}
	if warm.TotalInput != cold.TotalInput || warm.Output != cold.Output ||
		warm.Im != cold.Im || warm.Om != cold.Om || warm.Partitions != cold.Partitions {
		t.Errorf("warm accounting differs: cold (I=%d out=%d Im=%d Om=%d parts=%d), warm (I=%d out=%d Im=%d Om=%d parts=%d)",
			cold.TotalInput, cold.Output, cold.Im, cold.Om, cold.Partitions,
			warm.TotalInput, warm.Output, warm.Im, warm.Om, warm.Partitions)
	}
	samePairs(t, "cold vs warm", cold.Pairs, warm.Pairs)
	samePairs(t, "cold vs nested loop", cold.Pairs, definitionPairs(s, tt, band))
}

// failShipments arms w to fail every chunk of its shipment streams while the
// returned flag is set: a worker that dies mid-shuffle, on demand.
func failShipments(w *Worker) *atomic.Bool {
	var fail atomic.Bool
	w.SetShipHook(func(ev *ShipEvent) error {
		if ev.At == ShipChunk && fail.Load() {
			return fmt.Errorf("synthetic mid-shuffle failure")
		}
		return nil
	})
	return &fail
}

// TestFailedQueryPreservesRetainedRegistry is a fault-injection regression,
// end to end: a transient query that fails mid-shuffle must leave the retained
// plan shipped before the failure resident, still serving warm zero-shuffle
// queries with identical results.
func TestFailedQueryPreservesRetainedRegistry(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.3, 400, 13)
	band := data.Symmetric(0.35, 0.35)

	good, flaky := NewWorker("good"), NewWorker("flaky")
	fail := failShipments(flaky)
	coord, err := Dial([]string{serveWorker(t, good), serveWorker(t, flaky)})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	plan, ctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 2)
	opts := Options{PlanID: "retained-under-fire", CollectPairs: true, ChunkSize: 64}
	cold, err := coord.RunPlan(context.Background(), plan, ctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("cold retained RunPlan: %v", err)
	}
	retainedBefore := good.Retained() + flaky.Retained()
	if retainedBefore == 0 {
		t.Fatal("no retained state resident after the cold run")
	}

	// Inject: a transient query now dies mid-shuffle.
	fail.Store(true)
	if _, err := coord.RunPlan(context.Background(), plan, ctx, s, tt, band, Options{ChunkSize: 64}); err == nil {
		t.Fatal("transient run with a failing worker unexpectedly succeeded")
	}
	fail.Store(false)

	if got := good.Retained() + flaky.Retained(); got != retainedBefore {
		t.Fatalf("failed transient query changed the retained registry: %d plans resident, want %d", got, retainedBefore)
	}
	for _, w := range []*Worker{good, flaky} {
		var pong PingReply
		if err := w.Ping(&PingArgs{}, &pong); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		if pong.Jobs != 0 {
			t.Errorf("worker %s retains %d transient jobs after failed run", w.name, pong.Jobs)
		}
	}

	warm, err := coord.RunPlan(context.Background(), plan, ctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("warm RunPlan after failed transient query: %v", err)
	}
	if warm.ShuffleBytes != 0 || warm.ShuffleRPCs != 0 {
		t.Errorf("warm run after failure shuffled: bytes=%d rpcs=%d, want 0/0", warm.ShuffleBytes, warm.ShuffleRPCs)
	}
	samePairs(t, "cold vs post-failure warm", cold.Pairs, warm.Pairs)
}

// TestRetainedEvictionFallsBackToCold: when a worker loses a retained plan
// (restart or retention-cap eviction) behind the coordinator's back, the next
// warm query must detect it via ErrUnknownRetainedPlan, reship cold, and
// still return the right answer; the query after that is warm again.
func TestRetainedEvictionFallsBackToCold(t *testing.T) {
	lc, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer lc.Stop()
	coord, err := Dial(lc.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	s, tt := data.ParetoPair(2, 1.5, 350, 19)
	band := data.Symmetric(0.4, 0.4)
	plan, ctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 2)
	opts := Options{PlanID: "evicted-behind-back", CollectPairs: true, ChunkSize: 64}

	cold, err := coord.RunPlan(context.Background(), plan, ctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("cold RunPlan: %v", err)
	}
	// Simulate worker-side loss without telling the coordinator.
	for _, w := range lc.Handles() {
		var er EvictReply
		if err := w.Evict(&EvictArgs{PlanID: opts.PlanID}, &er); err != nil {
			t.Fatalf("Evict: %v", err)
		}
	}

	reshipped, err := coord.RunPlan(context.Background(), plan, ctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("RunPlan after worker-side eviction: %v", err)
	}
	if reshipped.ShuffleBytes == 0 {
		t.Error("fallback run reports zero shuffle bytes; expected a cold reshipment")
	}
	samePairs(t, "cold vs fallback", cold.Pairs, reshipped.Pairs)

	warm, err := coord.RunPlan(context.Background(), plan, ctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("warm RunPlan after fallback: %v", err)
	}
	if warm.ShuffleBytes != 0 {
		t.Errorf("run after fallback shuffled %d bytes, want 0", warm.ShuffleBytes)
	}
	samePairs(t, "cold vs re-warm", cold.Pairs, warm.Pairs)
}

// TestWorkerMaxRetainedCap: the retention cap evicts the least-recently-sealed
// plan, and a retained join of an evicted plan fails with the
// ErrUnknownRetainedPlan marker coordinators key their fallback on.
func TestWorkerMaxRetainedCap(t *testing.T) {
	w := NewWorker("capped")
	w.SetMaxRetained(1)
	chunk := data.NewRelation("c", 1)
	ids := []int64{0, 1}
	chunk.Append(0.1)
	chunk.Append(0.2)

	for _, plan := range []string{"plan-a", "plan-b"} {
		hdr := toPlan(plan, data.Symmetric(1))
		if _, err := ship(w, hdr, testPart{s: chunk, sIDs: ids}); err != nil {
			t.Fatalf("stream to %s: %v", plan, err)
		}
	}
	if got := w.Retained(); got != 1 {
		t.Fatalf("%d plans resident under cap 1", got)
	}
	var jr JoinReply
	err := w.Join(&JoinArgs{PlanID: "plan-a", Band: data.Symmetric(1)}, &jr)
	if err == nil || !strings.Contains(err.Error(), ErrUnknownRetainedPlan) {
		t.Fatalf("join of evicted plan: err = %v, want %q marker", err, ErrUnknownRetainedPlan)
	}
	if err := w.Join(&JoinArgs{PlanID: "plan-b", Band: data.Symmetric(1)}, &jr); err != nil {
		t.Fatalf("join of resident plan: %v", err)
	}
}

// TestFailedShipmentLeavesNoRecord: a retained query whose every chunk is
// refused fails, and leaves the coordinator recording nothing resident, as
// the workers hold nothing; the next query ships cold and serves.
func TestFailedShipmentLeavesNoRecord(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.3, 300, 23)
	band := data.Symmetric(0.35, 0.35)
	a, b := NewWorker("a"), NewWorker("b")
	failA, failB := failShipments(a), failShipments(b)
	coord, err := Dial([]string{serveWorker(t, a), serveWorker(t, b)})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 2)
	opts := Options{PlanID: "refused", CollectPairs: true, ChunkSize: 64}
	failA.Store(true)
	failB.Store(true)
	if _, err := coord.RunPlan(context.Background(), plan, pctx, s, tt, band, opts); err == nil {
		t.Fatal("a retained run whose every chunk is refused succeeded")
	}
	if n, na, nb := coord.RetainedPlans(), a.Retained(), b.Retained(); n != 0 || na != 0 || nb != 0 {
		t.Errorf("after the failed shipment the coordinator records %d plans, the workers hold %d and %d; want none", n, na, nb)
	}
	failA.Store(false)
	failB.Store(false)
	res, err := coord.RunPlan(context.Background(), plan, pctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("RunPlan after the failure: %v", err)
	}
	samePairs(t, "after the failure vs nested loop", res.Pairs, definitionPairs(s, tt, band))
	if coord.RetainedPlans() != 1 {
		t.Errorf("the coordinator records %d plans after a cold shipment, want 1", coord.RetainedPlans())
	}
}

// TestRetainedBytesMatchPartitions: each worker's Stats.RetainedBytes is
// exec.Bytes over the partitions its registry holds, after a cold fill of two
// plans, an S append absorbed into both, a T append absorbed lazily by one's
// next query, and the eviction of the other.
func TestRetainedBytesMatchPartitions(t *testing.T) {
	fullS, fullT := data.ParetoPair(2, 1.5, 500, 31)
	band := data.Symmetric(0.35, 0.35)
	lc, err := StartLocal(2)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer lc.Stop()
	coord, err := Dial(lc.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	ids := []string{"bytes-a", "bytes-b"}
	check := func(when string) {
		t.Helper()
		for _, w := range lc.Handles() {
			var parts []*exec.Partition
			for _, id := range ids {
				if e := w.retained.Get(id); e != nil {
					_, ps := e.Partitions()
					parts = append(parts, ps...)
				}
			}
			var st StatsReply
			if err := w.Stats(&StatsArgs{}, &st); err != nil {
				t.Fatalf("Stats: %v", err)
			}
			if want := exec.Bytes(parts); st.RetainedBytes != want || want == 0 {
				t.Errorf("%s: worker %s reports %d retained bytes, its partitions hold %d", when, w.name, st.RetainedBytes, want)
			}
		}
	}
	ctx := context.Background()
	s, tt := extendPair(fullS, fullT, 400, 400)
	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 2)
	for _, id := range ids {
		if _, err := coord.RunPlan(ctx, plan, pctx, s, tt, band, Options{PlanID: id, ChunkSize: 64}); err != nil {
			t.Fatalf("cold RunPlan %s: %v", id, err)
		}
	}
	check("after the cold fills")
	s = fullS
	for _, id := range ids {
		if err := coord.AbsorbPlan(ctx, plan, pctx, s, tt, Options{PlanID: id, ChunkSize: 64}); err != nil {
			t.Fatalf("AbsorbPlan %s: %v", id, err)
		}
	}
	check("after the S append")
	tt = fullT
	if _, err := coord.RunPlan(ctx, plan, pctx, s, tt, band, Options{PlanID: ids[0], ChunkSize: 64}); err != nil {
		t.Fatalf("RunPlan after the T append: %v", err)
	}
	check("after the T append")
	coord.EvictPlan(ids[1])
	check("after the eviction")
}

// TestEvictRacingRetainedQueries: queries of one retained plan racing an
// EvictPlan loop on fixed relations all answer the nested loop's pairs. A
// query that holds an entry the eviction superseded neither ships through it
// nor joins it warm; it re-fetches the plan's entry and ships cold. While the
// evictions go on, a query may run out of attempts; once they stop, every
// query must succeed. Afterwards one query leaves one plan retained, the next
// is warm and ships nothing, and a final eviction leaves nothing retained on
// the coordinator or any worker.
func TestEvictRacingRetainedQueries(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.4, 400, 19)
	band := data.Symmetric(0.3, 0.3)
	lc, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer lc.Stop()
	coord, err := Dial(lc.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 3)
	opts := Options{PlanID: "evict-race", CollectPairs: true, ChunkSize: 64}
	want := definitionPairs(s, tt, band)
	ctx := context.Background()

	const queriers, answers, evictions = 4, 3, 40
	var evicting atomic.Bool
	evicting.Store(true)
	var wg sync.WaitGroup
	errs := make(chan error, queriers)
	for q := range queriers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for got := 0; got < answers || evicting.Load(); {
				during := evicting.Load()
				res, err := coord.RunPlan(ctx, plan, pctx, s, tt, band, opts)
				if err != nil {
					if during && strings.Contains(err.Error(), "kept disappearing") {
						continue
					}
					errs <- fmt.Errorf("querier %d: %w", q, err)
					return
				}
				if len(res.Pairs) != len(want) || !slices.Equal(res.Pairs, want) {
					errs <- fmt.Errorf("querier %d: %d pairs differ from the nested loop's %d", q, len(res.Pairs), len(want))
					return
				}
				got++
			}
		}()
	}
	for range evictions {
		coord.EvictPlan(opts.PlanID)
		time.Sleep(200 * time.Microsecond)
	}
	evicting.Store(false)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if _, err := coord.RunPlan(ctx, plan, pctx, s, tt, band, opts); err != nil {
		t.Fatalf("RunPlan after the race: %v", err)
	}
	if n := coord.RetainedPlans(); n != 1 {
		t.Errorf("after one RunPlan the coordinator retains %d plans, want 1", n)
	}
	warm, err := coord.RunPlan(ctx, plan, pctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("warm RunPlan: %v", err)
	}
	if !warm.WarmPartitions || warm.ShuffleRPCs != 0 {
		t.Errorf("the next RunPlan ran warm=%v with %d chunk frames, want warm with 0", warm.WarmPartitions, warm.ShuffleRPCs)
	}
	samePairs(t, "warm after the race vs nested loop", warm.Pairs, want)
	coord.EvictPlan(opts.PlanID)
	if n := coord.RetainedPlans(); n != 0 {
		t.Errorf("after the final EvictPlan the coordinator retains %d plans", n)
	}
	for _, w := range lc.Handles() {
		if n := w.Retained(); n != 0 {
			t.Errorf("after the final EvictPlan worker %s retains %d plans", w.name, n)
		}
	}
}

// TestConcurrentPlanLossReshipsOnce: when every worker has dropped a retained
// plan (as its -max-retained cap does), concurrent queries of the plan all
// fail their joins, and exactly one of them reships it: the others find the
// entry they joined through superseded, leave the new shipment alone and join
// it warm. Every answer is the nested loop's.
func TestConcurrentPlanLossReshipsOnce(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.4, 400, 19)
	band := data.Symmetric(0.3, 0.3)
	lc, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer lc.Stop()
	coord, err := Dial(lc.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 3)
	opts := Options{PlanID: "lost", CollectPairs: true, ChunkSize: 64}
	want := definitionPairs(s, tt, band)
	ctx := context.Background()
	cold, err := coord.RunPlan(ctx, plan, pctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("cold RunPlan: %v", err)
	}
	for round := range 5 {
		for _, w := range lc.Handles() {
			w.retained.Delete(w.retained.Get(opts.PlanID))
		}
		const queriers = 4
		results := make([]*exec.Result, queriers)
		errs := make([]error, queriers)
		var wg sync.WaitGroup
		for q := range queriers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[q], errs[q] = coord.RunPlan(ctx, plan, pctx, s, tt, band, opts)
			}()
		}
		wg.Wait()
		var rpcs int64
		for q, res := range results {
			if errs[q] != nil {
				t.Fatalf("round %d, querier %d: %v", round, q, errs[q])
			}
			samePairs(t, fmt.Sprintf("round %d, querier %d vs nested loop", round, q), res.Pairs, want)
			rpcs += res.ShuffleRPCs
		}
		if rpcs != cold.ShuffleRPCs {
			t.Errorf("round %d: the queries shipped %d chunk frames in all, one shipment ships %d", round, rpcs, cold.ShuffleRPCs)
		}
	}
}
