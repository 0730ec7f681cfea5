package cluster

import (
	"context"
	"maps"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/grid"
)

// extendPair returns base prefixes of s and t plus the full relations, for
// append tests: retained state is shipped from the prefixes and must end up
// serving the full relations.
func extendPair(s, t *data.Relation, sBase, tBase int) (baseS, baseT *data.Relation) {
	return s.Slice(s.Name(), 0, sBase), t.Slice(t.Name(), 0, tBase)
}

// TestAbsorbPlanDeltaOnlyShuffle: after a retained plan is shipped from base
// prefixes, AbsorbPlan of the extended relations must move only the delta
// (strictly less traffic than the cold ship), and the next warm run serves the
// full relations with zero shuffle bytes and exactly the pairs of the nested
// loop over the same data. Exercised on keys the wire format ships raw64 and
// on decimal keys it bit-packs (a delta chunk's ID column starts at an
// offset), and checked for idempotence (a second absorb of the same state is
// free).
func TestAbsorbPlanDeltaOnlyShuffle(t *testing.T) {
	rawS, rawT := data.ParetoPair(2, 1.4, 600, 17)
	decS, decT := decimalPair(2, 600, 47)
	for _, in := range []struct {
		name         string
		fullS, fullT *data.Relation
		band         data.Band
	}{
		{"keys=raw64", rawS, rawT, data.Symmetric(0.3, 0.3)},
		{"keys=decimal", decS, decT, data.Symmetric(0.05, 0.05)},
	} {
		t.Run(in.name, func(t *testing.T) {
			fullS, fullT, band := in.fullS, in.fullT, in.band
			baseS, baseT := extendPair(fullS, fullT, 400, 450)

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

			plan, pctx := retainPlanFor(t, core.NewRecPartS(), baseS, baseT, band, 3)
			opts := Options{PlanID: "absorb-delta", CollectPairs: true, ChunkSize: 128}
			cold, err := coord.RunPlan(context.Background(), plan, pctx, baseS, baseT, band, opts)
			if err != nil {
				t.Fatalf("cold RunPlan: %v", err)
			}

			if err := coord.AbsorbPlan(context.Background(), plan, pctx, fullS, fullT, opts); err != nil {
				t.Fatalf("AbsorbPlan: %v", err)
			}
			if err := coord.AbsorbPlan(context.Background(), plan, pctx, fullS, fullT, opts); err != nil {
				t.Fatalf("repeated AbsorbPlan: %v", err)
			}

			warm, err := coord.RunPlan(context.Background(), plan, pctx, fullS, fullT, band, opts)
			if err != nil {
				t.Fatalf("warm RunPlan after absorb: %v", err)
			}
			if warm.ShuffleBytes != 0 || warm.ShuffleRPCs != 0 {
				t.Errorf("warm run after absorb shuffled: bytes=%d rpcs=%d, want 0/0 (delta moved during AbsorbPlan)",
					warm.ShuffleBytes, warm.ShuffleRPCs)
			}
			if warm.InputS != fullS.Len() || warm.InputT != fullT.Len() {
				t.Errorf("warm run saw |S|=%d |T|=%d, want %d/%d", warm.InputS, warm.InputT, fullS.Len(), fullT.Len())
			}
			if warm.StaleRebuildTime <= 0 {
				t.Errorf("warm run after absorb reports StaleRebuildTime = %v, want > 0 (lazy prepared rebuild ran)", warm.StaleRebuildTime)
			}
			if warm.Output <= cold.Output {
				t.Errorf("extended output %d not larger than base output %d", warm.Output, cold.Output)
			}
			samePairs(t, "absorbed vs nested loop", warm.Pairs, definitionPairs(fullS, fullT, band))
		})
	}
}

// TestRetainedLazyDeltaAbsorb: a warm retained run handed relations the record
// has not covered yet (no prior AbsorbPlan) must absorb the suffix itself —
// shuffling only the delta, reporting its cost in DeltaAbsorbTime — and serve
// the extended relations correctly.
func TestRetainedLazyDeltaAbsorb(t *testing.T) {
	fullS, fullT := data.ParetoPair(2, 1.5, 500, 29)
	band := data.Symmetric(0.35, 0.35)
	baseS, baseT := extendPair(fullS, fullT, 350, 350)

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

	plan, pctx := retainPlanFor(t, core.NewRecPartS(), baseS, baseT, band, 2)
	opts := Options{PlanID: "lazy-absorb", CollectPairs: true, ChunkSize: 64}
	cold, err := coord.RunPlan(context.Background(), plan, pctx, baseS, baseT, band, opts)
	if err != nil {
		t.Fatalf("cold RunPlan: %v", err)
	}

	warm, err := coord.RunPlan(context.Background(), plan, pctx, fullS, fullT, band, opts)
	if err != nil {
		t.Fatalf("warm RunPlan with uncovered suffix: %v", err)
	}
	if warm.ShuffleBytes == 0 || warm.ShuffleBytes >= cold.ShuffleBytes {
		t.Errorf("lazy absorb moved %d bytes, want (0, %d): only the delta reshuffles", warm.ShuffleBytes, cold.ShuffleBytes)
	}
	if warm.DeltaAbsorbTime <= 0 {
		t.Errorf("lazy absorb reports DeltaAbsorbTime = %v, want > 0", warm.DeltaAbsorbTime)
	}
	oracle, err := coord.RunPlan(context.Background(), plan, pctx, fullS, fullT, band,
		Options{CollectPairs: true, ChunkSize: 64})
	if err != nil {
		t.Fatalf("transient oracle RunPlan: %v", err)
	}
	samePairs(t, "lazy absorb vs transient", warm.Pairs, oracle.Pairs)

	rewarm, err := coord.RunPlan(context.Background(), plan, pctx, fullS, fullT, band, opts)
	if err != nil {
		t.Fatalf("re-warm RunPlan: %v", err)
	}
	if rewarm.ShuffleBytes != 0 {
		t.Errorf("run after lazy absorb shuffled %d bytes, want 0", rewarm.ShuffleBytes)
	}
	samePairs(t, "lazy absorb vs re-warm", warm.Pairs, rewarm.Pairs)
}

// TestDeltaIntoPartitionNewToThePlan: rows appended into Grid-ε cells that no
// base row reached are partitions the shipment has no slot for. The delta
// shipment must place them where the plan's placement puts them (it is built
// only when such a partition turns up), and the warm run must return exactly
// the nested loop's pairs over the extended relations.
func TestDeltaIntoPartitionNewToThePlan(t *testing.T) {
	baseS, baseT := data.ParetoPair(2, 1.5, 400, 31)
	band := data.Symmetric(0.2, 0.2)
	// The delta repeats the base rows 1000 away in every dimension: cells no
	// base row reaches, whose rows join only each other.
	shifted := func(r *data.Relation) *data.Relation {
		out := r.Clone(r.Name())
		for i := range r.Len() {
			k := r.Key(i)
			out.Append(k[0]+1000, k[1]+1000)
		}
		return out
	}
	fullS, fullT := shifted(baseS), shifted(baseT)

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

	plan, pctx := retainPlanFor(t, grid.New(), baseS, baseT, band, 3)
	opts := Options{PlanID: "delta-new-cells", CollectPairs: true, ChunkSize: 128}
	if _, err := coord.RunPlan(context.Background(), plan, pctx, baseS, baseT, band, opts); err != nil {
		t.Fatalf("cold RunPlan: %v", err)
	}
	e := coord.retained.Get(opts.PlanID)
	e.Fill.RLock()
	shipped := maps.Clone(e.Meta.pidSlot)
	e.Fill.RUnlock()

	if err := coord.AbsorbPlan(context.Background(), plan, pctx, fullS, fullT, opts); err != nil {
		t.Fatalf("AbsorbPlan: %v", err)
	}
	e.Fill.RLock()
	place := exec.Placement(plan, pctx, len(e.Meta.slots))
	added := 0
	for pid, slot := range e.Meta.pidSlot {
		if _, ok := shipped[pid]; ok {
			continue
		}
		added++
		if want := e.Meta.slots[place(pid)]; slot != want {
			t.Errorf("new partition %d went to slot %d, the placement says %d", pid, slot, want)
		}
	}
	e.Fill.RUnlock()
	if added == 0 {
		t.Fatalf("the delta created no partition new to the plan (%d partitions shipped)", len(shipped))
	}

	warm, err := coord.RunPlan(context.Background(), plan, pctx, fullS, fullT, band, opts)
	if err != nil {
		t.Fatalf("warm RunPlan: %v", err)
	}
	if warm.ShuffleBytes != 0 {
		t.Errorf("warm run after absorb shuffled %d bytes, want 0", warm.ShuffleBytes)
	}
	samePairs(t, "delta into new partitions vs nested loop", warm.Pairs, definitionPairs(fullS, fullT, band))
}

// TestAbsorbAfterWorkerLossFallsBackToCold: an append delta that cannot reach
// a worker holding retained partitions must fail AbsorbPlan (the engine then
// evicts the fingerprint), and after eviction the next retained run reships
// the full extended relations cold and still answers correctly — the
// append-after-failover path of the incremental ingestion design.
func TestAbsorbAfterWorkerLossFallsBackToCold(t *testing.T) {
	fullS, fullT := data.ParetoPair(2, 1.4, 450, 31)
	band := data.Symmetric(0.3, 0.3)
	baseS, baseT := extendPair(fullS, fullT, 300, 300)

	good, flaky := NewWorker("good"), NewWorker("flaky")
	fail := failShipments(flaky)
	coord, err := Dial([]string{serveWorker(t, good), serveWorker(t, flaky)})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	plan, pctx := retainPlanFor(t, core.NewRecPartS(), baseS, baseT, band, 2)
	opts := Options{PlanID: "absorb-under-failover", CollectPairs: true, ChunkSize: 64}
	if _, err := coord.RunPlan(context.Background(), plan, pctx, baseS, baseT, band, opts); err != nil {
		t.Fatalf("cold RunPlan: %v", err)
	}

	// The delta streams die at one worker: the absorb must surface the failure
	// rather than leave half-applied retained state serving queries.
	fail.Store(true)
	if err := coord.AbsorbPlan(context.Background(), plan, pctx, fullS, fullT, opts); err == nil {
		t.Fatal("AbsorbPlan with a failing worker unexpectedly succeeded")
	}
	fail.Store(false)

	// The engine's Append reacts by evicting the fingerprint; the next
	// retained run reships everything cold from the extended relations.
	coord.EvictPlan(opts.PlanID)
	reshipped, err := coord.RunPlan(context.Background(), plan, pctx, fullS, fullT, band, opts)
	if err != nil {
		t.Fatalf("RunPlan after eviction: %v", err)
	}
	if reshipped.ShuffleBytes == 0 {
		t.Error("post-eviction run reports zero shuffle bytes; expected a cold reshipment")
	}
	oracle, err := coord.RunPlan(context.Background(), plan, pctx, fullS, fullT, band,
		Options{CollectPairs: true, ChunkSize: 64})
	if err != nil {
		t.Fatalf("transient oracle RunPlan: %v", err)
	}
	samePairs(t, "post-failover reship vs transient", reshipped.Pairs, oracle.Pairs)

	warm, err := coord.RunPlan(context.Background(), plan, pctx, fullS, fullT, band, opts)
	if err != nil {
		t.Fatalf("warm RunPlan after reship: %v", err)
	}
	if warm.ShuffleBytes != 0 {
		t.Errorf("warm run after reship shuffled %d bytes, want 0", warm.ShuffleBytes)
	}
	samePairs(t, "post-failover warm", reshipped.Pairs, warm.Pairs)

	// And absorbing further growth into the reshipped plan works again.
	grownS := fullS.Clone(fullS.Name())
	extra := data.NewRelation("extra", 2)
	for i := 0; i < 50; i++ {
		extra.AppendKey(fullT.Key(i))
	}
	grownS = grownS.Extend(extra)
	if err := coord.AbsorbPlan(context.Background(), plan, pctx, grownS, fullT, opts); err != nil {
		t.Fatalf("AbsorbPlan after recovery: %v", err)
	}
	regrown, err := coord.RunPlan(context.Background(), plan, pctx, grownS, fullT, band, opts)
	if err != nil {
		t.Fatalf("RunPlan after recovered absorb: %v", err)
	}
	if regrown.ShuffleBytes != 0 {
		t.Errorf("run after recovered absorb shuffled %d bytes, want 0", regrown.ShuffleBytes)
	}
	oracle2, err := coord.RunPlan(context.Background(), plan, pctx, grownS, fullT, band,
		Options{CollectPairs: true, ChunkSize: 64})
	if err != nil {
		t.Fatalf("transient oracle 2: %v", err)
	}
	samePairs(t, "recovered absorb vs transient", regrown.Pairs, oracle2.Pairs)
}

// TestAbsorbPlanRequiresPlanID and unknown-fingerprint behavior: absorbing
// into nothing is a no-op (the engine has nothing retained to keep fresh), but
// an absent PlanID is a caller bug.
func TestAbsorbPlanEdgeCases(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 200, 7)
	band := data.Symmetric(0.4, 0.4)
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

	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 2)
	if err := coord.AbsorbPlan(context.Background(), plan, pctx, s, tt, Options{}); err == nil {
		t.Error("AbsorbPlan without a PlanID accepted")
	}
	if err := coord.AbsorbPlan(context.Background(), plan, pctx, s, tt, Options{PlanID: "never-shipped"}); err != nil {
		t.Errorf("AbsorbPlan of an unshipped fingerprint: %v, want nil no-op", err)
	}
}
