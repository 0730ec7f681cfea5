package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
)

// skewedClusterInputs builds a point-mass workload: roughly half of S sits on
// one point, so any spatial partitioner must route it to a single partition —
// one worker's join dominates unless morsels spread it.
func skewedClusterInputs(n int, seed int64) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(2, 1.5, n, seed)
	sk := data.NewRelation("S", 2)
	for i := 0; i < s.Len(); i++ {
		if i%2 == 0 {
			sk.Append(0.5, 0.5)
		} else {
			sk.Append(s.Key(i)...)
		}
	}
	return sk, t, data.Symmetric(0.2, 0.2)
}

// TestWorkerMorselRowsMatchDefinition pins the worker's morsel join at the RPC
// level, on a point-mass skewed workload, for both the transient and the
// retained partition lifecycle: every MorselRows setting — one morsel per
// partition, fixed grains and auto — returns exactly the nested loop's pairs,
// with the same accounting.
func TestWorkerMorselRowsMatchDefinition(t *testing.T) {
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

	s, tt, band := skewedClusterInputs(700, 19)
	want := definitionPairs(s, tt, band)
	if len(want) == 0 {
		t.Fatal("test data joins to nothing; widen the band")
	}
	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 3)

	for _, mode := range []string{"transient", "retained"} {
		t.Run(mode, func(t *testing.T) {
			var first *exec.Result
			for _, rows := range []int{-1, 0, 1, 16} {
				opts := Options{CollectPairs: true, ChunkSize: 128, MorselRows: rows}
				if mode == "retained" {
					opts.PlanID = fmt.Sprintf("morsel-%s", mode)
				}
				got, err := coord.RunPlan(context.Background(), plan, pctx, s, tt, band, opts)
				if err != nil {
					t.Fatalf("RunPlan(MorselRows=%d): %v", rows, err)
				}
				samePairs(t, fmt.Sprintf("rows=%d vs nested loop", rows), got.Pairs, want)
				if first == nil {
					first = got
				} else if got.Output != first.Output || got.TotalInput != first.TotalInput ||
					got.Im != first.Im || got.Om != first.Om {
					t.Errorf("rows=%d: accounting (out=%d I=%d Im=%d Om=%d) differs from rows=-1's (out=%d I=%d Im=%d Om=%d)",
						rows, got.Output, got.TotalInput, got.Im, got.Om,
						first.Output, first.TotalInput, first.Im, first.Om)
				}
			}
		})
	}

	// The morsel runs must have surfaced in the worker skew counters.
	stats := coord.Stats(context.Background())
	var morsels int64
	for _, ws := range stats.Workers {
		if ws.Err != "" {
			t.Fatalf("worker %d unreachable: %s", ws.Slot, ws.Err)
		}
		morsels += ws.Stats.Morsels
		if ws.Stats.Morsels > 0 && ws.Stats.StragglerRatio < 1.0 {
			t.Errorf("worker %d: straggler ratio %f < 1 after morsel runs", ws.Slot, ws.Stats.StragglerRatio)
		}
	}
	if morsels == 0 {
		t.Error("no worker reported executed morsels after morsel-path runs")
	}
}

// TestWorkerJoinOversizedParallelism: JoinArgs.Parallelism is unvalidated
// network input, and net/rpc does not recover a panicking handler, so a value
// that overflowed the morsel scheduler's arithmetic would kill the worker
// process. Both lifecycles must instead answer the band-join definition.
func TestWorkerJoinOversizedParallelism(t *testing.T) {
	w, parts := joinFixture(t)
	defer w.Drain(0)
	band := data.Symmetric(0.25, 0.25)
	want := joinFixtureDefinition(parts, band)
	if len(want) == 0 {
		t.Fatal("fixture joins to nothing; widen the band")
	}
	for _, job := range []string{"j", "p"} {
		for _, parallelism := range []int{math.MaxInt, math.MaxInt/2 + 1} {
			var reply JoinReply
			args := &JoinArgs{JobID: job, Band: band, CollectPairs: true, Parallelism: parallelism, Retained: job == "p"}
			if err := w.Join(args, &reply); err != nil {
				t.Fatalf("Join(%s, parallelism %d): %v", job, parallelism, err)
			}
			samePairs(t, fmt.Sprintf("%s, parallelism %d vs nested loop", job, parallelism), replyPairs(&reply), want)
		}
	}
}
