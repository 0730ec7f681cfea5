package cluster

import (
	"context"
	"fmt"
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

// TestWorkerMorselMatchesPerPartitionOracle pins the worker-side morsel path
// against the retained per-partition path at the RPC level, on a point-mass
// skewed workload, for both the transient and the retained partition
// lifecycle: bit-identical pairs and accounting for every MorselRows setting.
func TestWorkerMorselMatchesPerPartitionOracle(t *testing.T) {
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
	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 3)

	for _, mode := range []string{"transient", "retained"} {
		t.Run(mode, func(t *testing.T) {
			run := func(morselRows int) *exec.Result {
				opts := Options{CollectPairs: true, ChunkSize: 128, MorselRows: morselRows}
				if mode == "retained" {
					opts.PlanID = fmt.Sprintf("morsel-%s", mode)
				}
				res, err := coord.RunPlan(context.Background(), plan, pctx, s, tt, band, opts)
				if err != nil {
					t.Fatalf("RunPlan(MorselRows=%d): %v", morselRows, err)
				}
				return res
			}
			oracle := run(-1)
			if oracle.Output == 0 {
				t.Fatal("oracle produced no pairs; widen the band")
			}
			for _, rows := range []int{16, 1, 0} {
				got := run(rows)
				if got.Output != oracle.Output || got.TotalInput != oracle.TotalInput ||
					got.Im != oracle.Im || got.Om != oracle.Om {
					t.Errorf("rows=%d: accounting (out=%d I=%d Im=%d Om=%d) differs from oracle (out=%d I=%d Im=%d Om=%d)",
						rows, got.Output, got.TotalInput, got.Im, got.Om,
						oracle.Output, oracle.TotalInput, oracle.Im, oracle.Om)
				}
				samePairs(t, fmt.Sprintf("rows=%d vs oracle", rows), got.Pairs, oracle.Pairs)
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
