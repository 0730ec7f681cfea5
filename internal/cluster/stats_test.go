package cluster

import (
	"context"
	"strings"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
)

// TestClusterStatsAfterRetainedRuns drives a cold + warm retained query and
// checks the cluster-wide Stats view: data-plane totals on the workers, the
// retained-tier hit accounting, coordinator aggregates, and the Prometheus
// exposition of both registries.
func TestClusterStatsAfterRetainedRuns(t *testing.T) {
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

	s, tt := data.ParetoPair(2, 1.4, 400, 13)
	band := data.Symmetric(0.3, 0.3)
	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 2)
	opts := Options{PlanID: "stats-plan", ChunkSize: 128}

	cold, err := coord.RunPlan(context.Background(), plan, pctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("cold RunPlan: %v", err)
	}
	if cold.WarmPartitions {
		t.Error("cold run reports WarmPartitions")
	}
	warm, err := coord.RunPlan(context.Background(), plan, pctx, s, tt, band, opts)
	if err != nil {
		t.Fatalf("warm RunPlan: %v", err)
	}
	if !warm.WarmPartitions {
		t.Error("warm run does not report WarmPartitions")
	}

	cs := coord.Stats(context.Background())
	if len(cs.Workers) != 2 || cs.Live != 2 {
		t.Fatalf("stats reports %d workers, %d live; want 2/2", len(cs.Workers), cs.Live)
	}
	if cs.RetainedPlans != 1 {
		t.Errorf("coordinator retained plans = %d, want 1", cs.RetainedPlans)
	}
	if cs.WireBytes == 0 {
		t.Error("wire bytes = 0 after a cold shuffle")
	}
	var loadChunks, loadTuples, loadBytes, joined, pairs, retainedHits, seals, retainedBytes int64
	for _, ws := range cs.Workers {
		if ws.Err != "" {
			t.Fatalf("worker %d unreachable: %s", ws.Slot, ws.Err)
		}
		if ws.Stats.Draining {
			t.Errorf("worker %d reports draining", ws.Slot)
		}
		loadChunks += ws.Stats.LoadChunks
		loadTuples += ws.Stats.LoadTuples
		loadBytes += ws.Stats.LoadBytes
		joined += ws.Stats.PartitionsJoined
		pairs += ws.Stats.PairsEmitted
		retainedHits += ws.Stats.RetainedHits
		seals += ws.Stats.Seals
		retainedBytes += ws.Stats.RetainedBytes
	}
	if loadChunks == 0 || loadTuples == 0 || loadBytes == 0 {
		t.Errorf("load totals zero: chunks=%d tuples=%d bytes=%d", loadChunks, loadTuples, loadBytes)
	}
	if loadTuples != cold.TotalInput {
		t.Errorf("loaded tuples = %d, want total input %d", loadTuples, cold.TotalInput)
	}
	// Both the cold run (post-seal) and the warm run join retained state.
	if retainedHits < 2 {
		t.Errorf("retained hits = %d, want >= 2", retainedHits)
	}
	if joined == 0 || pairs != cold.Output+warm.Output {
		t.Errorf("join totals: partitions=%d pairs=%d, want pairs %d", joined, pairs, cold.Output+warm.Output)
	}
	if seals != 2 {
		t.Errorf("seals = %d, want one per worker", seals)
	}
	if retainedBytes == 0 {
		t.Error("retained bytes = 0 with a sealed plan resident")
	}

	rendered := cs.String()
	if !strings.Contains(rendered, "2/2 workers live") || !strings.Contains(rendered, "local-0") {
		t.Errorf("ClusterStats rendering missing expected content:\n%s", rendered)
	}

	var workerProm strings.Builder
	lc.Handles()[0].Metrics().WritePrometheus(&workerProm)
	for _, series := range []string{
		"bandjoin_worker_load_chunks_total",
		"bandjoin_worker_retained_join_total{outcome=\"hit\"}",
		"bandjoin_worker_partition_join_seconds_bucket",
		"bandjoin_worker_retained_bytes",
	} {
		if !strings.Contains(workerProm.String(), series) {
			t.Errorf("worker /metrics missing %s", series)
		}
	}

	var coordProm strings.Builder
	coord.Metrics().WritePrometheus(&coordProm)
	if !strings.Contains(coordProm.String(), "bandjoin_coord_runs_total 2") {
		t.Errorf("coordinator /metrics missing runs_total 2:\n%s", coordProm.String())
	}
	if !strings.Contains(coordProm.String(), "bandjoin_coord_retained_plans 1") {
		t.Errorf("coordinator /metrics missing retained_plans gauge:\n%s", coordProm.String())
	}
}

// TestStatsWhileDraining pins the drain-visibility contract: Stats answers on
// a draining worker, reports the flag, and counts the rejected data-plane
// work; the draining gauge flips in the Prometheus exposition.
func TestStatsWhileDraining(t *testing.T) {
	w := NewWorker("drainer")
	if !w.Drain(0) {
		t.Fatal("Drain with no inflight work did not complete")
	}

	chunk := data.NewRelation("c", 1)
	chunk.Append(1)
	_, err := ship(w, toPlan("j", data.Symmetric(1)), testPart{s: chunk})
	if err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("stream to a draining worker: err = %v, want draining rejection", err)
	}

	var sr StatsReply
	if err := w.Stats(&StatsArgs{}, &sr); err != nil {
		t.Fatalf("Stats on draining worker: %v", err)
	}
	if !sr.Draining {
		t.Error("StatsReply.Draining = false on a draining worker")
	}
	if sr.LoadRejected != 1 {
		t.Errorf("LoadRejected = %d, want 1", sr.LoadRejected)
	}
	var pong PingReply
	if err := w.Ping(&PingArgs{}, &pong); err != nil {
		t.Fatalf("Ping on draining worker: %v", err)
	}
	if !pong.Draining {
		t.Error("PingReply.Draining = false on a draining worker")
	}

	var prom strings.Builder
	w.Metrics().WritePrometheus(&prom)
	if !strings.Contains(prom.String(), "bandjoin_worker_draining 1") {
		t.Errorf("draining gauge not 1:\n%s", prom.String())
	}
}
