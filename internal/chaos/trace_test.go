package chaos_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"bandjoin"
	"bandjoin/internal/chaos"
	"bandjoin/internal/cluster"
)

// TestTraceRecordsKillFailover drives a worker kill through the public engine
// API and checks the query trace tells the story: the query completes
// degraded with one lost worker, at least one failover round, and the fault
// events rebased into the trace's span timeline.
func TestTraceRecordsKillFailover(t *testing.T) {
	sched := chaos.NewSchedule(chaos.Fault{Method: "Reply", Call: 0, Kind: chaos.Kill})
	addrs := make([]string, 3)
	for i := range addrs {
		var s *chaos.Schedule
		if i == 1 {
			s = sched
		}
		n, err := chaos.Start(cluster.NewWorker(fmt.Sprintf("w%d", i)), s)
		if err != nil {
			t.Fatalf("starting chaos node %d: %v", i, err)
		}
		t.Cleanup(n.Stop)
		addrs[i] = n.Addr()
	}
	cl, err := bandjoin.ConnectClusterConfig(addrs, bandjoin.ClusterConfig{
		CallTimeout:       600 * time.Millisecond,
		JoinTimeout:       600 * time.Millisecond,
		MaxRetries:        2,
		RetryBaseDelay:    5 * time.Millisecond,
		RetryMaxDelay:     40 * time.Millisecond,
		HeartbeatInterval: -1,
		Seed:              7,
	})
	if err != nil {
		t.Fatalf("ConnectClusterConfig: %v", err)
	}
	defer cl.Close()

	s, tt := bandjoin.Pareto(2, 1.5, 260, 7)
	band := bandjoin.Uniform(2, 0.25)
	opts := bandjoin.Options{Workers: 3, Seed: 7}
	oracle, err := bandjoin.Join(s, tt, band, opts)
	if err != nil {
		t.Fatalf("oracle Join: %v", err)
	}

	engine := cl.NewEngine(bandjoin.EngineOptions{DisableRetention: true})
	defer engine.Close()
	if err := engine.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := engine.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := engine.Join(context.Background(), "s", "t", band, opts)
	if err != nil {
		t.Fatalf("Join through kill: %v", err)
	}
	if res.Output != oracle.Output {
		t.Errorf("degraded output = %d, want %d", res.Output, oracle.Output)
	}

	tr := res.Trace
	if tr == nil {
		t.Fatal("result carries no trace")
	}
	if !tr.Degraded || tr.LostWorkers != 1 {
		t.Errorf("trace degraded=%v lost_workers=%d, want degraded with 1 lost", tr.Degraded, tr.LostWorkers)
	}
	if tr.FailoverRounds < 1 {
		t.Errorf("trace failover_rounds = %d, want >= 1", tr.FailoverRounds)
	}
	if tr.Retries < 1 {
		t.Errorf("trace retries = %d, want >= 1", tr.Retries)
	}
	names := make(map[string]bool)
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	if !names["worker_lost"] || !names["join_failover"] {
		t.Errorf("trace spans missing fault events: have %v", tr.Spans)
	}
}
