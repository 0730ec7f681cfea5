package chaos_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"bandjoin/internal/chaos"
	"bandjoin/internal/cluster"
	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/onebucket"
	"bandjoin/internal/partition"
)

// testData is the shared small workload: big enough that every worker
// receives several chunks (so mid-shuffle faults have frames to hit),
// small enough that the whole matrix stays fast under -race.
func testData() (*data.Relation, *data.Relation, data.Band) {
	s, tt := data.ParetoPair(2, 1.5, 260, 7)
	return s, tt, data.Symmetric(0.25, 0.25)
}

// oraclePairs is the nested loop's result the chaos runs must match
// bit-identically. The pair set is a property of the inputs and the band, not
// of any plan.
func oraclePairs(s, tt *data.Relation, band data.Band) []exec.Pair {
	var out []exec.Pair
	localjoin.NestedLoop{}.Join(s, tt, band, func(si, ti int, _, _ []float64) {
		out = append(out, exec.Pair{S: int64(si), T: int64(ti)})
	})
	return sortedPairs(out)
}

func sortedPairs(pairs []exec.Pair) []exec.Pair {
	out := append([]exec.Pair(nil), pairs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].S != out[b].S {
			return out[a].S < out[b].S
		}
		return out[a].T < out[b].T
	})
	return out
}

func assertPairsEqual(t *testing.T, want, got []exec.Pair) {
	t.Helper()
	got = sortedPairs(got)
	if len(want) != len(got) {
		t.Fatalf("pair count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pair %d: want %v, got %v", i, want[i], got[i])
		}
	}
}

// testDialOptions keeps the failure-detection machinery fast and fully
// deterministic for the matrix: short deadlines, short seeded backoff, no
// background heartbeat (tests that need it enable it explicitly).
func testDialOptions() cluster.DialOptions {
	return cluster.DialOptions{
		CallTimeout:       600 * time.Millisecond,
		JoinTimeout:       600 * time.Millisecond,
		MaxRetries:        2,
		RetryBaseDelay:    5 * time.Millisecond,
		RetryMaxDelay:     40 * time.Millisecond,
		HeartbeatInterval: -1,
		Seed:              7,
	}
}

// startChaosCluster serves three workers — the middle one behind the given
// fault schedule — and connects a coordinator to them.
func startChaosCluster(t *testing.T, sched *chaos.Schedule, dopts cluster.DialOptions) (*cluster.Coordinator, []*chaos.Node) {
	t.Helper()
	nodes := make([]*chaos.Node, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		var s *chaos.Schedule
		if i == 1 {
			s = sched
		}
		n, err := chaos.Start(cluster.NewWorker(fmt.Sprintf("w%d", i)), s)
		if err != nil {
			t.Fatalf("starting chaos node %d: %v", i, err)
		}
		t.Cleanup(n.Stop)
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	coord, err := cluster.DialConfig(addrs, dopts)
	if err != nil {
		t.Fatalf("dialing chaos cluster: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord, nodes
}

// assertNoJobLeaks verifies that every worker still alive eventually holds
// zero transient jobs: no one-shot stream open. Eventually: a stream its
// query gave up on may still be running its join when the query returns, so a
// brief settling window is part of the contract, a lingering stream is not.
func assertNoJobLeaks(t *testing.T, nodes []*chaos.Node) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for i, n := range nodes {
		if n.Killed() {
			continue // a dead process holds nothing
		}
		for {
			var pong cluster.PingReply
			if err := n.Worker().Ping(&cluster.PingArgs{}, &pong); err != nil {
				t.Fatalf("pinging worker %d: %v", i, err)
			}
			if pong.Jobs == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d leaked %d transient jobs", i, pong.Jobs)
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// joinPoint is where a query's join phase meets its worker: the Join RPC of a
// retained plan, the point between a one-shot stream's end frame and its
// reply.
func joinPoint(mode string) string {
	if mode == "retained" {
		return "Join"
	}
	return "Reply"
}

// TestChaosMatrix is the equivalence suite: every seeded fault schedule, on
// both data-plane-relevant partitioners and both the transient and retained
// paths, must yield either pairs bit-identical to the serial oracle or a
// clean error — never a hang, a leaked job, or a wrong answer. Kill faults
// additionally must complete degraded with exactly one lost worker. The
// shuffle's faults hit chunk frames; the join's, the join point of the mode.
func TestChaosMatrix(t *testing.T) {
	s, tt, band := testData()

	partitioners := []struct {
		name string
		mk   func() partition.Partitioner
	}{
		{"recpart-s", func() partition.Partitioner { return core.NewRecPartS() }},
		{"1-bucket", func() partition.Partitioner { return onebucket.New() }},
	}
	type faultCase struct {
		name     string
		faults   []chaos.Fault
		wantErr  bool
		wantLost int
	}
	faultCases := func(join string) []faultCase {
		return []faultCase{
			{"drop-load", []chaos.Fault{{Method: "Chunk", Call: 1, Kind: chaos.Drop}}, false, 0},
			{"drop-join", []chaos.Fault{{Method: join, Call: 0, Kind: chaos.Drop}}, false, 0},
			{"delay-load", []chaos.Fault{{Method: "Chunk", Call: 0, Kind: chaos.Delay, Delay: 30 * time.Millisecond}}, false, 0},
			{"delay-join", []chaos.Fault{{Method: join, Call: 0, Kind: chaos.Delay, Delay: 30 * time.Millisecond}}, false, 0},
			{"hang-load", []chaos.Fault{{Method: "Chunk", Call: 2, Kind: chaos.Hang}}, false, 0},
			{"hang-join", []chaos.Fault{{Method: join, Call: 0, Kind: chaos.Hang}}, false, 0},
			{"error-load", []chaos.Fault{{Method: "Chunk", Call: 1, Kind: chaos.Error}}, true, 0},
			{"error-join", []chaos.Fault{{Method: join, Call: 0, Kind: chaos.Error}}, true, 0},
			{"kill-mid-shuffle", []chaos.Fault{{Method: "Chunk", Call: 1, Kind: chaos.Kill}}, false, 1},
			{"kill-mid-join", []chaos.Fault{{Method: join, Call: 0, Kind: chaos.Kill}}, false, 1},
		}
	}

	oracle := oraclePairs(s, tt, band)
	for _, ptc := range partitioners {
		for _, mode := range []string{"transient", "retained"} {
			for _, fc := range faultCases(joinPoint(mode)) {
				t.Run(ptc.name+"/"+mode+"/"+fc.name, func(t *testing.T) {
					coord, nodes := startChaosCluster(t, chaos.NewSchedule(fc.faults...), testDialOptions())
					opts := cluster.Options{CollectPairs: true, ChunkSize: 32, Seed: 42}
					if mode == "retained" {
						opts.PlanID = "chaos|" + t.Name()
					}
					ctx := context.Background()

					res, err := coord.Run(ctx, ptc.mk(), s, tt, band, opts)
					if fc.wantErr {
						if err == nil {
							t.Fatalf("fault %v: want a clean error, got success", fc.faults)
						}
						// The fault is consumed; the same query must now
						// succeed with the exact oracle result — the failure
						// left no poisoned state behind.
						res, err = coord.Run(ctx, ptc.mk(), s, tt, band, opts)
						if err != nil {
							t.Fatalf("rerun after injected error: %v", err)
						}
						assertPairsEqual(t, oracle, res.Pairs)
					} else {
						if err != nil {
							t.Fatalf("fault %v: want recovered success, got error: %v", fc.faults, err)
						}
						assertPairsEqual(t, oracle, res.Pairs)
						if res.LostWorkers != fc.wantLost {
							t.Errorf("LostWorkers = %d, want %d", res.LostWorkers, fc.wantLost)
						}
						if fc.wantLost > 0 && !res.Degraded {
							t.Errorf("lost %d workers but Degraded is false", fc.wantLost)
						}
						if fc.wantLost == 0 && res.Degraded {
							t.Errorf("no worker lost but Degraded is true")
						}
					}
					assertNoJobLeaks(t, nodes)
				})
			}
		}
	}
}

// TestChaosSeededSchedules drives generated pseudo-random schedules: whatever
// a seed throws at the cluster, the answer is the oracle's pairs or a clean
// error — and the workers end up with no leaked jobs either way.
func TestChaosSeededSchedules(t *testing.T) {
	s, tt, band := testData()
	oracle := oraclePairs(s, tt, band)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			coord, nodes := startChaosCluster(t, chaos.Generate(seed, 4), testDialOptions())
			opts := cluster.Options{CollectPairs: true, ChunkSize: 32, Seed: 42}
			res, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
			if err != nil {
				t.Logf("seed %d: clean error (acceptable): %v", seed, err)
			} else {
				assertPairsEqual(t, oracle, res.Pairs)
			}
			assertNoJobLeaks(t, nodes)
		})
	}
}

// TestStaleLoadOfAbortedShipmentIsNotJoined stages the wrong answer the seeded
// schedules produced once in a hundred runs under load. The chaotic worker
// reads its first stream's header and then stalls past the coordinator's
// deadline, so the coordinator gives up on the connection, finds the worker
// alive, clears it and ships everything again under the same plan
// fingerprint. The stalled stream — of the aborted shipment, its frames still
// buffered — then goes on into the reshipped plan, while the worker's Seal
// and Join are held back in turn to be sure it lands first. Joined, its rows
// count twice; the worker must refuse them instead. A one-shot stream shares
// nothing with its repeat, so on the transient path the stalled one joins
// alone, to an answer nobody reads.
func TestStaleLoadOfAbortedShipmentIsNotJoined(t *testing.T) {
	s, tt, band := testData()
	oracle := oraclePairs(s, tt, band)
	for _, mode := range []string{"transient", "retained"} {
		t.Run(mode, func(t *testing.T) {
			sched := chaos.NewSchedule(
				chaos.Fault{Method: "Open", Call: 0, Kind: chaos.Delay, Delay: 1000 * time.Millisecond},
				chaos.Fault{Method: "Seal", Call: 0, Kind: chaos.Delay, Delay: 800 * time.Millisecond},
				chaos.Fault{Method: "Join", Call: 0, Kind: chaos.Delay, Delay: 300 * time.Millisecond},
			)
			coord, nodes := startChaosCluster(t, sched, testDialOptions())
			opts := cluster.Options{CollectPairs: true, ChunkSize: 32, Seed: 42}
			if mode == "retained" {
				opts.PlanID = "chaos|" + t.Name()
			}
			res, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
			if err != nil {
				t.Fatalf("want recovered success, got error: %v", err)
			}
			if res.Retries == 0 {
				t.Fatal("the shipment was never repeated; the schedule stages nothing")
			}
			assertPairsEqual(t, oracle, res.Pairs)
			assertNoJobLeaks(t, nodes)
		})
	}
}

// TestWorkerDeathBetweenLoadAndJoinLeavesNoJobState is the leak regression of
// the failover path: a worker that accepts its partitions and then dies
// before joining must neither fail the query nor leave transient job state on
// the survivors (extending the earlier leak fix for failed runs to the
// recovered ones).
func TestWorkerDeathBetweenLoadAndJoinLeavesNoJobState(t *testing.T) {
	s, tt, band := testData()
	oracle := oraclePairs(s, tt, band)
	sched := chaos.NewSchedule(chaos.Fault{Method: "Reply", Call: 0, Kind: chaos.Kill})
	coord, nodes := startChaosCluster(t, sched, testDialOptions())

	opts := cluster.Options{CollectPairs: true, ChunkSize: 32, Seed: 42}
	res, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
	if err != nil {
		t.Fatalf("query should have failed over, got: %v", err)
	}
	assertPairsEqual(t, oracle, res.Pairs)
	if !res.Degraded || res.LostWorkers != 1 {
		t.Errorf("Degraded=%v LostWorkers=%d, want degraded with exactly 1 lost worker", res.Degraded, res.LostWorkers)
	}
	if !nodes[1].Killed() {
		t.Fatal("the chaotic worker should have been killed by the schedule")
	}
	assertNoJobLeaks(t, nodes)
}

// TestHeartbeatDetectsDeathAndRevival exercises the health-state lifecycle:
// the background heartbeat demotes a killed worker to down (queries complete
// degraded over the survivors), and a worker revived on the same address is
// promoted back to up and serves again.
func TestHeartbeatDetectsDeathAndRevival(t *testing.T) {
	s, tt, band := testData()
	oracle := oraclePairs(s, tt, band)
	dopts := testDialOptions()
	dopts.HeartbeatInterval = 40 * time.Millisecond
	dopts.CallTimeout = 300 * time.Millisecond
	coord, nodes := startChaosCluster(t, nil, dopts)

	waitForState := func(want cluster.WorkerState) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for coord.WorkerStates()[1] != want {
			if time.Now().After(deadline) {
				t.Fatalf("worker 1 never became %v (now %v)", want, coord.WorkerStates()[1])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	addr := nodes[1].Addr()
	nodes[1].Kill()
	waitForState(cluster.StateDown)

	opts := cluster.Options{CollectPairs: true, ChunkSize: 32, Seed: 42}
	res, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
	if err != nil {
		t.Fatalf("query over survivors: %v", err)
	}
	assertPairsEqual(t, oracle, res.Pairs)
	if !res.Degraded {
		t.Error("query with a down worker should report Degraded")
	}
	if res.LostWorkers != 0 {
		t.Errorf("worker died before the query, LostWorkers = %d, want 0", res.LostWorkers)
	}

	revived, err := chaos.StartOn(addr, cluster.NewWorker("w1-revived"), nil)
	if err != nil {
		t.Fatalf("reviving worker on %s: %v", addr, err)
	}
	t.Cleanup(revived.Stop)
	waitForState(cluster.StateUp)

	res, err = coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
	if err != nil {
		t.Fatalf("query after revival: %v", err)
	}
	assertPairsEqual(t, oracle, res.Pairs)
	if res.Degraded {
		t.Error("query after revival should not be Degraded")
	}
}

// TestDialConfigMinWorkers pins the degraded-start contract: strict Dial
// refuses a cluster with an unreachable worker, DialConfig with MinWorkers
// starts it and serves correct (degraded) results over the reachable ones.
func TestDialConfigMinWorkers(t *testing.T) {
	s, tt, band := testData()
	oracle := oraclePairs(s, tt, band)

	nodes := make([]*chaos.Node, 2)
	addrs := make([]string, 3)
	for i := range nodes {
		n, err := chaos.Start(cluster.NewWorker(fmt.Sprintf("w%d", i)), nil)
		if err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		t.Cleanup(n.Stop)
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	// A dead address: bind a port, then close it again.
	dead, err := chaos.Start(cluster.NewWorker("dead"), nil)
	if err != nil {
		t.Fatalf("starting placeholder node: %v", err)
	}
	addrs[2] = dead.Addr()
	dead.Stop()

	if _, err := cluster.Dial(addrs); err == nil {
		t.Fatal("strict Dial should fail with an unreachable worker")
	}

	dopts := testDialOptions()
	dopts.MinWorkers = 2
	coord, err := cluster.DialConfig(addrs, dopts)
	if err != nil {
		t.Fatalf("DialConfig(MinWorkers=2): %v", err)
	}
	t.Cleanup(coord.Close)
	if live := coord.LiveWorkers(); live != 2 {
		t.Fatalf("LiveWorkers = %d, want 2", live)
	}

	res, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band,
		cluster.Options{CollectPairs: true, ChunkSize: 32, Seed: 42})
	if err != nil {
		t.Fatalf("degraded-start query: %v", err)
	}
	assertPairsEqual(t, oracle, res.Pairs)
	if !res.Degraded {
		t.Error("query on a degraded-start cluster should report Degraded")
	}
}

// TestContextCancelAbortsHungQuery proves cancellation is the backstop even
// with per-call deadlines disabled: a worker hanging a shipment forever cannot
// outlive the query's context, and the abort leaves no job state behind.
func TestContextCancelAbortsHungQuery(t *testing.T) {
	s, tt, band := testData()
	sched := chaos.NewSchedule(chaos.Fault{Method: "Chunk", Call: 0, Kind: chaos.Hang})
	dopts := testDialOptions()
	dopts.CallTimeout = -1 // ctx is the only bound
	dopts.JoinTimeout = -1
	coord, nodes := startChaosCluster(t, sched, dopts)

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := coord.Run(ctx, core.NewRecPartS(), s, tt, band,
		cluster.Options{CollectPairs: true, ChunkSize: 32, Seed: 42})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("hung query returned success")
	}
	if context.Cause(ctx) == nil {
		t.Fatalf("query failed before the context fired: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, the hung call pinned the query", elapsed)
	}
	nodes[1].Release() // let the hung handler exit before the leak check
	assertNoJobLeaks(t, nodes)
}

// skewedData builds the point-mass workload for the skew cases: roughly half
// of S sits on a single point, so one partition dominates the reduce phase —
// the shape the morsel scheduler absorbs.
func skewedData() (*data.Relation, *data.Relation, data.Band) {
	s, tt := data.ParetoPair(2, 1.5, 260, 7)
	sk := data.NewRelation("S", 2)
	for i := 0; i < s.Len(); i++ {
		if i%2 == 0 {
			sk.Append(0.5, 0.5)
		} else {
			sk.Append(s.Key(i)...)
		}
	}
	return sk, tt, data.Symmetric(0.2, 0.2)
}

// TestChaosMorselSkewedEquivalence extends the chaos matrix with the morsel
// scheduler under skew: on a point-mass workload whose dominant partition is
// striped across workers, join-phase faults (including killing the node that
// holds the fat partition) must still yield pairs bit-identical to the serial
// oracle, for the morsel path and the per-partition oracle path alike, on
// both the transient and the retained lifecycle.
func TestChaosMorselSkewedEquivalence(t *testing.T) {
	s, tt, band := skewedData()
	oracle := oraclePairs(s, tt, band)

	for _, morselRows := range []int{0, 16, -1} {
		for _, mode := range []string{"transient", "retained"} {
			for _, fc := range []struct {
				name     string
				faults   []chaos.Fault
				wantLost int
			}{
				{"drop-join", []chaos.Fault{{Method: joinPoint(mode), Call: 0, Kind: chaos.Drop}}, 0},
				{"kill-mid-join", []chaos.Fault{{Method: joinPoint(mode), Call: 0, Kind: chaos.Kill}}, 1},
			} {
				t.Run(fmt.Sprintf("rows=%d/%s/%s", morselRows, mode, fc.name), func(t *testing.T) {
					coord, nodes := startChaosCluster(t, chaos.NewSchedule(fc.faults...), testDialOptions())
					opts := cluster.Options{CollectPairs: true, ChunkSize: 32, Seed: 42, MorselRows: morselRows}
					if mode == "retained" {
						opts.PlanID = "chaos|" + t.Name()
					}
					res, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
					if err != nil {
						t.Fatalf("fault %v: want recovered success, got error: %v", fc.faults, err)
					}
					assertPairsEqual(t, oracle, res.Pairs)
					if res.LostWorkers != fc.wantLost {
						t.Errorf("LostWorkers = %d, want %d", res.LostWorkers, fc.wantLost)
					}
					assertNoJobLeaks(t, nodes)
				})
			}
		}
	}
}
