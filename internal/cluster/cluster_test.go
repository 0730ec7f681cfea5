package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/grid"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/onebucket"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
	"bandjoin/internal/wire"
)

// chunkOf encodes rel's rows, with the given tuple IDs, as one columnar chunk
// of a hand-made shipment.
func chunkOf(rel *data.Relation, ids []int64) []byte {
	return wire.NewEncoder(wire.ModeAuto).EncodeChunk(rel.KeysRange(0, rel.Len()), rel.Dims(), ids)
}

// definitionPairs is the band-join of s and t by the nested loop, sorted by
// (S, T) like Result.Pairs.
func definitionPairs(s, t *data.Relation, band data.Band) []exec.Pair {
	var out []exec.Pair
	localjoin.NestedLoop{}.Join(s, t, band, func(si, ti int, _, _ []float64) {
		out = append(out, exec.Pair{S: int64(si), T: int64(ti)})
	})
	return out
}

// simulate is the in-process executor's answer to the query Coordinator.Run
// answers with the same options: the default sample, the plan PlanQuery makes
// from it with seed, and ExecutePlan over that plan.
func simulate(pt partition.Partitioner, s, t *data.Relation, band data.Band, opts exec.Options) (*exec.Result, error) {
	smp, err := sample.Draw(s, t, band, sample.DefaultOptions())
	if err != nil {
		return nil, err
	}
	prep, err := exec.PlanQuery(pt, smp, band, opts)
	if err != nil {
		return nil, err
	}
	return exec.ExecutePlan(context.Background(), prep.Plan, s, t, band, opts)
}

func TestDistributedJoinMatchesBruteForce(t *testing.T) {
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
	if coord.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", coord.Workers())
	}

	s, tt := data.ParetoPair(2, 1.2, 400, 17)
	band := data.Symmetric(0.5, 0.5)
	want := definitionPairs(s, tt, band)
	if len(want) == 0 {
		t.Fatal("test workload produced no results")
	}

	for _, pt := range []partition.Partitioner{core.NewDefault(), onebucket.New()} {
		res, err := coord.Run(context.Background(), pt, s, tt, band, Options{CollectPairs: true, ChunkSize: 64})
		if err != nil {
			t.Fatalf("Run(%s): %v", pt.Name(), err)
		}
		if int(res.Output) != len(want) {
			t.Fatalf("%s: output = %d, want %d", pt.Name(), res.Output, len(want))
		}
		// Both lists are sorted: a pair missing, invented or produced twice
		// shows as a difference.
		samePairs(t, pt.Name()+" vs nested loop", res.Pairs, want)
		if res.TotalInput < int64(s.Len()+tt.Len()) {
			t.Errorf("%s: total input %d below |S|+|T| = %d", pt.Name(), res.TotalInput, s.Len()+tt.Len())
		}
	}
}

func TestDistributedAgreesWithSimulator(t *testing.T) {
	lc, err := StartLocal(4)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer lc.Stop()
	coord, err := Dial(lc.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	s, tt := data.ParetoPair(3, 1.5, 1500, 99)
	band := data.Symmetric(0.3, 0.3, 0.3)

	simOpts := exec.DefaultOptions(4)
	simOpts.Seed = 5
	sim, err := simulate(core.NewRecPartS(), s, tt, band, simOpts)
	if err != nil {
		t.Fatalf("simulator run: %v", err)
	}
	dist, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, Options{Seed: 5})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if sim.Output != dist.Output {
		t.Errorf("output differs: simulator %d, distributed %d", sim.Output, dist.Output)
	}
	if sim.TotalInput != dist.TotalInput {
		t.Errorf("total input differs: simulator %d, distributed %d", sim.TotalInput, dist.TotalInput)
	}
}

// TestClusterMatchesInProcessExact checks pair-level equivalence between the
// in-process executor, the RPC cluster and the nested loop across every
// partitioner family: identical plans must produce bit-identical (sorted)
// result pair sets, and those are the definition's. It also verifies that
// completed runs retain no job state on the workers.
func TestClusterMatchesInProcessExact(t *testing.T) {
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

	s, tt := data.ParetoPair(2, 1.4, 600, 23)
	band := data.Symmetric(0.3, 0.3)
	want := definitionPairs(s, tt, band)

	for _, pt := range []partition.Partitioner{core.NewDefault(), core.NewRecPartS(), onebucket.New(), grid.New()} {
		simOpts := exec.DefaultOptions(3)
		simOpts.CollectPairs = true
		simOpts.Seed = 11
		sim, err := simulate(pt, s, tt, band, simOpts)
		if err != nil {
			t.Fatalf("simulator run (%s): %v", pt.Name(), err)
		}
		if len(sim.Pairs) == 0 {
			t.Fatalf("%s: simulator produced no pairs", pt.Name())
		}
		samePairs(t, pt.Name()+": simulator vs nested loop", sim.Pairs, want)
		t.Run(pt.Name()+"/streaming", func(t *testing.T) {
			dist, err := coord.Run(context.Background(), pt, s, tt, band,
				Options{CollectPairs: true, Seed: 11, ChunkSize: 128})
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			if dist.Output != sim.Output {
				t.Errorf("output: distributed %d, simulator %d", dist.Output, sim.Output)
			}
			if dist.TotalInput != sim.TotalInput {
				t.Errorf("total input: distributed %d, simulator %d", dist.TotalInput, sim.TotalInput)
			}
			samePairs(t, "distributed vs simulator", dist.Pairs, sim.Pairs)
			if dist.ShuffleRPCs == 0 {
				t.Error("streaming run reported zero shuffle RPCs")
			}
			if dist.ShuffleBytes == 0 {
				t.Error("streaming run reported zero shuffle bytes")
			}
		})
	}

	for i, w := range lc.Handles() {
		var pong PingReply
		if err := w.Ping(&PingArgs{}, &pong); err != nil {
			t.Fatalf("Ping worker %d: %v", i, err)
		}
		if pong.Jobs != 0 {
			t.Errorf("worker %d retains %d jobs after completed runs", i, pong.Jobs)
		}
	}
}

// failAt is a ship hook that fails every stream at the given point,
// simulating a node that dies there.
func failAt(at ShipPoint) func(*ShipEvent) error {
	return func(ev *ShipEvent) error {
		if ev.At == at {
			return errors.New("synthetic failure")
		}
		return nil
	}
}

// TestFailedRunLeavesNoJobState is the leak regression test: a run that
// errors mid-shuffle or mid-join must leave zero transient state on every
// worker.
func TestFailedRunLeavesNoJobState(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.2, 400, 31)
	band := data.Symmetric(0.4, 0.4)

	for _, tc := range []struct {
		name string
		at   ShipPoint
	}{
		{"load-failure", ShipChunk},
		{"join-failure", ShipReply},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good, bad := NewWorker("good"), NewWorker("bad")
			bad.SetShipHook(failAt(tc.at))
			coord, err := Dial([]string{serveWorker(t, good), serveWorker(t, bad)})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer coord.Close()

			// 1-Bucket duplicates T to every partition, so with LPT
			// placement over two partitions both workers are guaranteed
			// to receive data before the injected fault fires.
			_, err = coord.Run(context.Background(), onebucket.New(), s, tt, band, Options{ChunkSize: 64})
			if err == nil {
				t.Fatal("run with a failing worker unexpectedly succeeded")
			}

			for _, w := range []*Worker{good, bad} {
				var pong PingReply
				if err := w.Ping(&PingArgs{}, &pong); err != nil {
					t.Fatalf("Ping %s: %v", w.name, err)
				}
				if pong.Jobs != 0 {
					t.Errorf("worker %s retains %d jobs after failed run", w.name, pong.Jobs)
				}
			}
		})
	}
}

// TestWorkerLoadJoinRaceSafety hammers one worker with concurrent delta
// streams and Join requests for the same retained plan; run under -race (as
// CI does) it verifies the per-plan and per-partition locking that lets rows
// land beside running joins.
func TestWorkerLoadJoinRaceSafety(t *testing.T) {
	w := NewWorker("race")
	band := data.Symmetric(0.5)
	chunk := data.NewRelation("c", 1)
	for i := 0; i < 64; i++ {
		chunk.Append(float64(i) / 64)
	}
	if err := seal(w, toPlan("job", band)); err != nil {
		t.Fatalf("seal: %v", err)
	}
	delta := toPlan("job", band)
	delta.Delta = true

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				p := testPart{pid: round % 5, s: chunk}
				if (g+round)%2 == 1 {
					p = testPart{pid: round % 5, t: chunk}
				}
				if _, err := ship(w, delta, p); err != nil {
					t.Errorf("delta stream: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 15; round++ {
				var jr JoinReply
				if err := w.Join(&JoinArgs{PlanID: "job", Band: band}, &jr); err != nil {
					t.Errorf("Join: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := w.Evict(&EvictArgs{PlanID: "job"}, &EvictReply{}); err != nil {
		t.Fatalf("Evict: %v", err)
	}
}

// TestJoinReplyDeterministicOrder checks that a one-shot stream's reply lists
// partitions in ascending partition-id order regardless of shipping order, and
// that joining the same partitions again, on a join pool of another width,
// produces an identical reply.
func TestJoinReplyDeterministicOrder(t *testing.T) {
	w := NewWorker("det")
	band := data.Symmetric(0.2)
	var parts []testPart
	for _, pid := range []int{7, 2, 9, 0, 5} {
		chunk := data.NewRelation("c", 1)
		ids := make([]int64, 8)
		for i := 0; i < 8; i++ {
			chunk.Append(float64(pid) + float64(i)*0.05)
			ids[i] = int64(pid*100 + i)
		}
		parts = append(parts, testPart{pid: pid, s: chunk, t: chunk, sIDs: ids, tIDs: ids})
	}

	var replies [2]*JoinReply
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, procs := range []int{4, 2} {
		runtime.GOMAXPROCS(procs)
		reply, err := ship(w, oneShotOf(band), parts...)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		replies[i] = reply
	}
	first, second := replies[0], replies[1]
	if len(first.Partitions) != 5 {
		t.Fatalf("got %d partitions, want 5", len(first.Partitions))
	}
	for i, ps := range first.Partitions {
		if i > 0 && first.Partitions[i-1].Partition >= ps.Partition {
			t.Fatalf("partitions not in ascending order: %d before %d", first.Partitions[i-1].Partition, ps.Partition)
		}
	}
	if len(second.Partitions) != len(first.Partitions) {
		t.Fatalf("reply sizes differ across runs: %d vs %d", len(first.Partitions), len(second.Partitions))
	}
	for i := range first.Partitions {
		a, b := first.Partitions[i], second.Partitions[i]
		if a.Partition != b.Partition || a.InputS != b.InputS || a.InputT != b.InputT || a.Output != b.Output {
			t.Fatalf("partition %d differs across runs: %+v vs %+v", i, a, b)
		}
	}
}

func TestWorkerRejectsBadRequests(t *testing.T) {
	w := NewWorker("w0")
	chunk := data.NewRelation("c", 1)
	chunk.Append(1)
	unknownFrame := encodeShipment(toPlan("j", data.Symmetric(1)), func(sw *shipWriter) { sw.write([]byte{'U'}) })
	if _, err := shipBytes(w, unknownFrame); err == nil {
		t.Error("a stream with an unknown frame was accepted")
	}
	invalid := data.Band{Low: []float64{1}, High: []float64{-1}}
	if err := w.Join(&JoinArgs{PlanID: "j", Band: invalid}, &JoinReply{}); err == nil {
		t.Error("Join accepted an invalid band")
	}
	if _, err := ship(w, oneShotOf(invalid), testPart{s: chunk, t: chunk}); err == nil {
		t.Error("a one-shot stream accepted an invalid band")
	}
	// Establish a 1D partition, then try to append a 2D chunk to it: the
	// mismatch must fail the stream instead of desyncing keys from IDs.
	if _, err := ship(w, toPlan("j", data.Symmetric(1)), testPart{pid: 3, s: chunk}); err != nil {
		t.Fatalf("a stream of a valid chunk failed: %v", err)
	}
	wide := data.NewRelation("c2", 2)
	wide.Append(1, 2)
	if _, err := ship(w, toPlan("j", data.Symmetric(1)), testPart{pid: 3, s: wide, sIDs: []int64{1}}); err == nil {
		t.Error("a stream appended a chunk whose dims differ from the partition's")
	}
}

// TestLateRetainedLoadAfterFinalEvict: a retained stream the coordinator
// timed out on may be read after the plan was evicted for good (EvictPlan, or
// a failed shipment's clean-up). Accepted, it would leave rows resident under
// a plan id that no stream or Evict ever names again, and the retention cap,
// which spares unsealed entries as shipments in progress, would never reclaim
// them. A numbered Evict, which precedes every shipment, reopens the id. The
// memory of closed ids is bounded, oldest forgotten first.
func TestLateRetainedLoadAfterFinalEvict(t *testing.T) {
	w := NewWorker("late-retained")
	w.SetMaxRetained(1)
	chunk := data.NewRelation("c", 1)
	chunk.Append(1)
	hdr := toPlan("p", data.Symmetric(1))
	hdr.Attempt = 3
	load := func() error {
		_, err := ship(w, hdr, testPart{s: chunk, sIDs: []int64{7}})
		return err
	}
	if err := w.Evict(&EvictArgs{PlanID: "p", Attempt: 3}, &EvictReply{}); err != nil {
		t.Fatalf("numbered Evict: %v", err)
	}
	if err := load(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if err := w.Evict(&EvictArgs{PlanID: "p"}, &EvictReply{}); err != nil {
		t.Fatalf("final Evict: %v", err)
	}
	if err := load(); err == nil {
		t.Error("a stream read after its plan's final Evict was accepted")
	}
	if n := w.Retained(); n != 0 {
		t.Errorf("%d plans resident after the late stream, want 0", n)
	}
	for _, id := range []string{"q", "r"} {
		if err := seal(w, toPlan(id, data.Symmetric(1))); err != nil {
			t.Fatalf("seal %s: %v", id, err)
		}
	}
	if n := w.Retained(); n != 1 {
		t.Errorf("%d plans resident under a cap of 1, want 1", n)
	}

	// The next shipment of the plan reopens it.
	hdr.Attempt = 4
	if err := w.Evict(&EvictArgs{PlanID: "p", Attempt: 4}, &EvictReply{}); err != nil {
		t.Fatalf("numbered Evict: %v", err)
	}
	if err := load(); err != nil {
		t.Errorf("stream of a reopened plan: %v", err)
	}

	// Closed for good again, then forgotten once closedPlans others closed.
	if err := w.Evict(&EvictArgs{PlanID: "p"}, &EvictReply{}); err != nil {
		t.Fatalf("final Evict: %v", err)
	}
	for i := 0; i < closedPlans; i++ {
		if err := w.Evict(&EvictArgs{PlanID: fmt.Sprint("old-", i)}, &EvictReply{}); err != nil {
			t.Fatalf("final Evict: %v", err)
		}
	}
	if len(w.closed) != closedPlans {
		t.Errorf("worker remembers %d closed plans, want %d", len(w.closed), closedPlans)
	}
	if err := load(); err != nil {
		t.Errorf("stream under an id closed %d plans ago: %v", closedPlans, err)
	}
}

// TestLateSealAfterFinalEvict is the regression test for a seal that brought
// an evicted plan back: after its final Evict, a kept stream of no partitions
// — a retry its coordinator gave up on, landing late — created an empty
// entry, sealed, that a retained Join then answered with zero partitions, and
// that under a retention cap could push a real plan out. (It was a Seal RPC
// when the test was written.) The closed id refuses it.
func TestLateSealAfterFinalEvict(t *testing.T) {
	w := NewWorker("late-seal")
	w.SetMaxRetained(1)
	band := data.Symmetric(0.5)
	if err := seal(w, toPlan("q", band)); err != nil {
		t.Fatalf("seal q: %v", err)
	}
	if err := w.Evict(&EvictArgs{PlanID: "p"}, &EvictReply{}); err != nil {
		t.Fatalf("final Evict: %v", err)
	}
	if err := seal(w, toPlan("p", band)); err == nil {
		t.Error("a Seal after its plan's final Evict was accepted")
	}
	if n := w.Retained(); n != 1 {
		t.Errorf("%d plans resident after the late Seal, want q's 1", n)
	}
	if err := w.Join(&JoinArgs{PlanID: "p", Band: band}, &JoinReply{}); err == nil || !strings.Contains(err.Error(), ErrUnknownRetainedPlan) {
		t.Errorf("retained Join of the evicted plan: err = %v, want %q", err, ErrUnknownRetainedPlan)
	}
	if err := w.Join(&JoinArgs{PlanID: "q", Band: band}, &JoinReply{}); err != nil {
		t.Errorf("retained Join of q, which the late Seal must not push out: %v", err)
	}
}

// TestStaleLoadAfterMidQueryClear: when a kept stream to a live worker dies
// on the wire, the coordinator reships the plan under the same fingerprint,
// the workers cleared for it first. A stream of the aborted shipment that the
// worker reads only after the clearing would land among the reshipped rows
// and be joined twice — a wrong answer, not a leak. Shipments are numbered,
// the clearing call names the one it makes room for, and the worker refuses
// what is older; once the reshipped share is in, any further kept stream is
// refused for meeting it. A delta extends a sealed plan, belongs to no
// shipment, and is not checked.
func TestStaleLoadAfterMidQueryClear(t *testing.T) {
	w := NewWorker("stale")
	row := data.NewRelation("c", 1)
	row.Append(1)
	// load ships row, with ID 7, to the sides named.
	load := func(sides string, attempt int, delta bool) error {
		hdr := toPlan("plan", data.Symmetric(0.5))
		hdr.Attempt, hdr.Delta = attempt, delta
		var p testPart
		if strings.Contains(sides, "S") {
			p.s, p.sIDs = row, []int64{7}
		}
		if strings.Contains(sides, "T") {
			p.t, p.tIDs = row, []int64{7}
		}
		_, err := ship(w, hdr, p)
		return err
	}
	output := func() int64 {
		t.Helper()
		var jr JoinReply
		if err := w.Join(&JoinArgs{PlanID: "plan", Band: data.Symmetric(0.5)}, &jr); err != nil {
			t.Fatalf("Join: %v", err)
		}
		if len(jr.Partitions) != 1 {
			t.Fatalf("joined %d partitions, want 1", len(jr.Partitions))
		}
		return jr.Partitions[0].Output
	}
	mustLoad := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	mustRefuse := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s was accepted, want an error", what)
		}
	}

	mustLoad("first shipment", load("S", 0, false))
	if err := w.Evict(&EvictArgs{PlanID: "plan", Attempt: 1}, &EvictReply{}); err != nil {
		t.Fatalf("clearing Evict: %v", err)
	}
	mustRefuse("a stream of the aborted shipment, first after the clearing", load("S", 0, false))
	mustLoad("second shipment", load("ST", 1, false))
	mustRefuse("a stream of the aborted shipment among the reshipped rows", load("T", 0, false))
	// Cleared a second time, the second shipment is the stale one.
	if err := w.Evict(&EvictArgs{PlanID: "plan", Attempt: 2}, &EvictReply{}); err != nil {
		t.Fatalf("second clearing Evict: %v", err)
	}
	mustRefuse("a stream of the second shipment after the second clearing", load("S", 1, false))
	mustLoad("third shipment", load("ST", 2, false))
	if got := output(); got != 1 {
		t.Errorf("retained plan joined %d pairs, want the reshipped rows' 1", got)
	}
	mustLoad("delta into the sealed plan", load("S", 0, true))
	if got := output(); got != 2 {
		t.Errorf("retained plan joined %d pairs after a one-row delta, want 2", got)
	}
	var er EvictReply
	if err := w.Evict(&EvictArgs{PlanID: "plan"}, &er); err != nil || !er.Existed || w.Retained() != 0 {
		t.Errorf("plain Evict: err %v, existed %v, %d plans resident; want the plan gone", err, er.Existed, w.Retained())
	}
}
