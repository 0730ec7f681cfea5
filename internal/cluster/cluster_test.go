package cluster

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
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
	"bandjoin/internal/wire"
)

// chunkOf encodes rel's rows, with the given tuple IDs, as the one columnar
// chunk of a hand-made Load.
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
	sim, err := exec.Run(core.NewRecPartS(), s, tt, band, simOpts)
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
		sim, err := exec.Run(pt, s, tt, band, simOpts)
		if err != nil {
			t.Fatalf("simulator run (%s): %v", pt.Name(), err)
		}
		if len(sim.Pairs) == 0 {
			t.Fatalf("%s: simulator produced no pairs", pt.Name())
		}
		samePairs(t, pt.Name()+": simulator vs nested loop", sim.Pairs, want)
		t.Run(pt.Name()+"/streaming", func(t *testing.T) {
			dist, err := coord.Run(context.Background(), pt, s, tt, band,
				Options{CollectPairs: true, Seed: 11, ChunkSize: 128, Window: 3})
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

// serveService runs an arbitrary RPC service under the worker service name on
// an ephemeral loopback port, for fault-injection tests.
func serveService(t *testing.T, svc any) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := rpc.NewServer()
	if err := srv.RegisterName(ServiceName, svc); err != nil {
		ln.Close()
		t.Fatalf("register: %v", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// failLoadWorker is a worker whose Load always fails, simulating a node that
// dies mid-shuffle.
type failLoadWorker struct{ *Worker }

func (w *failLoadWorker) Load(_ *LoadArgs, _ *LoadReply) error {
	return fmt.Errorf("synthetic mid-shuffle failure")
}

// failJoinWorker is a worker that accepts partition data but fails every
// join, simulating a node that dies mid-reduce.
type failJoinWorker struct{ *Worker }

func (w *failJoinWorker) Join(_ *JoinArgs, _ *JoinReply) error {
	return fmt.Errorf("synthetic mid-join failure")
}

// TestFailedRunLeavesNoJobState is the leak regression test: a run that
// errors mid-shuffle or mid-join must leave zero retained job state on every
// worker.
func TestFailedRunLeavesNoJobState(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.2, 400, 31)
	band := data.Symmetric(0.4, 0.4)

	cases := []struct {
		name  string
		inner *Worker
		make  func(*Worker) any
	}{
		{"load-failure", NewWorker("bad-load"), func(w *Worker) any { return &failLoadWorker{Worker: w} }},
		{"join-failure", NewWorker("bad-join"), func(w *Worker) any { return &failJoinWorker{Worker: w} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			good := NewWorker("good")
			goodAddr, stopGood := serveService(t, good)
			defer stopGood()
			badAddr, stopBad := serveService(t, tc.make(tc.inner))
			defer stopBad()

			coord, err := Dial([]string{goodAddr, badAddr})
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

			for _, w := range []*Worker{good, tc.inner} {
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

// TestWorkerLoadJoinRaceSafety hammers one worker with concurrent Load
// batches and Join requests for the same job; run under -race (as CI does) it
// verifies the per-job and per-partition locking that lets the pipelined
// shuffle overlap late batches with running joins.
func TestWorkerLoadJoinRaceSafety(t *testing.T) {
	w := NewWorker("race")
	band := data.Symmetric(0.5)
	chunk := data.NewRelation("c", 1)
	ids := make([]int64, 64)
	for i := 0; i < 64; i++ {
		chunk.Append(float64(i) / 64)
		ids[i] = int64(i)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				side := "S"
				if (g+round)%2 == 1 {
					side = "T"
				}
				var lr LoadReply
				if err := w.Load(&LoadArgs{JobID: "job", Partition: round % 5, Side: side, Columnar: chunkOf(chunk, ids)}, &lr); err != nil {
					t.Errorf("Load: %v", err)
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
				if err := w.Join(&JoinArgs{JobID: "job", Band: band, Parallelism: 3}, &jr); err != nil {
					t.Errorf("Join: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	var rr ResetReply
	if err := w.Reset(&ResetArgs{JobID: "job"}, &rr); err != nil {
		t.Fatalf("Reset: %v", err)
	}
}

// TestJoinReplyDeterministicOrder checks that Join replies list partitions in
// ascending partition-id order regardless of load order, and that repeated
// joins of the same state produce identical replies.
func TestJoinReplyDeterministicOrder(t *testing.T) {
	w := NewWorker("det")
	band := data.Symmetric(0.2)
	for _, pid := range []int{7, 2, 9, 0, 5} {
		chunk := data.NewRelation("c", 1)
		ids := make([]int64, 8)
		for i := 0; i < 8; i++ {
			chunk.Append(float64(pid) + float64(i)*0.05)
			ids[i] = int64(pid*100 + i)
		}
		for _, side := range []string{"S", "T"} {
			var lr LoadReply
			if err := w.Load(&LoadArgs{JobID: "j", Partition: pid, Side: side, Columnar: chunkOf(chunk, ids)}, &lr); err != nil {
				t.Fatalf("Load partition %d side %s: %v", pid, side, err)
			}
		}
	}

	var first, second JoinReply
	if err := w.Join(&JoinArgs{JobID: "j", Band: band, Parallelism: 4}, &first); err != nil {
		t.Fatalf("first Join: %v", err)
	}
	if err := w.Join(&JoinArgs{JobID: "j", Band: band, Parallelism: 2}, &second); err != nil {
		t.Fatalf("second Join: %v", err)
	}
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
	var lr LoadReply
	chunk := data.NewRelation("c", 1)
	chunk.Append(1)
	if err := w.Load(&LoadArgs{JobID: "j", Partition: 0, Side: "X", Columnar: chunkOf(chunk, []int64{0})}, &lr); err == nil {
		t.Error("Load accepted an unknown relation side")
	}
	var jr JoinReply
	if err := w.Join(&JoinArgs{JobID: "j", Band: data.Band{Low: []float64{1}, High: []float64{-1}}}, &jr); err == nil {
		t.Error("Join accepted an invalid band")
	}
	// Establish a 1D partition, then try to append a 2D chunk to it: the
	// mismatch must fail the Load instead of desyncing keys from IDs.
	if err := w.Load(&LoadArgs{JobID: "j", Partition: 3, Side: "S", Columnar: chunkOf(chunk, []int64{0})}, &lr); err != nil {
		t.Fatalf("Load of a valid chunk failed: %v", err)
	}
	wide := data.NewRelation("c2", 2)
	wide.Append(1, 2)
	if err := w.Load(&LoadArgs{JobID: "j", Partition: 3, Side: "S", Columnar: chunkOf(wide, []int64{1})}, &lr); err == nil {
		t.Error("Load accepted a chunk whose dims differ from the partition's")
	}
}

// TestWorkerRefusesLoadWithoutColumnarChunk: a data-bearing Load with an empty
// Columnar field is what a coordinator from before wire.Version sends (gob
// drops the row-major fields this worker no longer declares). The worker must
// say so, naming the version it reads, and keep nothing.
func TestWorkerRefusesLoadWithoutColumnarChunk(t *testing.T) {
	w := NewWorker("w0")
	err := w.Load(&LoadArgs{JobID: "j", Partition: 0, Side: "S", SideTotal: 1}, &LoadReply{})
	if err == nil {
		t.Fatal("Load without a columnar chunk was accepted")
	}
	if want := fmt.Sprintf("wire version %d", wire.Version); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	var pong PingReply
	if err := w.Ping(&PingArgs{}, &pong); err != nil || pong.Jobs != 0 {
		t.Errorf("after the refused Load: Ping err %v, %d jobs resident, want 0", err, pong.Jobs)
	}
}

// TestLateLoadAfterFinalReset is the regression test for a leak: a Load (or
// Complete marker) that the network delayed past its query's last Reset found
// no job and created one that nothing would ever reset. A final Reset closes
// the id; a Reset that clears a worker before reshipping under the same id
// does not.
func TestLateLoadAfterFinalReset(t *testing.T) {
	w := NewWorker("late")
	chunk := data.NewRelation("c", 1)
	chunk.Append(1)
	load := func(job string) error {
		return w.Load(&LoadArgs{JobID: job, Partition: 0, Side: "S", Columnar: chunkOf(chunk, []int64{7})}, &LoadReply{})
	}
	jobs := func() int {
		var pong PingReply
		if err := w.Ping(&PingArgs{}, &pong); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		return pong.Jobs
	}

	if err := load("q1"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := w.Reset(&ResetArgs{JobID: "q1"}, &ResetReply{}); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := load("q1"); err != nil || jobs() != 1 {
		t.Fatalf("reship after a mid-query Reset: err %v, %d jobs resident, want 1", err, jobs())
	}

	// Twice, as the coordinator's retry does.
	for i := 0; i < 2; i++ {
		if err := w.Reset(&ResetArgs{JobID: "q1", Final: true}, &ResetReply{}); err != nil {
			t.Fatalf("final Reset: %v", err)
		}
	}
	if err := load("q1"); err == nil {
		t.Error("Load after the job's final Reset succeeded, want an error")
	}
	marker := &LoadArgs{JobID: "q1", Partition: 0, Complete: true, Band: data.Symmetric(1)}
	if err := w.Load(marker, &LoadReply{}); err == nil {
		t.Error("Complete marker after the job's final Reset succeeded, want an error")
	}
	if n := jobs(); n != 0 {
		t.Errorf("%d jobs resident after late loads, want 0", n)
	}
	if err := load("q2"); err != nil {
		t.Errorf("Load of another job: %v", err)
	}

	// The memory of closed ids is bounded, oldest forgotten first.
	for i := 0; i < closedJobs; i++ {
		if err := w.Reset(&ResetArgs{JobID: fmt.Sprint("old-", i), Final: true}, &ResetReply{}); err != nil {
			t.Fatalf("final Reset: %v", err)
		}
	}
	if len(w.closed) != closedJobs {
		t.Errorf("worker remembers %d closed jobs, want %d", len(w.closed), closedJobs)
	}
	if err := load("q1"); err != nil {
		t.Errorf("Load under an id closed %d jobs ago: %v", closedJobs, err)
	}
}

// TestStaleLoadAfterMidQueryClear: when a shipment to a live worker dies on
// the wire, the coordinator clears that worker and ships again under the same
// job id (or plan fingerprint). A Load of the aborted shipment that is still
// in flight then arrives after the clearing; accepted, its rows sit beside
// their reshipped copies and are joined twice — a wrong answer, not a leak.
// Shipments are numbered, the clearing call names the one it makes room for,
// and the worker refuses what is older.
func TestStaleLoadAfterMidQueryClear(t *testing.T) {
	w := NewWorker("stale")
	row := func(v float64) *data.Relation {
		r := data.NewRelation("c", 1)
		r.Append(v)
		return r
	}
	load := func(job, side string, attempt int, retain, delta bool) error {
		return w.Load(&LoadArgs{JobID: job, Partition: 0, Side: side, Columnar: chunkOf(row(1), []int64{7}),
			Attempt: attempt, Retain: retain, Delta: delta}, &LoadReply{})
	}
	output := func(job string, retained bool) int64 {
		t.Helper()
		var jr JoinReply
		if err := w.Join(&JoinArgs{JobID: job, Band: data.Symmetric(0.5), Retained: retained}, &jr); err != nil {
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

	// Transient job: S and half-shipped T, cleared, shipped again.
	mustLoad("first shipment, S", load("q", "S", 0, false, false))
	mustLoad("first shipment, T", load("q", "T", 0, false, false))
	if err := w.Reset(&ResetArgs{JobID: "q", Attempt: 1}, &ResetReply{}); err != nil {
		t.Fatalf("clearing Reset: %v", err)
	}
	mustRefuse("a Load of the aborted shipment, first after the clearing", load("q", "S", 0, false, false))
	mustLoad("second shipment, S", load("q", "S", 1, false, false))
	mustLoad("second shipment, T", load("q", "T", 1, false, false))
	mustRefuse("a Load of the aborted shipment among the reshipped rows", load("q", "T", 0, false, false))
	mustRefuse("a Complete marker of the aborted shipment",
		w.Load(&LoadArgs{JobID: "q", Partition: 0, Complete: true, ExpectS: 1, ExpectT: 1, Band: data.Symmetric(0.5)}, &LoadReply{}))
	if got := output("q", false); got != 1 {
		t.Errorf("transient job joined %d pairs, want the reshipped rows' 1", got)
	}
	// Cleared a second time, the second shipment is the stale one.
	if err := w.Reset(&ResetArgs{JobID: "q", Attempt: 2}, &ResetReply{}); err != nil {
		t.Fatalf("second clearing Reset: %v", err)
	}
	mustRefuse("a Load of the second shipment after the second clearing", load("q", "S", 1, false, false))
	mustLoad("third shipment", load("q", "S", 2, false, false))
	if err := w.Reset(&ResetArgs{JobID: "q", Final: true}, &ResetReply{}); err != nil {
		t.Fatalf("final Reset: %v", err)
	}
	var pong PingReply
	if err := w.Ping(&PingArgs{}, &pong); err != nil || pong.Jobs != 0 {
		t.Errorf("after the final Reset: Ping err %v, %d jobs resident, want 0", err, pong.Jobs)
	}

	// Retained plan: the same, cleared by Evict; then sealed and extended by a
	// delta, which belongs to no shipment and carries no number.
	mustLoad("first retained shipment", load("plan", "S", 0, true, false))
	if err := w.Evict(&EvictArgs{PlanID: "plan", Attempt: 1}, &EvictReply{}); err != nil {
		t.Fatalf("clearing Evict: %v", err)
	}
	mustRefuse("a retained Load of the aborted shipment", load("plan", "S", 0, true, false))
	mustLoad("second retained shipment, S", load("plan", "S", 1, true, false))
	mustLoad("second retained shipment, T", load("plan", "T", 1, true, false))
	if err := w.Seal(&SealArgs{PlanID: "plan", Band: data.Symmetric(0.5)}, &SealReply{}); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if got := output("plan", true); got != 1 {
		t.Errorf("retained plan joined %d pairs, want the reshipped rows' 1", got)
	}
	mustLoad("delta into the sealed plan", load("plan", "S", 0, true, true))
	if got := output("plan", true); got != 2 {
		t.Errorf("retained plan joined %d pairs after a one-row delta, want 2", got)
	}
	var er EvictReply
	if err := w.Evict(&EvictArgs{PlanID: "plan"}, &er); err != nil || !er.Existed || w.Retained() != 0 {
		t.Errorf("plain Evict: err %v, existed %v, %d plans resident; want the plan gone", err, er.Existed, w.Retained())
	}
}
