package cluster

import (
	"testing"
	"time"

	"bandjoin/internal/data"
)

// TestDrainGatesDataPlane pins the graceful-shutdown contract of cmd/recpartd:
// after Drain, new Load/Join/Seal work is rejected with a clean error, Ping
// still answers (advertising Draining), and cleanup RPCs (Reset, Evict) keep
// working so coordinators can release state while the worker goes down.
func TestDrainGatesDataPlane(t *testing.T) {
	w := NewWorker("drainer")

	chunk := data.NewRelation("c", 1)
	chunk.Append(1.0)
	load := &LoadArgs{JobID: "job", Partition: 0, Side: "S", Columnar: chunkOf(chunk, []int64{0})}
	if err := w.Load(load, &LoadReply{}); err != nil {
		t.Fatalf("Load before drain: %v", err)
	}

	if !w.Drain(time.Second) {
		t.Fatal("Drain of an idle worker should succeed immediately")
	}

	if err := w.Load(load, &LoadReply{}); err == nil {
		t.Error("Load accepted while draining")
	}
	if err := w.Join(&JoinArgs{JobID: "job", Band: data.Symmetric(1)}, &JoinReply{}); err == nil {
		t.Error("Join accepted while draining")
	}
	if err := w.Seal(&SealArgs{PlanID: "p", Band: data.Symmetric(1)}, &SealReply{}); err == nil {
		t.Error("Seal accepted while draining")
	}

	var pong PingReply
	if err := w.Ping(&PingArgs{}, &pong); err != nil {
		t.Fatalf("Ping while draining: %v", err)
	}
	if !pong.Draining {
		t.Error("Ping while draining should report Draining=true")
	}
	if pong.Jobs != 1 {
		t.Fatalf("worker should still hold the pre-drain job, got %d", pong.Jobs)
	}

	if err := w.Reset(&ResetArgs{JobID: "job"}, &ResetReply{}); err != nil {
		t.Fatalf("Reset while draining: %v", err)
	}
	if err := w.Ping(&PingArgs{}, &pong); err != nil || pong.Jobs != 0 {
		t.Fatalf("Reset while draining should clear the job (err=%v, jobs=%d)", err, pong.Jobs)
	}
	if err := w.Evict(&EvictArgs{PlanID: "p"}, &EvictReply{}); err != nil {
		t.Fatalf("Evict while draining: %v", err)
	}
}
