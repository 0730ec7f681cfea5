package cluster

import (
	"testing"
	"time"

	"bandjoin/internal/data"
)

// TestDrainGatesDataPlane pins the graceful-shutdown contract of cmd/recpartd:
// after Drain, new shipment streams and Join work are rejected with a
// clean error, Ping still answers (advertising Draining), and Evict keeps
// working so coordinators can release state while the worker goes down.
func TestDrainGatesDataPlane(t *testing.T) {
	w := NewWorker("drainer")

	chunk := data.NewRelation("c", 1)
	chunk.Append(1.0)
	load := func() error {
		_, err := ship(w, toPlan("p", data.Symmetric(1)), testPart{s: chunk})
		return err
	}
	if err := load(); err != nil {
		t.Fatalf("stream before drain: %v", err)
	}

	if !w.Drain(time.Second) {
		t.Fatal("Drain of an idle worker should succeed immediately")
	}

	if err := load(); err == nil {
		t.Error("stream accepted while draining")
	}
	if _, err := ship(w, oneShotOf(data.Symmetric(1)), testPart{s: chunk, t: chunk}); err == nil {
		t.Error("one-shot stream accepted while draining")
	}
	if err := w.Join(&JoinArgs{PlanID: "p", Band: data.Symmetric(1)}, &JoinReply{}); err == nil {
		t.Error("Join accepted while draining")
	}
	if err := seal(w, toPlan("p", data.Symmetric(1))); err == nil {
		t.Error("seal accepted while draining")
	}

	var pong PingReply
	if err := w.Ping(&PingArgs{}, &pong); err != nil {
		t.Fatalf("Ping while draining: %v", err)
	}
	if !pong.Draining {
		t.Error("Ping while draining should report Draining=true")
	}
	if pong.Retained != 1 {
		t.Fatalf("worker should still hold the pre-drain shipment, got %d plans", pong.Retained)
	}

	if err := w.Evict(&EvictArgs{PlanID: "p"}, &EvictReply{}); err != nil {
		t.Fatalf("Evict while draining: %v", err)
	}
	if err := w.Ping(&PingArgs{}, &pong); err != nil || pong.Retained != 0 {
		t.Fatalf("Evict while draining should clear the plan (err=%v, plans=%d)", err, pong.Retained)
	}
}
