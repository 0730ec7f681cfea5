// Package chaos provides a deterministic fault-injection harness for the
// cluster plane: a worker served behind an RPC interceptor that drops,
// delays, errors, hangs, or kills specific calls on a seeded schedule. There
// is no wall-clock randomness anywhere — a schedule names the exact k-th
// invocation of an RPC method it perturbs, and the seeded generator derives
// schedules from a seed alone — so every chaos test run sees the identical
// fault sequence.
//
// The package grew out of the ad-hoc fault-injected workers the cluster tests
// used (a wrapper type per failure mode); it replaces them with one reusable
// Node whose behavior is data (a Schedule), not code.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Kind is a fault's failure mode.
type Kind int

const (
	// Error makes the call return an injected application error without
	// reaching the worker. The coordinator must treat it as a clean,
	// non-retriable failure.
	Error Kind = iota
	// Delay stalls the call for Fault.Delay before executing it normally.
	// Exercises slow-worker paths without violating correctness.
	Delay
	// Hang blocks the call until the node is released or stopped, then drops
	// the connection. Exercises the per-call deadline: without one the query
	// would block forever.
	Hang
	// Drop closes the delivering connection before the call executes; the
	// request is lost and the client sees the connection die. The request's
	// fate is ambiguous from the coordinator's side — exactly the failure
	// retries and reshipment must cope with.
	Drop
	// Kill terminates the whole node — listener and every connection — as if
	// the worker process died. Later dials are refused until StartOn revives
	// the address.
	Kill
)

func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Delay:
		return "delay"
	case Hang:
		return "hang"
	case Drop:
		return "drop"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault perturbs one specific RPC invocation or point of a shipment stream.
type Fault struct {
	// Method is the short RPC method name ("Join", "Evict", "Ping",
	// "Stats"), a shipment stream's point ("Open" once its header is read,
	// "Chunk" at each chunk frame, "Reply" between its end frame and its
	// reply; cluster.ShipPoint), or "*" to match any of them.
	Method string
	// Call selects the k-th (0-based) invocation counted per method — or
	// across all methods when Method is "*". The fault fires exactly once.
	Call int
	// Kind is the failure mode.
	Kind Kind
	// Delay is the stall duration of a Delay fault.
	Delay time.Duration
}

func (f Fault) String() string {
	return fmt.Sprintf("%s@%s#%d", f.Kind, f.Method, f.Call)
}

// Schedule is a set of faults armed against a node, with the per-method call
// counters that decide when each fires. A nil Schedule injects nothing.
type Schedule struct {
	mu        sync.Mutex
	faults    []Fault
	fired     []bool
	perMethod map[string]int
	total     int
}

// NewSchedule arms the given faults.
func NewSchedule(faults ...Fault) *Schedule {
	return &Schedule{
		faults:    append([]Fault(nil), faults...),
		fired:     make([]bool, len(faults)),
		perMethod: make(map[string]int),
	}
}

// next consumes one invocation of method and returns the fault to inject on
// it, if any. Counters advance on every invocation whether or not a fault
// matches, so schedules are positional and deterministic.
func (s *Schedule) next(method string) *Fault {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.perMethod[method]
	s.perMethod[method]++
	totalSeq := s.total
	s.total++
	for i := range s.faults {
		if s.fired[i] {
			continue
		}
		f := &s.faults[i]
		if (f.Method == method && f.Call == seq) || (f.Method == "*" && f.Call == totalSeq) {
			s.fired[i] = true
			return f
		}
	}
	return nil
}

// Calls reports how many invocations of method the schedule has observed.
func (s *Schedule) Calls(method string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.perMethod[method]
}

// Generate derives a deterministic pseudo-random schedule of n faults from a
// seed: recoverable kinds only (Drop, Delay, Error) against a one-shot
// query's data plane — its chunks and the join before its reply — so a
// generated schedule can never hang a query or kill the worker; it exercises
// the retry/failover/clean-error envelope. The same seed always yields the
// same schedule.
func Generate(seed int64, n int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{Drop, Delay, Error}
	methods := []string{"Chunk", "Reply"}
	faults := make([]Fault, n)
	for i := range faults {
		faults[i] = Fault{
			Method: methods[rng.Intn(len(methods))],
			Call:   rng.Intn(5),
			Kind:   kinds[rng.Intn(len(kinds))],
			Delay:  time.Duration(1+rng.Intn(40)) * time.Millisecond,
		}
	}
	return NewSchedule(faults...)
}
