package cluster

import (
	"context"
	"net"
	"net/rpc"
	"sync"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
)

// tapService is a Worker's RPC surface with a hook in front of Load: the hook
// sees each Load's arguments, and the connection that delivered them, before
// the worker does, and an error it returns fails the call without reaching the
// worker. Every other method is the worker's own.
type tapService struct {
	*Worker
	conn   net.Conn
	onLoad func(conn net.Conn, args *LoadArgs) error
}

func (s *tapService) Load(args *LoadArgs, reply *LoadReply) error {
	if err := s.onLoad(s.conn, args); err != nil {
		return err
	}
	return s.Worker.Load(args, reply)
}

// startTapped serves n fresh workers behind onLoad (which net/rpc calls from
// one goroutine per request, also concurrently) and dials them.
func startTapped(t *testing.T, n int, onLoad func(slot int, conn net.Conn, args *LoadArgs) error) (*Coordinator, []*Worker) {
	t.Helper()
	var workers []*Worker
	var addrs []string
	for slot := 0; slot < n; slot++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { ln.Close() })
		w := NewWorker("tapped")
		go func(slot int) {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return // listener closed
				}
				srv := rpc.NewServer()
				_ = srv.RegisterName(ServiceName, &tapService{Worker: w, conn: conn,
					onLoad: func(conn net.Conn, args *LoadArgs) error { return onLoad(slot, conn, args) }})
				go srv.ServeConn(conn)
			}
		}(slot)
		workers = append(workers, w)
		addrs = append(addrs, ln.Addr().String())
	}
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord, workers
}

// TestStaleLoadAcrossReshippedPlan: shipments used to be numbered from 0 in
// every shipPartitions call, so a Load that outlived its whole shipment — the
// plan failed or was evicted, and a later query shipped it again under the
// same fingerprint — carried number 0 into a shipment that was number 0 too,
// and the worker joined its rows beside their reshipped copies. Shipments are
// numbered per coordinator now, and the clearing that precedes a plan's
// shipment tells every worker its number. The late Load is staged, not raced:
// the first shipment's first data Load is kept, and replayed on its worker at
// the moment the second shipment's first Load arrives there.
func TestStaleLoadAcrossReshippedPlan(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.3, 300, 61)
	band := data.Symmetric(0.4, 0.4)
	want := definitionPairs(s, tt, band)

	var mu sync.Mutex
	var stale *LoadArgs
	staleSlot, replay, replayed := -1, false, false
	var replayErr error
	var workers []*Worker
	coord, tapped := startTapped(t, 2, func(slot int, _ net.Conn, args *LoadArgs) error {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case stale == nil:
			stale, staleSlot = args, slot
		case replay && !replayed && slot == staleSlot:
			replayed = true
			replayErr = workers[slot].Load(stale, &LoadReply{})
		}
		return nil
	})
	mu.Lock()
	workers = tapped
	mu.Unlock()

	opts := Options{CollectPairs: true, ChunkSize: 64, PlanID: "plan|stale", Seed: 9}
	res, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	samePairs(t, "first shipment", res.Pairs, want)
	coord.EvictPlan(opts.PlanID)

	mu.Lock()
	replay = true
	mu.Unlock()
	res, err = coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if res.WarmPartitions || !replayed {
		t.Fatalf("the plan was not shipped again (warm %v, replayed %v); the test stages nothing", res.WarmPartitions, replayed)
	}
	if replayErr == nil {
		t.Errorf("a Load of shipment %d was accepted into the plan's next shipment", stale.Attempt)
	}
	samePairs(t, "second shipment", res.Pairs, want)
}
