package chaos

import (
	"errors"
	"io"
	"net"
	"net/rpc"
	"sync"
	"time"

	"bandjoin/internal/cluster"
)

// ErrInjected is the application error an Error fault returns to the
// coordinator.
var ErrInjected = errors.New("chaos: injected fault")

// Node serves one cluster.Worker behind the fault interceptor. Every RPC
// method passes through the node's Schedule before (maybe) reaching the
// worker, and so does every shipment stream at each of its points ("Open",
// "Chunk", "Reply": cluster.ShipPoint), through the worker's ship hook. The
// node owns the listener and every accepted connection so Drop, Hang, and
// Kill faults can sever them mid-call.
type Node struct {
	worker *cluster.Worker
	sched  *Schedule

	released chan struct{}
	relOnce  sync.Once

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	killed bool
}

// Start serves worker on an ephemeral localhost address with sched armed
// (nil for no faults).
func Start(worker *cluster.Worker, sched *Schedule) (*Node, error) {
	return StartOn("127.0.0.1:0", worker, sched)
}

// StartOn serves worker on addr. Reviving a killed worker on its old address
// — the coordinator's heartbeat should find it again — is exactly
// StartOn(dead.Addr(), freshWorker, nil).
func StartOn(addr string, worker *cluster.Worker, sched *Schedule) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		worker:   worker,
		sched:    sched,
		released: make(chan struct{}),
		ln:       ln,
		conns:    make(map[net.Conn]struct{}),
	}
	worker.SetShipHook(n.interceptShip)
	go n.acceptLoop(ln)
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string {
	return n.ln.Addr().String()
}

// Worker returns the wrapped worker (for direct state assertions in tests).
func (n *Node) Worker() *cluster.Worker { return n.worker }

// Killed reports whether a Kill fault (or Kill call) has terminated the node.
func (n *Node) Killed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.killed
}

func (n *Node) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.killed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		go func() {
			defer n.forget(conn)
			c, stream, err := cluster.SplitConn(conn)
			switch {
			case err != nil:
			case stream:
				n.worker.ServeShipment(c)
			default:
				// One server per connection: the interceptor service is bound
				// to the delivering conn, which Drop/Hang faults need to sever.
				srv := rpc.NewServer()
				_ = srv.RegisterName(cluster.ServiceName, &chaosService{node: n, conn: conn})
				srv.ServeConn(c)
			}
		}()
	}
}

func (n *Node) forget(conn net.Conn) {
	n.mu.Lock()
	delete(n.conns, conn)
	n.mu.Unlock()
	conn.Close()
}

// Release unblocks every Hang fault currently blocking (their connections are
// then dropped). Idempotent.
func (n *Node) Release() {
	n.relOnce.Do(func() { close(n.released) })
}

// Kill terminates the node as a process death would: the listener closes, so
// do all live connections, and later dials are refused. Idempotent.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.killed {
		n.mu.Unlock()
		return
	}
	n.killed = true
	ln := n.ln
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.conns = make(map[net.Conn]struct{})
	n.mu.Unlock()
	ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// Stop shuts the node down at test cleanup: hung calls are released, then the
// node is killed. Safe to call on an already-killed node.
func (n *Node) Stop() {
	n.Release()
	n.Kill()
}

// intercept applies the scheduled fault (if any) of one method invocation and
// otherwise executes it.
func (n *Node) intercept(method string, conn net.Conn, invoke func() error) error {
	return n.fault(method, conn, invoke, func() { <-n.released })
}

// interceptShip is the worker's ship hook: it applies the scheduled fault (if
// any) of one point of a shipment stream. A hung stream stops being read: it
// ends when the node is released or when the coordinator, whose own deadline
// bounds the wait, gives up on the connection — so a hang leaves no stream
// open behind a query that has moved on.
func (n *Node) interceptShip(ev *cluster.ShipEvent) error {
	return n.fault(ev.At.String(), ev.Conn, func() error { return nil }, func() {
		gone := make(chan struct{})
		go func() {
			io.Copy(io.Discard, ev.Conn)
			close(gone)
		}()
		select {
		case <-n.released:
		case <-gone:
		}
	})
}

// fault applies the scheduled fault (if any) of one invocation of method on
// conn and otherwise executes it. A Hang waits in hang.
func (n *Node) fault(method string, conn net.Conn, invoke func() error, hang func()) error {
	f := n.sched.next(method)
	if f == nil {
		return invoke()
	}
	switch f.Kind {
	case Error:
		return ErrInjected
	case Delay:
		timer := time.NewTimer(f.Delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-n.released:
		}
		return invoke()
	case Hang:
		// Block until released (or the node dies), then sever the connection:
		// the client must experience a call that never answers, bounded only
		// by its own deadline.
		hang()
		conn.Close()
		return ErrInjected
	case Drop:
		// The request is lost before executing; closing the conn is all the
		// client ever observes.
		conn.Close()
		return ErrInjected
	case Kill:
		n.Kill()
		return ErrInjected
	}
	return invoke()
}

// chaosService is the per-connection RPC surface: each method funnels through
// the node's interceptor into the real worker.
type chaosService struct {
	node *Node
	conn net.Conn
}

func (s *chaosService) Join(args *cluster.JoinArgs, reply *cluster.JoinReply) error {
	return s.node.intercept("Join", s.conn, func() error { return s.node.worker.Join(args, reply) })
}

func (s *chaosService) Seal(args *cluster.SealArgs, reply *cluster.SealReply) error {
	return s.node.intercept("Seal", s.conn, func() error { return s.node.worker.Seal(args, reply) })
}

func (s *chaosService) Evict(args *cluster.EvictArgs, reply *cluster.EvictReply) error {
	return s.node.intercept("Evict", s.conn, func() error { return s.node.worker.Evict(args, reply) })
}

func (s *chaosService) Ping(args *cluster.PingArgs, reply *cluster.PingReply) error {
	return s.node.intercept("Ping", s.conn, func() error { return s.node.worker.Ping(args, reply) })
}

func (s *chaosService) Stats(args *cluster.StatsArgs, reply *cluster.StatsReply) error {
	return s.node.intercept("Stats", s.conn, func() error { return s.node.worker.Stats(args, reply) })
}
