package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/rpc"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerState is the coordinator-side health of one worker connection.
//
//	up      — the last RPC or heartbeat succeeded.
//	suspect — a call failed with a transport error (timeout, reset, EOF);
//	          the worker may be slow, restarting, or gone. Queries still try
//	          it; a failed probe demotes it to down.
//	down    — a probe or repeated heartbeats failed. Queries skip it; the
//	          background heartbeat keeps redialing, and any later successful
//	          call (heartbeat or query) promotes it straight back to up.
type WorkerState int32

const (
	StateUp WorkerState = iota
	StateSuspect
	StateDown
)

func (s WorkerState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// DialOptions configures the coordinator's fault-tolerance policy. The zero
// value selects production defaults (and requires every worker at Dial, like
// the original Dial).
type DialOptions struct {
	// MinWorkers is the number of reachable workers required for Dial to
	// succeed; unreachable workers start in the down state and are picked up
	// by the heartbeat when they appear. Zero requires every address to be
	// reachable (the strict historical behavior).
	MinWorkers int
	// CallTimeout is the per-attempt deadline of control-plane RPCs (Ping,
	// Evict, Stats), of dialing, of each frame written to a shipment stream
	// and of a delta stream's reply; zero selects 15s, negative disables the
	// deadline.
	CallTimeout time.Duration
	// JoinTimeout is the per-attempt deadline of Join RPCs and of a one-shot
	// or kept stream's reply (its join runs at the stream's end), which
	// legitimately run long; zero selects 2m, negative disables the deadline (the caller's
	// context still bounds the query).
	JoinTimeout time.Duration
	// MaxRetries is how many times an idempotent RPC is retried after a
	// transport error before the failure escalates to recovery; zero selects
	// 3, negative disables retries.
	MaxRetries int
	// RetryBaseDelay/RetryMaxDelay shape the capped exponential backoff
	// between retries (base 25ms, cap 1s by default). Each attempt waits
	// base<<attempt, capped, plus deterministic jitter in [0, delay/2] drawn
	// from a per-worker generator seeded with Seed — no wall-clock randomness,
	// so a given fault sequence always backs off identically.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// HeartbeatInterval is the cadence of the background Ping probing every
	// worker (detecting silent deaths and redialing down workers); zero
	// selects 3s, negative disables the heartbeat.
	HeartbeatInterval time.Duration
	// Seed drives the retry jitter.
	Seed int64
}

// withDefaults fills unset knobs. It is idempotent.
func (o DialOptions) withDefaults() DialOptions {
	if o.CallTimeout == 0 {
		o.CallTimeout = 15 * time.Second
	}
	if o.JoinTimeout == 0 {
		o.JoinTimeout = 2 * time.Minute
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 25 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 3 * time.Second
	}
	return o
}

// callDeadline returns the effective per-attempt deadline of a control call
// (0 = none).
func (o DialOptions) callDeadline() time.Duration {
	if o.CallTimeout < 0 {
		return 0
	}
	return o.CallTimeout
}

// joinDeadline returns the effective per-attempt deadline of a Join call.
func (o DialOptions) joinDeadline() time.Duration {
	if o.JoinTimeout < 0 {
		return 0
	}
	return o.JoinTimeout
}

// probeDeadline bounds the liveness probes that decide worker death; they
// should answer quickly even when CallTimeout is generous.
func (o DialOptions) probeDeadline() time.Duration {
	d := o.callDeadline()
	if d == 0 || d > 3*time.Second {
		return 3 * time.Second
	}
	return d
}

// errCallTimeout marks an RPC attempt abandoned by the per-call deadline. The
// connection is dropped with it (aborting the in-flight call), so it is a
// transport-level failure: the request may or may not have executed.
var errCallTimeout = errors.New("cluster: rpc call timed out")

// heartbeatDownThreshold is how many consecutive heartbeat failures demote a
// worker to down (a single miss only makes it suspect).
const heartbeatDownThreshold = 2

// isTransportErr reports whether an RPC error is a transport-level failure
// (connection died, timed out, or was never established) as opposed to an
// application error returned by the worker's method. Transport failures leave
// the request's fate unknown and the worker's liveness in question; they are
// the errors worth retrying or failing over. net/rpc surfaces worker-side
// errors as rpc.ServerError and everything else as the raw read/write error.
func isTransportErr(err error) bool {
	if err == nil {
		return false
	}
	var se rpc.ServerError
	if errors.As(err, &se) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, errCallTimeout) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	// net/rpc flattens some transport failures into plain errors; recognize
	// the well-known spellings (ServerError was already excluded above).
	msg := err.Error()
	for _, marker := range []string{
		"connection is shut down",
		"connection reset",
		"connection refused",
		"broken pipe",
		"use of closed network connection",
		"EOF",
	} {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}

// countingConn wraps a worker connection and counts wire bytes in both
// directions into the owning workerClient's counters, so the result's
// shuffle-byte accounting reports real post-gob sizes and survives redials.
type countingConn struct {
	net.Conn
	read    *atomic.Int64
	written *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// workerClient wraps one worker's RPC connection with health tracking,
// per-call deadlines, retry with deterministic backoff, and automatic redial.
type workerClient struct {
	idx  int
	addr string
	opts DialOptions

	state   atomic.Int32
	hbFails atomic.Int32
	hbBusy  atomic.Bool

	// Wire-byte counters live here rather than on the connection so the
	// accounting survives reconnects.
	read    atomic.Int64
	written atomic.Int64

	mu         sync.Mutex // guards client, workerName
	client     *rpc.Client
	workerName string

	// wireVer is the chunk format version the worker advertised in the Ping
	// answered at dial time (read again on every redial, so a worker
	// restarted as another build is picked up automatically). Zero
	// until the first successful Ping; senders refuse anything below
	// wire.Version.
	wireVer atomic.Int32

	rngMu sync.Mutex
	rng   *rand.Rand

	// onTransition, when set (before the client is shared across goroutines),
	// observes every health-state change — the coordinator's metrics hook.
	onTransition func(from, to WorkerState)
}

func newWorkerClient(idx int, addr string, opts DialOptions) *workerClient {
	wc := &workerClient{idx: idx, addr: addr, opts: opts}
	wc.rng = rand.New(rand.NewSource(opts.Seed*1315423911 + int64(idx) + 1))
	wc.state.Store(int32(StateDown))
	return wc
}

// State returns the worker's current health state.
func (wc *workerClient) State() WorkerState { return WorkerState(wc.state.Load()) }

// setState moves the health state and reports the transition (if any) to the
// hook. Swap makes the old state unambiguous under concurrent markers.
func (wc *workerClient) setState(to WorkerState) {
	from := WorkerState(wc.state.Swap(int32(to)))
	if from != to && wc.onTransition != nil {
		wc.onTransition(from, to)
	}
}

func (wc *workerClient) markUp() {
	wc.setState(StateUp)
	wc.hbFails.Store(0)
}

// markSuspect demotes an up worker after a transport failure; a down worker
// stays down (only a successful call resurrects it).
func (wc *workerClient) markSuspect() {
	if wc.state.CompareAndSwap(int32(StateUp), int32(StateSuspect)) && wc.onTransition != nil {
		wc.onTransition(StateUp, StateSuspect)
	}
}

func (wc *workerClient) markDown() { wc.setState(StateDown) }

// name returns the worker's self-reported display name (its address until the
// first successful Ping).
func (wc *workerClient) name() string {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.workerName != "" {
		return wc.workerName
	}
	return wc.addr
}

// dial opens a new connection to the worker (with the call deadline), its
// bytes counted into the client's counters.
func (wc *workerClient) dial() (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", wc.addr, wc.opts.callDeadline())
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, read: &wc.read, written: &wc.written}, nil
}

// conn returns the current client, dialing and verifying the worker with a
// Ping if there is none.
func (wc *workerClient) conn() (*rpc.Client, error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.client != nil {
		return wc.client, nil
	}
	conn, err := wc.dial()
	if err != nil {
		return nil, err
	}
	// The verifying Ping is bounded by a deadline on the connection itself.
	conn.SetDeadline(time.Now().Add(wc.opts.probeDeadline()))
	cl := rpc.NewClient(conn)
	var pong PingReply
	if err := cl.Call(ServiceName+".Ping", &PingArgs{}, &pong); err != nil {
		cl.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	wc.client = cl
	wc.workerName = pong.Worker
	wc.wireVer.Store(int32(pong.WireVersion))
	return cl, nil
}

// wireVersion returns the chunk format version the worker advertised.
func (wc *workerClient) wireVersion() int { return int(wc.wireVer.Load()) }

// dropConn closes and forgets cl if it is still the current connection,
// aborting every call in flight on it. Concurrent callers that already hold
// cl get rpc.ErrShutdown and redial on their next attempt.
func (wc *workerClient) dropConn(cl *rpc.Client) {
	wc.mu.Lock()
	if wc.client == cl {
		wc.client = nil
	}
	wc.mu.Unlock()
	cl.Close()
}

// close tears the connection down for good (coordinator shutdown).
func (wc *workerClient) close() {
	wc.mu.Lock()
	cl := wc.client
	wc.client = nil
	wc.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// callOnce issues one RPC attempt with a deadline, updating the health state.
// A timeout or cancellation drops the connection, aborting the in-flight call
// (a hung worker must never pin the query). The attempt decodes into a fresh
// reply value and copies it out only on success, so a retry can never race an
// abandoned attempt's decode into the same reply.
func (wc *workerClient) callOnce(ctx context.Context, method string, args, reply any, timeout time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cl, err := wc.conn()
	if err != nil {
		wc.markSuspect()
		return err
	}
	attemptReply := reflect.New(reflect.TypeOf(reply).Elem()).Interface()
	call := cl.Go(method, args, attemptReply, make(chan *rpc.Call, 1))
	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case <-ctx.Done():
		wc.dropConn(cl)
		return ctx.Err()
	case <-timerC:
		wc.dropConn(cl)
		wc.markSuspect()
		return fmt.Errorf("%w: %s to worker %d (%s) after %v", errCallTimeout, method, wc.idx, wc.name(), timeout)
	case c := <-call.Done:
		if c.Error != nil {
			if isTransportErr(c.Error) {
				wc.dropConn(cl)
				wc.markSuspect()
			}
			return c.Error
		}
		wc.markUp()
		reflect.ValueOf(reply).Elem().Set(reflect.ValueOf(attemptReply).Elem())
		return nil
	}
}

// call issues an RPC with the retry policy for idempotent methods: transport
// errors are retried up to `retries` times with capped exponential backoff and
// deterministic jitter; application errors and context cancellation return
// immediately. onRetry (optional) is invoked before each retry so queries can
// account for them.
func (wc *workerClient) call(ctx context.Context, method string, args, reply any, timeout time.Duration, retries int, onRetry func()) error {
	for attempt := 0; ; attempt++ {
		err := wc.callOnce(ctx, method, args, reply, timeout)
		if err == nil {
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if !isTransportErr(err) || attempt >= retries {
			return err
		}
		if onRetry != nil {
			onRetry()
		}
		if berr := wc.backoff(ctx, attempt); berr != nil {
			return err
		}
	}
}

// backoff sleeps base<<attempt capped at the max, plus deterministic jitter in
// [0, delay/2] from the per-worker seeded generator, honoring ctx.
func (wc *workerClient) backoff(ctx context.Context, attempt int) error {
	d := wc.opts.RetryBaseDelay
	for i := 0; i < attempt && d < wc.opts.RetryMaxDelay; i++ {
		d *= 2
	}
	if d > wc.opts.RetryMaxDelay {
		d = wc.opts.RetryMaxDelay
	}
	wc.rngMu.Lock()
	jitter := time.Duration(wc.rng.Int63n(int64(d)/2 + 1))
	wc.rngMu.Unlock()
	timer := time.NewTimer(d + jitter)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// probe decides, after a transport failure, whether the worker is alive: a
// short Ping, retried once. Alive workers can have their partial state cleared
// and reshipped; a worker that fails the probe is marked down and its
// partitions fail over to the survivors (the heartbeat keeps redialing it).
func (wc *workerClient) probe(ctx context.Context) bool {
	for attempt := 0; attempt < 2; attempt++ {
		if ctx.Err() != nil {
			return false
		}
		if attempt > 0 {
			if wc.backoff(ctx, 0) != nil {
				return false
			}
		}
		var pong PingReply
		if wc.callOnce(ctx, ServiceName+".Ping", &PingArgs{}, &pong, wc.opts.probeDeadline()) == nil {
			return true
		}
	}
	wc.markDown()
	return false
}

// heartbeat fires one background liveness probe unless the previous one is
// still in flight (a hung worker must not stack probes). Failures demote the
// worker (suspect, then down); any success — including the redial inside
// callOnce — promotes it back to up.
func (wc *workerClient) heartbeat() {
	if !wc.hbBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer wc.hbBusy.Store(false)
		var pong PingReply
		err := wc.callOnce(context.Background(), ServiceName+".Ping", &PingArgs{}, &pong, wc.opts.probeDeadline())
		if err != nil && wc.hbFails.Add(1) >= heartbeatDownThreshold {
			wc.markDown()
		}
	}()
}

// Dial connects to the given worker addresses with default fault-tolerance
// options; every address must be reachable.
func Dial(addrs []string) (*Coordinator, error) {
	return DialConfig(addrs, DialOptions{})
}

// DialConfig connects to the given worker addresses. With opts.MinWorkers > 0
// the coordinator starts as long as that many workers are reachable; the rest
// begin down and join the pool when the background heartbeat reaches them.
func DialConfig(addrs []string, opts DialOptions) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses")
	}
	opts = opts.withDefaults()
	if opts.MinWorkers > len(addrs) {
		return nil, fmt.Errorf("cluster: MinWorkers %d exceeds the %d worker addresses", opts.MinWorkers, len(addrs))
	}
	c := &Coordinator{opts: opts, hbStop: make(chan struct{})}
	c.m = newCoordMetrics(c)
	reachable := 0
	var firstErr error
	for i, addr := range addrs {
		wc := newWorkerClient(i, addr, opts)
		wc.onTransition = c.m.transition
		if _, err := wc.conn(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: dialing worker %s: %w", addr, err)
			}
		} else {
			wc.markUp()
			reachable++
		}
		c.workers = append(c.workers, wc)
	}
	need := opts.MinWorkers
	if need == 0 {
		need = len(addrs)
	}
	if reachable < need {
		c.Close()
		return nil, fmt.Errorf("cluster: only %d of %d workers reachable, need %d: %w",
			reachable, len(addrs), need, firstErr)
	}
	if opts.HeartbeatInterval > 0 {
		c.hbWG.Add(1)
		go c.heartbeatLoop()
	}
	return c, nil
}

// heartbeatLoop drives the background liveness probes until Close.
func (c *Coordinator) heartbeatLoop() {
	defer c.hbWG.Done()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-ticker.C:
		}
		for _, wc := range c.workers {
			wc.heartbeat()
		}
	}
}
