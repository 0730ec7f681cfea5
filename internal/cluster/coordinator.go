package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"net/rpc"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/obs"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
	"bandjoin/internal/wire"
)

// Coordinator drives a distributed band-join over a set of RPC workers: it
// runs the optimization phase locally (on samples), shuffles the inputs to
// the workers according to the plan, triggers the local joins, and aggregates
// the results into the same Result structure the in-process simulator
// produces.
//
// The data plane is a pipelined streaming shuffle: inputs are routed by the
// same sharded pass as the in-process executor's (exec.Route) into
// per-partition row lists — no copy of the input is made — and each worker has
// a dedicated sender goroutine that gathers one fixed-size chunk at a time out
// of the source relations and writes it columnar (internal/wire) to one
// ordered shipment stream (stream.go), so gathering, encoding, network
// transfer, and the worker's decode+append overlap, TCP's flow control
// bounding how far the sender runs ahead. A query's stream carries its band,
// one-shot or kept under a retained plan's fingerprint alike; the worker builds
// each partition's join structure as soon as it is complete and joins at the
// end of the stream, answering with the join. Only a warm retained query joins
// through an RPC (Join).
//
// The coordinator is fault tolerant (see DESIGN.md, "Failure model"): every
// RPC carries a deadline and honors the query's context, idempotent calls are
// retried with capped deterministic backoff, and a worker that dies
// mid-query has its partitions re-placed over the survivors and reshipped
// from the coordinator's held row lists — the query completes degraded
// (Result.Degraded/LostWorkers/Retries) instead of failing. Application
// errors returned by a worker's method are never retried or failed over:
// they indicate a semantic problem that reshipping cannot fix, and the query
// fails cleanly.
type Coordinator struct {
	workers []*workerClient
	opts    DialOptions

	hbStop    chan struct{}
	hbWG      sync.WaitGroup
	closeOnce sync.Once

	// retained holds one entry per plan fingerprint that is sealed on the
	// workers or being shipped to them; an entry's Fill lock is its shipment
	// lock, its covered prefixes and routed total are the shipment's.
	retained exec.Registry[shipment]

	// shipments numbers every shipment this coordinator makes, to any worker
	// under any plan fingerprint (see ShipHeader.Attempt): one monotone
	// counter, so whatever a worker is cleared for is newer than every stream
	// it has yet to read — of this shipPartitions call or of one long
	// returned.
	shipments atomic.Int64

	m *coordMetrics
}

// coordMetrics is the coordinator's observability surface: per-run data-plane
// totals, fault-path counters (retries, failover rounds, lost workers), and
// worker health transitions, plus occupancy gauges. Counters are folded in
// once per query at aggregation time; transitions are recorded by the worker
// clients as they happen.
type coordMetrics struct {
	reg *obs.Registry

	runs            *obs.Counter
	shuffleBytes    *obs.Counter
	shuffleRawBytes *obs.Counter
	shuffleRPCs     *obs.Counter
	retries         *obs.Counter
	failoverRounds  *obs.Counter
	workersLost     *obs.Counter
	transUp         *obs.Counter
	transSuspect    *obs.Counter
	transDown       *obs.Counter
}

func newCoordMetrics(c *Coordinator) *coordMetrics {
	reg := obs.NewRegistry()
	m := &coordMetrics{
		reg:          reg,
		runs:         reg.Counter("bandjoin_coord_runs_total", "Distributed queries executed."),
		shuffleBytes: reg.Counter("bandjoin_coord_shuffle_bytes_total", "Wire bytes moved by shuffles, including failover reshipments."),
		shuffleRawBytes: reg.Counter("bandjoin_coord_shuffle_raw_bytes_total",
			"Row-major uncompressed bytes of the tuples shipped by shuffles (8 bytes per key value and per tuple ID)."),
		shuffleRPCs:    reg.Counter("bandjoin_coord_shuffle_rpcs_total", "Chunk frames shipped by shuffles."),
		retries:        reg.Counter("bandjoin_coord_retries_total", "RPC retries and recovery escalations."),
		failoverRounds: reg.Counter("bandjoin_coord_failover_rounds_total", "Failover rounds (shuffle, join, or retained reshipment)."),
		workersLost:    reg.Counter("bandjoin_coord_workers_lost_total", "Workers declared dead mid-query."),
		transUp:        reg.Counter("bandjoin_coord_worker_transitions_total", "Worker health transitions by destination state.", "to", "up"),
		transSuspect:   reg.Counter("bandjoin_coord_worker_transitions_total", "Worker health transitions by destination state.", "to", "suspect"),
		transDown:      reg.Counter("bandjoin_coord_worker_transitions_total", "Worker health transitions by destination state.", "to", "down"),
	}
	reg.GaugeFunc("bandjoin_coord_workers", "Configured worker slots.", func() float64 {
		return float64(len(c.workers))
	})
	reg.GaugeFunc("bandjoin_coord_live_workers", "Workers not currently marked down.", func() float64 {
		return float64(c.LiveWorkers())
	})
	reg.GaugeFunc("bandjoin_coord_retained_plans", "Plan fingerprints whose shipment is sealed or shipping.", func() float64 {
		return float64(c.RetainedPlans())
	})
	reg.GaugeFunc("bandjoin_coord_shuffle_compression_ratio",
		"Cumulative raw/wire byte ratio of all shuffles (0 until bytes move).", func() float64 {
			w := m.shuffleBytes.Value()
			if w == 0 {
				return 0
			}
			return float64(m.shuffleRawBytes.Value()) / float64(w)
		})
	return m
}

// transition is the worker clients' health-transition hook.
func (m *coordMetrics) transition(_, to WorkerState) {
	switch to {
	case StateUp:
		m.transUp.Inc()
	case StateSuspect:
		m.transSuspect.Inc()
	case StateDown:
		m.transDown.Inc()
	}
}

// Metrics returns the coordinator's metrics registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.m.reg }

// RetainedPlans returns the number of plan fingerprints whose shipment to the
// workers is sealed or shipping (an EvictPlan in progress holds one too).
func (c *Coordinator) RetainedPlans() int { return c.retained.Len() }

// shipment is what the coordinator keeps with a retained plan's entry beside
// the entry's covered prefixes and routed total: where the sealed shipment
// lives. Its entry's Fill guards it.
type shipment struct {
	// slots are the worker slots whose kept streams answered: the ones
	// holding the sealed shipment, partitions or none. Warm joins
	// target exactly this set — not the current live set — so a worker that
	// went down since shipping is detected (and the plan reshipped) rather
	// than its partitions being silently skipped.
	slots []int
	// pidSlot maps each shipped partition id to the slot holding it, so delta
	// rows for an existing partition land exactly where its base rows live;
	// partitions a delta opens for the first time are placed over slots and
	// recorded here.
	pidSlot map[int]int
}

// Close stops the heartbeat and closes all worker connections.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		if c.hbStop != nil {
			close(c.hbStop)
		}
	})
	c.hbWG.Wait()
	for _, wc := range c.workers {
		wc.close()
	}
}

// Workers returns the number of configured worker slots (live or not).
func (c *Coordinator) Workers() int { return len(c.workers) }

// LiveWorkers returns the number of workers not currently marked down.
func (c *Coordinator) LiveWorkers() int {
	n := 0
	for _, wc := range c.workers {
		if wc.State() != StateDown {
			n++
		}
	}
	return n
}

// WorkerStates returns every worker slot's current health state.
func (c *Coordinator) WorkerStates() []WorkerState {
	states := make([]WorkerState, len(c.workers))
	for i, wc := range c.workers {
		states[i] = wc.State()
	}
	return states
}

// wireBytes returns the total bytes moved over all worker connections in both
// directions so far (counters survive redials).
func (c *Coordinator) wireBytes() int64 {
	var total int64
	for _, wc := range c.workers {
		total += wc.read.Load() + wc.written.Load()
	}
	return total
}

// Options configures a distributed run.
type Options struct {
	// Model supplies β coefficients for planning and load accounting.
	Model costmodel.Model
	// Sampling configures the optimization-phase samples. Only Run reads it.
	Sampling sample.Options
	// CollectPairs returns the result pairs for verification (small inputs
	// only).
	CollectPairs bool
	// ChunkSize is the number of tuples per chunk frame; zero means 4096, the
	// size every run outside tests uses (DESIGN.md "Wire format" records its
	// measurement). It is a seam for the cluster and chaos tests, which set
	// 16–128 rows to get many chunk frames from small inputs. A chunk also
	// holds at most wire.MaxChunkValues values.
	ChunkSize int
	// MorselRows sets the grain of the workers' morsel-driven joins
	// (JoinArgs.MorselRows): 0 sizes probe-side morsels automatically, > 0
	// fixes the morsel row count, and < 0 runs every partition as one morsel.
	// All settings produce bit-identical results. Every run outside tests
	// uses 0; like ChunkSize it is a seam for the cluster and chaos tests,
	// which set small grains to get many morsels from small inputs.
	MorselRows int
	// PlanID, when non-empty, is the plan's fingerprint and enables partition
	// retention: the first run ships the shuffled partitions to the workers'
	// retained registry, and every later run with the same fingerprint skips
	// the shuffle entirely — zero chunks, zero wire bytes — and goes straight
	// to the local joins.
	PlanID string
	// Seed drives randomized plan decisions. Only Run reads it.
	Seed int64
}

// resolve fills unset options and checks that a chunk fits the wire format; it
// is called once at every coordinator entry point that can reach the sender.
func (o Options) resolve() (Options, error) {
	if o.ChunkSize > wire.MaxChunkRows {
		return o, fmt.Errorf("cluster: ChunkSize %d exceeds the wire format's %d rows per chunk", o.ChunkSize, wire.MaxChunkRows)
	}
	return o.withDefaults(), nil
}

// withDefaults fills unset options. It is idempotent.
func (o Options) withDefaults() Options {
	if (o.Model == costmodel.Model{}) {
		o.Model = costmodel.Default()
	}
	if o.Sampling.InputSampleSize == 0 {
		o.Sampling = sample.DefaultOptions()
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 4096
	}
	return o
}

// Sentinel errors of the failover machinery.
var (
	// errWorkerLost reports that a worker died (failed its liveness probe)
	// while it held query state that could not be recovered in place. The
	// retained path reacts by invalidating the shipment and reshipping over
	// the survivors.
	errWorkerLost = errors.New("cluster: worker lost mid-query")
	// errNoLiveWorkers reports that no worker is left to fail over to.
	errNoLiveWorkers = errors.New("cluster: no live workers")
)

// runState is the per-query fault accounting: which workers were declared
// dead, which are excluded as failover targets, and how many retries and
// recovery reshipments happened.
type runState struct {
	liveAtStart int
	wasLive     map[int]bool

	retries   atomic.Int64
	failovers atomic.Int64
	// rawBytes accumulates the row-major uncompressed size of every chunk the
	// query shipped (including failover reshipments), mirroring how wire bytes
	// are counted; it becomes Result.ShuffleRawBytes.
	rawBytes atomic.Int64
	// encodeNanos and decodeNanos sum, over the same chunks, the senders'
	// time inside EncodeChunk and the workers' reported decode time.
	encodeNanos atomic.Int64
	decodeNanos atomic.Int64
	// lastEnd and lastReply are the latest times, in Unix nanoseconds, at
	// which a stream wrote its end frame and read its reply: a shipment's
	// shuffle ends at the first and its join at the second (shipmentTimes).
	lastEnd   atomic.Int64
	lastReply atomic.Int64

	mu       sync.Mutex
	lost     map[int]bool
	excluded map[int]bool
	// onWire counts, per slot, the streams to it that died on the wire while
	// it stayed alive, over all of the query's rounds and reshipments.
	onWire map[int]int
	// events is the query's fault timeline (worker losses, failover rounds),
	// surfaced on the Result so the engine can fold it into the QueryTrace.
	events []exec.TraceEvent
}

func (c *Coordinator) newRunState() *runState {
	rs := &runState{
		wasLive:  make(map[int]bool),
		lost:     make(map[int]bool),
		excluded: make(map[int]bool),
		onWire:   make(map[int]int),
	}
	for slot, wc := range c.workers {
		if wc.State() != StateDown {
			rs.wasLive[slot] = true
			rs.liveAtStart++
		}
	}
	return rs
}

func (rs *runState) retry() { rs.retries.Add(1) }

// noteLost records a worker declared dead during this query and excludes it
// as a failover target.
func (rs *runState) noteLost(slot int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.lost[slot] {
		rs.lost[slot] = true
		rs.events = append(rs.events, exec.TraceEvent{
			At: time.Now(), Name: "worker_lost", Detail: fmt.Sprintf("slot=%d", slot),
		})
	}
	rs.excluded[slot] = true
}

// failover records one recovery round: partitions were re-placed and
// reshipped (or a retained plan invalidated) after a failure.
func (rs *runState) failover(name, detail string) {
	rs.failovers.Add(1)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.events = append(rs.events, exec.TraceEvent{At: time.Now(), Name: name, Detail: detail})
}

func (rs *runState) eventList() []exec.TraceEvent {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]exec.TraceEvent(nil), rs.events...)
}

// maxShipAttemptsPerWorker bounds how many streams to one live worker may
// die on the wire before the worker is abandoned for the query.
const maxShipAttemptsPerWorker = 2

// diedOnWire counts a stream to a live slot that died on the wire and reports
// whether that was one too many: the slot is then excluded for the rest of
// the query.
func (rs *runState) diedOnWire(slot int) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.onWire[slot]++
	if rs.onWire[slot] > maxShipAttemptsPerWorker {
		rs.excluded[slot] = true
		return true
	}
	return false
}

func (rs *runState) isExcluded(slot int) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.excluded[slot]
}

func (rs *runState) lostCount() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.lost)
}

// startShipment starts a shipment's clock and returns its start.
func (rs *runState) startShipment() time.Time {
	start := time.Now()
	storeMax(&rs.lastEnd, start)
	storeMax(&rs.lastReply, start)
	return start
}

// shipmentTimes is the accounting of sh, a shipment of a routing of
// totalInput tuples started at start: its shuffle ends when its last stream
// wrote its end frame, and its join phase, the wall time it returns, when its
// last reply came in.
func (rs *runState) shipmentTimes(start time.Time, sh shipped, totalInput int64) (shuffleStats, time.Duration) {
	shuffleEnd, lastReply := time.Unix(0, rs.lastEnd.Load()), time.Unix(0, rs.lastReply.Load())
	return shuffleStats{totalInput: totalInput, rpcs: sh.chunks, bytes: sh.bytes, duration: shuffleEnd.Sub(start)}, lastReply.Sub(shuffleEnd)
}

// storeMax raises v to t's Unix nanoseconds if that is later.
func storeMax(v *atomic.Int64, t time.Time) {
	for n, old := t.UnixNano(), v.Load(); n > old && !v.CompareAndSwap(old, n); old = v.Load() {
	}
}

// liveSlots returns the worker slots a query may currently use: not down and
// not excluded by this query's run state (rs may be nil).
func (c *Coordinator) liveSlots(rs *runState) []int {
	var slots []int
	for slot, wc := range c.workers {
		if wc.State() == StateDown {
			continue
		}
		if rs != nil && rs.isExcluded(slot) {
			continue
		}
		slots = append(slots, slot)
	}
	return slots
}

// Run executes the band-join of s and t with the given partitioner across the
// connected workers. The context bounds the whole query: cancellation aborts
// its shipment streams and returns ctx.Err().
func (c *Coordinator) Run(ctx context.Context, pt partition.Partitioner, s, t *data.Relation, band data.Band, opts Options) (*exec.Result, error) {
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator has no workers")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	live := len(c.liveSlots(nil))
	if live == 0 {
		return nil, errNoLiveWorkers
	}
	smp, err := sample.Draw(s, t, band, opts.Sampling)
	if err != nil {
		return nil, fmt.Errorf("cluster: sampling: %w", err)
	}
	pctx := &partition.Context{Band: band, Workers: live, Sample: smp, Model: opts.Model, Seed: opts.Seed}

	optStart := time.Now()
	plan, err := pt.Plan(pctx)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s optimization failed: %w", pt.Name(), err)
	}
	optTime := time.Since(optStart)

	res, err := c.RunPlan(ctx, plan, pctx, s, t, band, opts)
	if err != nil {
		return nil, err
	}
	res.Partitioner = pt.Name()
	res.OptimizationTime = optTime
	return res, nil
}

// redistributor returns the function that assigns a pid set to a target slot
// list: the placement is recomputed over exactly len(targets) workers, so
// failing over to survivors re-balances the lost partitions the same way the
// original placement balanced all of them.
func redistributor(plan partition.Plan, pctx *partition.Context) func(pids, targets []int) map[int][]int {
	return func(pids, targets []int) map[int][]int {
		place := exec.Placement(plan, pctx, len(targets))
		out := make(map[int][]int)
		for _, pid := range pids {
			slot := targets[place(pid)]
			out[slot] = append(out[slot], pid)
		}
		for _, l := range out {
			sort.Ints(l)
		}
		return out
	}
}

func sortedKeys(m map[int][]int) []int { return slices.Sorted(maps.Keys(m)) }

// parallel runs fn(0), ..., fn(n-1) concurrently and waits for them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// shuffleStats is the shuffle-phase accounting of one run. A warm retained
// run reports its entry's routed total with zero duration, bytes, and RPCs —
// nothing moved.
type shuffleStats struct {
	totalInput int64
	rpcs       int64
	bytes      int64
	duration   time.Duration
	// absorbed is the time spent catching the retained shipment up to
	// appended rows (delta shuffle + ship) before the warm join ran; zero
	// when the shipment was already fresh.
	absorbed time.Duration
}

// RunPlan shuffles the inputs to the workers per an already-computed plan,
// runs the local joins, and aggregates the result. It is the execution half
// of Run, exported so benchmarks can compare data planes on one shared plan.
// With Options.PlanID set, the shuffled partitions are retained on the
// workers under that fingerprint and reused — with zero shuffle — by every
// later RunPlan naming the same fingerprint.
func (c *Coordinator) RunPlan(ctx context.Context, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, band data.Band, opts Options) (*exec.Result, error) {
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator has no workers")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	rs := c.newRunState()
	if rs.liveAtStart == 0 {
		return nil, errNoLiveWorkers
	}
	if opts.PlanID != "" {
		return c.runRetained(ctx, plan, pctx, s, t, band, opts, rs)
	}
	return c.runTransient(ctx, plan, pctx, s, t, band, opts, rs)
}

// runTransient is the one-shot path: one stream per worker, each joined at its
// end, so nothing of the query outlives its streams on any worker.
func (c *Coordinator) runTransient(ctx context.Context, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, band data.Band, opts Options, rs *runState) (*exec.Result, error) {
	start := rs.startShipment()
	routed, err := exec.Route(ctx, plan, s, t, 0, 0, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	sh, err := c.deliver(ctx, plan, pctx, routed, band, opts, rs)
	if err != nil {
		return nil, err
	}
	st, joinWall := rs.shipmentTimes(start, sh, routed.TotalInput)
	return c.result(sh.joined, opts, s, t, st, joinWall, rs), nil
}

// deliver ships a routing to the live workers as one shipment, kept under
// opts.PlanID when it is set, and returns what the streams answered: the
// joins of their partitions and, kept, where the partitions now live.
func (c *Coordinator) deliver(ctx context.Context, plan partition.Plan, pctx *partition.Context, routed *exec.Routed, band data.Band, opts Options, rs *runState) (shipped, error) {
	targets := c.liveSlots(rs)
	if len(targets) == 0 {
		return shipped{}, errNoLiveWorkers
	}
	redistribute := redistributor(plan, pctx)
	hdr := ShipHeader{JoinArgs: JoinArgs{PlanID: opts.PlanID, Band: band, CollectPairs: opts.CollectPairs, MorselRows: opts.MorselRows}}
	return c.shipPartitions(ctx, redistribute(routed.NonEmpty(), targets), routed, hdr, opts.ChunkSize, redistribute, rs)
}

// shipped is what shipPartitions moved: the joins the streams answered (slot
// → partition records), the final ownership (slot → pids resident there) of a
// kept shipment, whose keys are the slots whose streams answered, and the
// chunk frames and bytes written, failover reshipments included.
type shipped struct {
	joined map[int][]exec.PartitionStats
	owned  map[int][]int
	chunks int64
	bytes  int64
}

// shipPartitions ships an assignment (slot → partition ids), one stream per
// slot and round, each numbered by Coordinator.shipments. A kept shipment
// (hdr.PlanID set, not a delta) also sends a stream of no partitions to every
// live worker the assignment skips, so that "sealed with zero partitions"
// stays distinct from "evicted" at join time. Each round ships every slot's
// pids in parallel; a slot whose stream fails with a transport error is
// probed and, if dead, marked down.
//
// A one-shot stream is repeated, as nothing of it outlived its connection: to
// the same worker while it is alive and has not failed maxShipAttemptsPerWorker
// times this query (runState.diedOnWire), else its pids are re-placed over the
// surviving workers and reshipped from the coordinator-held row lists. A
// stream under a plan, kept or delta, may have landed in part, so it is never
// repeated: the shipment fails with errWorkerLost, and the caller evicts the
// plan and reships it whole (runRetained). Application errors are not failed
// over: a worker that refuses a stream will refuse it again; the shipment
// fails cleanly.
func (c *Coordinator) shipPartitions(ctx context.Context, assignment map[int][]int, routed *exec.Routed, hdr ShipHeader, chunkSize int, redistribute func(pids, targets []int) map[int][]int, rs *runState) (shipped, error) {
	sh := shipped{joined: make(map[int][]exec.PartitionStats), owned: make(map[int][]int)}
	if hdr.PlanID != "" && !hdr.Delta {
		for _, slot := range c.liveSlots(rs) {
			if _, ok := assignment[slot]; !ok {
				assignment[slot] = nil
			}
		}
	}
	for round := 0; len(assignment) > 0; round++ {
		if round > 2*len(c.workers)+4 {
			return sh, fmt.Errorf("cluster: shuffle failover did not converge after %d rounds", round)
		}
		if err := ctx.Err(); err != nil {
			return sh, err
		}
		slots := sortedKeys(assignment)
		outs := make([]streamOutcome, len(slots))
		parallel(len(slots), func(i int) {
			h := hdr
			h.Attempt = int(c.shipments.Add(1))
			outs[i] = c.ship(ctx, c.workers[slots[i]], assignment[slots[i]], routed, &h, chunkSize, rs)
		})

		next := make(map[int][]int)
		var orphaned []int // pids whose worker was abandoned this round
		joinPhase := false // an abandoned stream had reached its join
		for i, slot := range slots {
			out := &outs[i]
			sh.chunks += out.chunks
			sh.bytes += out.bytes
			pids := assignment[slot]
			wc := c.workers[slot]
			if out.err == nil && !hdr.Delta && len(out.join.Partitions) != len(pids) {
				return sh, fmt.Errorf("cluster: worker %d (%s) joined %d partitions of the %d shipped to it", slot, wc.name(), len(out.join.Partitions), len(pids))
			}
			if out.err == nil {
				sh.joined[slot] = append(sh.joined[slot], out.join.Partitions...)
				sh.owned[slot] = append(sh.owned[slot], pids...)
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				return sh, cerr
			}
			if !isTransportErr(out.err) {
				return sh, fmt.Errorf("cluster: shipping to worker %d (%s): %w", slot, wc.name(), out.err)
			}
			rs.retry()
			alive := wc.probe(ctx)
			if !alive {
				rs.noteLost(slot)
			}
			// Counted for a plan's stream too: its reshipment leaves out a
			// worker whose streams keep dying.
			abandon := !alive || rs.diedOnWire(slot)
			if hdr.PlanID != "" {
				return sh, fmt.Errorf("cluster: shipping to worker %d (%s): %w (%v)", slot, wc.name(), errWorkerLost, out.err)
			}
			if abandon {
				orphaned = append(orphaned, pids...)
				joinPhase = joinPhase || out.ended
			} else {
				next[slot] = pids
			}
		}
		if len(orphaned) > 0 {
			sort.Ints(orphaned)
			phase := "shuffle_failover"
			if joinPhase {
				phase = "join_failover"
			}
			rs.failover(phase, fmt.Sprintf("pids=%d", len(orphaned)))
			targets := c.liveSlots(rs)
			if len(targets) == 0 {
				return sh, errNoLiveWorkers
			}
			for slot, pids := range redistribute(orphaned, targets) {
				// A redistribution target may already hold (or be retrying)
				// pids; the orphans are new to it, so they simply extend its
				// shipment.
				next[slot] = append(next[slot], pids...)
				sort.Ints(next[slot])
			}
		}
		assignment = next
	}
	for _, pids := range sh.owned {
		sort.Ints(pids)
	}
	return sh, nil
}

// runJoinsRetained triggers the local joins of one sealed retained plan on
// the given slots in parallel (the Join RPC of a warm query), with retries
// but no failover. A worker that fails its liveness probe yields
// errWorkerLost, which the retained path turns into an invalidate-and-reship.
//
// Joins covering fewer than the plan's total routed tuples are a plan lost
// in part (shipStream.entry: a cap eviction before a failover stream), an
// ErrUnknownRetainedPlan. Deltas only add rows, so one since total was read
// cannot make a whole plan short.
func (c *Coordinator) runJoinsRetained(ctx context.Context, planID string, slots []int, total int64, band data.Band, opts Options, rs *runState) (map[int][]exec.PartitionStats, time.Duration, error) {
	joinStart := time.Now()
	outs := make([]JoinReply, len(slots))
	errs := make([]error, len(slots))
	args := &JoinArgs{PlanID: planID, Band: band, CollectPairs: opts.CollectPairs, MorselRows: opts.MorselRows}
	parallel(len(slots), func(i int) {
		errs[i] = c.workers[slots[i]].call(ctx, ServiceName+".Join", args, &outs[i], c.opts.joinDeadline(), c.opts.MaxRetries, rs.retry)
	})
	joinWall := time.Since(joinStart)

	joined := make(map[int][]exec.PartitionStats, len(slots))
	var got int64
	for i, slot := range slots {
		wc := c.workers[slot]
		if err := errs[i]; err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, 0, cerr
			}
			if isTransportErr(err) {
				if !wc.probe(ctx) {
					rs.noteLost(slot)
				}
				return nil, 0, fmt.Errorf("cluster: local joins on worker %d (%s): %w (%v)", slot, wc.name(), errWorkerLost, err)
			}
			return nil, 0, fmt.Errorf("cluster: local joins on worker %d (%s) failed: %w", slot, wc.name(), err)
		}
		joined[slot] = outs[i].Partitions
		for _, r := range outs[i].Partitions {
			got += int64(r.InputS + r.InputT)
		}
	}
	if got < total {
		return nil, 0, fmt.Errorf("cluster: %s %q: the workers joined %d of its %d routed tuples", ErrUnknownRetainedPlan, planID, got, total)
	}
	return joined, joinWall, nil
}

// errSuperseded signals that a plan's entry was superseded (evicted, and
// perhaps opened again) while a query held it; the caller re-fetches and
// retries.
var errSuperseded = errors.New("cluster: retained-plan entry superseded")

// maxRetainedAttempts bounds how often a retained query reships a plan that
// keeps disappearing (evictions, worker deaths) before giving up.
const maxRetainedAttempts = 6

// runRetained serves a query whose plan fingerprint is retained on the
// workers: the first run ships the partitions kept, each stream joining and
// sealing its worker's share at its end, and later runs join the resident
// data directly (the Join RPC). Whatever part of the plan is lost — a kept
// or delta stream that failed on the wire, a worker found down, a warm join
// that finds the plan gone or short (retention-cap eviction, restart, or
// death) — the entry the query used goes (a failed shipment deletes its own;
// evictEntry the others) and the coordinator reships the plan whole over the
// currently live workers; concurrent queries that lost the same entry leave
// the reshipment to whichever evicted it. The entry is re-fetched every
// attempt so a concurrent EvictPlan can never leave two goroutines shipping
// the same fingerprint through different entries.
func (c *Coordinator) runRetained(ctx context.Context, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, band data.Band, opts Options, rs *runState) (*exec.Result, error) {
	var lastErr error
	for attempt := 0; attempt < maxRetainedAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := c.retained.Open(opts.PlanID)
		cold, slots, err := c.ensureShipped(ctx, e, plan, pctx, s, t, band, opts, rs)
		if err == errSuperseded {
			lastErr = err
			continue
		}
		if errors.Is(err, errWorkerLost) {
			// A kept stream failed on the wire; its shipment left no entry.
			lastErr = err
			rs.failover("retained_failover", "kept stream lost; reshipping")
			continue
		}
		if err != nil {
			return nil, err
		}
		if cold != nil {
			// The shipment's streams answered with the joins.
			return c.result(cold.sh.joined, opts, s, t, cold.st, cold.joinWall, rs), nil
		}
		// A worker holding part of the shipment went down since it was
		// sealed: its partitions are unreachable, so invalidate and reship
		// over the survivors rather than silently returning partial results.
		stale := false
		for _, slot := range slots {
			if c.workers[slot].State() == StateDown {
				if rs.wasLive[slot] {
					rs.noteLost(slot)
				}
				stale = true
			}
		}
		if stale {
			lastErr = errWorkerLost
			rs.failover("retained_failover", "shipment holder went down since sealing")
			c.evictEntry(e, opts.PlanID)
			continue
		}
		// The shipment is resident, but rows may have been appended to the
		// relations since it was sealed (Engine.Append without an eager
		// absorb): shuffle just the appended suffix into the sealed plan
		// before joining, so warm queries never rescan or reship the base.
		var st shuffleStats
		if err := c.ensureFresh(ctx, e, plan, pctx, s, t, opts, rs, &st); err != nil {
			if err == errSuperseded {
				lastErr = err
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			lastErr = err
			rs.failover("retained_failover", "delta absorb failed; reshipping")
			c.evictEntry(e, opts.PlanID)
			continue
		}
		joined, joinWall, err := c.runJoinsRetained(ctx, opts.PlanID, slots, st.totalInput, band, opts, rs)
		if err == nil {
			res := c.result(joined, opts, s, t, st, joinWall, rs)
			res.WarmPartitions = true
			return res, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if !errors.Is(err, errWorkerLost) && !strings.Contains(err.Error(), ErrUnknownRetainedPlan) {
			return nil, err
		}
		// A worker no longer holds all of the plan (retention-cap eviction,
		// restart, or death): evict the plan and reship.
		lastErr = err
		rs.failover("retained_failover", "plan lost at join time; reshipping")
		c.evictEntry(e, opts.PlanID)
	}
	return nil, fmt.Errorf("cluster: retained plan %q kept disappearing: %w", opts.PlanID, lastErr)
}

// coldShipment is what a retained plan's cold shipment returns: its streams'
// joins and where its partitions live, its shuffle's accounting and its join
// phase's wall time.
type coldShipment struct {
	sh       shipped
	st       shuffleStats
	joinWall time.Duration
}

// ensureShipped makes the plan's partitions resident and sealed on the
// workers, shipping them cold if e is unsealed: the first query of the plan,
// or the first since an eviction or a failed shipment. Exactly one shuffle
// runs per fingerprint: the cold shipment holds e's Fill lock for writing,
// and concurrent first queries wait on it and then proceed warm. An entry
// that is no longer its fingerprint's (EvictPlan deleted it) is neither
// shipped through nor joined warm: errSuperseded. A warm query gets the slot
// set holding the sealed shipment, which its join must target; a cold one
// gets the shipment, whose streams answered with the join.
//
// The cold shipment is e's Absorb from row 0: its delivery clears any remnant
// of an earlier shipment from the workers and ships the routed partitions kept,
// each worker's stream sealing them there at its end. e.Meta.slots are the
// slots whose streams answered. A shipment that fails leaves no entry: it
// closes the plan on the workers, so nothing of it is resident.
func (c *Coordinator) ensureShipped(ctx context.Context, e *exec.Entry[shipment], plan partition.Plan, pctx *partition.Context, s, t *data.Relation, band data.Band, opts Options, rs *runState) (*coldShipment, []int, error) {
	e.Fill.RLock()
	warm := e.Sealed() && c.retained.Get(opts.PlanID) == e
	slots := slices.Clone(e.Meta.slots)
	e.Fill.RUnlock()
	if warm {
		return nil, slots, nil
	}

	e.Fill.Lock()
	defer e.Fill.Unlock()
	if c.retained.Get(opts.PlanID) != e {
		return nil, nil, errSuperseded
	}
	if e.Sealed() {
		return nil, slices.Clone(e.Meta.slots), nil
	}
	start := rs.startShipment()
	var cold coldShipment
	err := e.Absorb(ctx, plan, s, t, func(routed *exec.Routed) error {
		// Clear any half-shipped remnants of a previously failed shipment
		// before shipping: a plan's entry on a worker accumulates across
		// streams. The clearing is numbered like a shipment, so a stream that
		// outlived an earlier shipment of this fingerprint — failed, evicted,
		// long forgotten here — is older than what every worker now accepts.
		c.evictWorkers(opts.PlanID, int(c.shipments.Add(1)))
		sh, err := c.deliver(ctx, plan, pctx, routed, band, opts, rs)
		cold.sh = sh
		cold.st, cold.joinWall = rs.shipmentTimes(start, sh, routed.TotalInput)
		if err != nil {
			c.evictWorkers(opts.PlanID, 0)
			return err
		}
		e.Meta = shipment{slots: sortedKeys(sh.owned), pidSlot: make(map[int]int)}
		for slot, pids := range sh.owned {
			for _, pid := range pids {
				e.Meta.pidSlot[pid] = slot
			}
		}
		return nil
	})
	if err != nil {
		c.retained.Delete(e)
		return nil, nil, err
	}
	c.retained.Seal(e, band, 0)
	return &cold, slices.Clone(e.Meta.slots), nil
}

// ensureFresh catches a sealed shipment up to rows appended to s and t since
// it was shipped (exec.Entry.CatchUp, the rule the in-process plane follows
// too): the rows past the entry's covered prefixes, routed through the plan
// with tuple IDs offset to stay globally consistent, are delivered as delta
// streams into the sealed plan, to every slot at once — existing partitions
// receive their delta exactly where their base rows live, new partitions are
// placed over the sealed slot set. An unsealed or fresh entry is left as it
// is; a superseded one is not shipped through (errSuperseded). It sets st's
// routed total to the entry's and adds the delta's chunks, bytes and time.
// On failure the shipment may be torn mid-delta; callers must evict the plan
// and fall back to a cold reshipment.
func (c *Coordinator) ensureFresh(ctx context.Context, e *exec.Entry[shipment], plan partition.Plan, pctx *partition.Context, s, t *data.Relation, opts Options, rs *runState, st *shuffleStats) error {
	total, absorbed, err := e.CatchUp(ctx, plan, s, t, func(routed *exec.Routed) error {
		// An eviction may have superseded e; shipping deltas
		// through it would interleave with the current entry's cold shipment.
		if c.retained.Get(opts.PlanID) != e {
			return errSuperseded
		}
		// Placing a partition new to the plan routes the sample through it,
		// so the placement is built only when a delta lands in one.
		var place func(pid int) int
		assignment := make(map[int][]int)
		for _, pid := range routed.NonEmpty() {
			slot, ok := e.Meta.pidSlot[pid]
			if !ok {
				if place == nil {
					place = exec.Placement(plan, pctx, len(e.Meta.slots))
				}
				slot = e.Meta.slots[place(pid)]
				e.Meta.pidSlot[pid] = slot
			}
			assignment[slot] = append(assignment[slot], pid)
		}
		sh, err := c.shipPartitions(ctx, assignment, routed, ShipHeader{JoinArgs: JoinArgs{PlanID: opts.PlanID}, Delta: true}, opts.ChunkSize, nil, rs)
		st.rpcs += sh.chunks
		st.bytes += sh.bytes
		return err
	})
	if err != nil {
		return err
	}
	st.totalInput = total
	st.absorbed += absorbed
	return nil
}

// AbsorbPlan eagerly catches a retained plan up to rows appended to s and t
// since it was shipped (ensureFresh), so the next warm query of the plan
// finds the shipment fresh and moves zero bytes. It is the engine's Append
// hook. A plan with no entry (never shipped, or evicted), or with one not yet
// sealed, is a no-op: the next query ships cold from the full relations, or
// catches up what its cold shipment did not cover. On error the shipment may
// be torn; the caller must evict the plan (the next query then reships cold).
func (c *Coordinator) AbsorbPlan(ctx context.Context, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, opts Options) error {
	opts, err := opts.resolve()
	if err != nil {
		return err
	}
	if opts.PlanID == "" {
		return fmt.Errorf("cluster: AbsorbPlan requires a plan id")
	}
	e := c.retained.Get(opts.PlanID)
	if e == nil {
		return nil
	}
	var st shuffleStats
	err = c.ensureFresh(ctx, e, plan, pctx, s, t, opts, c.newRunState(), &st)
	if err == errSuperseded {
		return nil // the current entry ships cold with everything
	}
	return err
}

// ShipPlan shuffles, ships, and seals a plan's partitions on the workers —
// the priming half of a retained query — and discards the join the streams
// answered with: it is RunPlan under a plan id, answer unread. Its only caller
// is the benchmark's replay, which times the ship stage apart from the warm
// join; as each kept stream joins its partitions before it answers, that
// stage includes a full local join.
func (c *Coordinator) ShipPlan(ctx context.Context, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, band data.Band, opts Options) error {
	if opts.PlanID == "" {
		return fmt.Errorf("cluster: ShipPlan requires a plan id")
	}
	_, err := c.RunPlan(ctx, plan, pctx, s, t, band, opts)
	return err
}

// EvictPlan discards one retained plan from every worker and deletes its
// entry (so the registry cannot grow without bound in a long-lived
// coordinator); the next query naming the fingerprint ships cold through a
// new entry. It is the invalidation hook engines call when a dataset is
// replaced. It evicts the current entry (evictEntry), an empty one opened for
// the purpose if there is none, so that no shipment starts before the workers
// have closed the plan: one that did would have its streams refused.
func (c *Coordinator) EvictPlan(planID string) {
	for !c.evictEntry(c.retained.Open(planID), planID) {
	}
}

// evictEntry evicts the plan from every worker and deletes e if e is still the
// plan's entry, under e's write lock: an in-flight shipment or catch-up
// completes first, no new one starts until the workers have closed the plan,
// and a query holding e finds it superseded afterwards. A superseded e is left
// alone — its plan was evicted already, and a newer shipment may stand in its
// place — and evictEntry reports false.
func (c *Coordinator) evictEntry(e *exec.Entry[shipment], planID string) bool {
	e.Fill.Lock()
	defer e.Fill.Unlock()
	if c.retained.Get(planID) != e {
		return false
	}
	c.evictWorkers(planID, 0)
	c.retained.Delete(e)
	return true
}

// evictWorkers drops the plan from every worker's registry, best effort; a
// positive shipment number makes room for that shipment (EvictArgs.Attempt).
// Cleanup runs on a background context: it must proceed even when the query's
// context is already cancelled.
func (c *Coordinator) evictWorkers(planID string, shipment int) {
	for _, wc := range c.workers {
		var er EvictReply
		_ = wc.call(context.Background(), ServiceName+".Evict", &EvictArgs{PlanID: planID, Attempt: shipment}, &er, c.opts.callDeadline(), 1, nil)
	}
}

// result is the Result of a query whose workers reported joined: the
// coordinator's shuffle, fault and timing accounting, and the workers' records
// aggregated on the slots that ran them (exec.Result.Aggregate).
func (c *Coordinator) result(joined map[int][]exec.PartitionStats, opts Options, s, t *data.Relation, st shuffleStats, joinWall time.Duration, rs *runState) *exec.Result {
	workers := len(c.workers)
	res := &exec.Result{
		Workers:           workers,
		ShuffleTime:       st.duration,
		DeltaAbsorbTime:   st.absorbed,
		JoinWallTime:      joinWall,
		InputS:            s.Len(),
		InputT:            t.Len(),
		TotalInput:        st.totalInput,
		ShuffleBytes:      st.bytes,
		ShuffleRawBytes:   rs.rawBytes.Load(),
		ShuffleEncodeBusy: time.Duration(rs.encodeNanos.Load()),
		ShuffleDecodeBusy: time.Duration(rs.decodeNanos.Load()),
		ShuffleRPCs:       st.rpcs,
		Retries:           int(rs.retries.Load()),
		LostWorkers:       rs.lostCount(),
	}
	res.Degraded = res.LostWorkers > 0 || rs.liveAtStart < workers
	res.FailoverRounds = int(rs.failovers.Load())
	res.FaultEvents = rs.eventList()
	c.m.runs.Inc()
	c.m.shuffleBytes.Add(res.ShuffleBytes)
	c.m.shuffleRawBytes.Add(res.ShuffleRawBytes)
	c.m.shuffleRPCs.Add(res.ShuffleRPCs)
	c.m.retries.Add(int64(res.Retries))
	c.m.failoverRounds.Add(int64(res.FailoverRounds))
	c.m.workersLost.Add(int64(res.LostWorkers))
	var recs []exec.PartitionStats
	slot := make(map[int]int)
	for _, w := range slices.Sorted(maps.Keys(joined)) {
		for _, ps := range joined[w] {
			slot[ps.Partition] = w
		}
		recs = append(recs, joined[w]...)
	}
	res.Aggregate(recs, func(pid int) int { return slot[pid] }, opts.Model)
	return res
}

// streamOutcome is one stream's result: the chunk frames and bytes it wrote,
// whether it got as far as its end frame, and the worker's join of its
// partitions (none for a delta stream).
type streamOutcome struct {
	chunks, bytes int64
	ended         bool
	join          JoinReply
	err           error
}

// ship writes one worker's partitions to it as one shipment stream under hdr,
// in fixed-size chunks, and reads the worker's reply. A chunk's rows are
// gathered from the source relation, through the partition's routed list,
// into a slab this sender owns and reuses, and travel as a columnar chunk
// encoded from it (a row list may span several routing shards; the chunk
// boundaries are those of the partition, not of its lists). Each partition's
// frame announces its row counts per side, so the worker knows when it is
// whole and, unless the stream is a delta, begins building its join structure
// while later partitions are still in flight. A worker whose Ping advertised less
// than wire.Version cannot read the stream and is refused with an error that
// is not failed over.
//
// Every frame is written within the call deadline; the reply is awaited
// within the join deadline, as the join runs before it answers, or the call
// deadline on a delta stream, which joins nothing. The query context's cancellation closes the
// connection. A refusal in the reply is returned as an rpc.ServerError, like
// an RPC method's error.
func (c *Coordinator) ship(ctx context.Context, wc *workerClient, pids []int, routed *exec.Routed, hdr *ShipHeader, chunkSize int, rs *runState) (out streamOutcome) {
	if _, out.err = wc.conn(); out.err != nil {
		wc.markSuspect()
		return out
	}
	if v := wc.wireVersion(); v < wire.Version {
		out.err = fmt.Errorf("the worker reads wire version %d, this coordinator ships version %d only", v, wire.Version)
		return out
	}
	conn, err := wc.dial()
	if err != nil {
		wc.markSuspect()
		out.err = err
		return out
	}
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })()
	defer func() {
		if cerr := ctx.Err(); cerr != nil {
			out.err = cerr
		} else if isTransportErr(out.err) {
			wc.markSuspect()
		}
	}()

	sw := newShipWriter(conn, conn, c.opts.callDeadline())
	err = sw.write(shipMagic[:])
	if err == nil {
		err = sw.header(hdr)
	}
	// One encoder's buffer — and one slab of gathered rows under it — backs
	// every chunk of the stream: each is written before the next is encoded.
	enc := wire.NewEncoder(wire.ModeAuto)
	var keys []float64
	var ids []int64
	for _, pid := range pids {
		if err == nil {
			err = sw.partition(pid, routed.S.Rows(pid), routed.T.Rows(pid))
		}
		for _, side := range []*exec.RoutedSide{&routed.S, &routed.T} {
			dims, total := side.Rel.Dims(), side.Rows(pid)
			rows := min(chunkSize, wire.MaxChunkValues/(dims+1))
			for lo := 0; lo < total && err == nil; lo += rows {
				n := min(rows, total-lo)
				keys, ids = slices.Grow(keys[:0], n*dims)[:n*dims], slices.Grow(ids[:0], n)[:n]
				side.Gather(pid, lo, lo+n, keys, ids)
				rs.rawBytes.Add(wire.RawBytes(n, dims))
				start := time.Now()
				chunk := enc.EncodeChunk(keys, dims, ids)
				rs.encodeNanos.Add(time.Since(start).Nanoseconds())
				err = sw.chunk(chunk)
				out.chunks++
			}
		}
	}
	if err == nil {
		err = sw.end()
	}
	out.bytes = sw.bytes
	if err != nil {
		out.err = err
		return out
	}
	out.ended = true
	storeMax(&rs.lastEnd, time.Now())

	timeout := c.opts.joinDeadline()
	if hdr.Delta {
		timeout = c.opts.callDeadline()
	}
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
	}
	var rep shipReply
	if out.err = gob.NewDecoder(conn).Decode(&rep); out.err != nil {
		return out
	}
	storeMax(&rs.lastReply, time.Now())
	rs.decodeNanos.Add(rep.DecodeNanos)
	if rep.Err != "" {
		out.err = rpc.ServerError(rep.Err)
		return out
	}
	if rep.Join != nil {
		out.join = *rep.Join
	}
	wc.markUp()
	return out
}
