package cluster

import (
	"context"
	"errors"
	"fmt"
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
// of the source relations and ships it columnar (internal/wire) with a bounded
// window of asynchronous Load RPCs in flight, so gathering, encoding, network
// transfer, and the workers' decode+append overlap instead of serializing on
// every chunk round trip.
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

	// mu guards retainedPlans, the coordinator-side record of which plan
	// fingerprints have been fully shipped and sealed on the workers.
	mu            sync.Mutex
	retainedPlans map[string]*retainedPlanRec

	// shipments numbers every shipment this coordinator makes, to any worker
	// under any job id or plan fingerprint (see LoadArgs.Attempt): one monotone
	// counter, so whatever a worker is cleared for is newer than every Load
	// still in flight — of this shipPartitions call or of one long returned.
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
	shuffleWire     *obs.Counter
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
		shuffleWire: reg.Counter("bandjoin_coord_shuffle_wire_bytes_total",
			"Wire bytes moved by shuffles; pairs with the raw counter so raw/wire is the shuffle compression ratio."),
		shuffleRPCs:    reg.Counter("bandjoin_coord_shuffle_rpcs_total", "Load RPCs issued by shuffles."),
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
	reg.GaugeFunc("bandjoin_coord_retained_plans", "Plan fingerprints with a sealed shipment record.", func() float64 {
		return float64(c.RetainedPlans())
	})
	reg.GaugeFunc("bandjoin_coord_shuffle_compression_ratio",
		"Cumulative raw/wire byte ratio of all shuffles (0 until bytes move).", func() float64 {
			w := m.shuffleWire.Value()
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

// RetainedPlans returns the number of plan fingerprints the coordinator
// currently records as shipped (warm) on the workers.
func (c *Coordinator) RetainedPlans() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.retainedPlans)
}

// retainedPlanRec tracks one retained plan's shipment. Its RWMutex serializes
// shipping against itself (exactly one shuffle per fingerprint, concurrent
// first queries wait and then join warm) while letting any number of warm
// queries proceed concurrently under read locks.
type retainedPlanRec struct {
	mu         sync.RWMutex
	shipped    bool
	totalInput int64
	// slots are the worker slots holding the sealed shipment. Warm joins
	// target exactly this set — not the current live set — so a worker that
	// went down since shipping is detected (and the plan reshipped) rather
	// than its partitions being silently skipped.
	slots []int
	// coveredS/coveredT record how many base-relation rows (prefix lengths)
	// the sealed shipment covers. Relations only grow by appending, so any
	// later query or AbsorbPlan catches the shipment up idempotently by
	// shuffling just the suffix [covered, Len) as a delta (see ensureFresh).
	coveredS int
	coveredT int
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
	// JobID names the job on the workers; empty generates one from the clock.
	// An id is good for one run: workers close it when the run ends.
	JobID string
	// Model supplies β coefficients for planning and load accounting.
	Model costmodel.Model
	// Sampling configures the optimization-phase samples.
	Sampling sample.Options
	// CollectPairs returns the result pairs for verification (small inputs
	// only).
	CollectPairs bool
	// ChunkSize is the number of tuples per Load RPC; zero means 4096.
	ChunkSize int
	// Window is the maximum number of Load RPCs in flight per worker on the
	// streaming shuffle; zero means 4.
	Window int
	// JoinParallelism bounds the number of partition joins each worker runs
	// concurrently; zero lets every worker use its GOMAXPROCS.
	JoinParallelism int
	// MorselRows sets the grain of the workers' morsel-driven joins
	// (JoinArgs.MorselRows): 0 sizes probe-side morsels automatically, > 0
	// fixes the morsel row count, and < 0 runs every partition as one morsel.
	// All settings produce bit-identical results.
	MorselRows int
	// PlanID, when non-empty, is the plan's fingerprint and enables partition
	// retention: the first run ships the shuffled partitions to the workers'
	// retained registry (surviving job Reset), and every later run with the
	// same fingerprint skips the shuffle entirely — zero Load RPCs, zero wire
	// bytes — and goes straight to the local joins.
	PlanID string
	// Seed drives randomized plan decisions.
	Seed int64

	// retain marks the shuffle's Load RPCs as registry loads. It is set
	// internally on the shipping path of a retained run.
	retain bool
	// delta marks the shuffle's Load RPCs as incremental appends into an
	// already sealed plan (see LoadArgs.Delta). It is set internally on the
	// catch-up path of a retained run and by AbsorbPlan.
	delta bool
	// attempt is the number of the shipment to one worker (see
	// LoadArgs.Attempt); shipPartitions sets it per worker.
	attempt int
	// band, when non-empty, rides on every Load (LoadArgs.Band) so workers
	// prepare each partition in the background once its rows are all in
	// (pipelined worker-side joins). It is set internally on the transient
	// path, where the upcoming Join's band is known at shuffle time.
	band data.Band
}

// resolve fills unset options and checks that a chunk fits the wire format; it
// is called once at every coordinator entry point that can reach the sender.
func (o Options) resolve() (Options, error) {
	if o.ChunkSize > wire.MaxChunkRows {
		return o, fmt.Errorf("cluster: ChunkSize %d exceeds the wire format's %d rows per chunk", o.ChunkSize, wire.MaxChunkRows)
	}
	return o.withDefaults(), nil
}

// jobCounter disambiguates generated job IDs: two queries starting in the
// same nanosecond (easy under concurrent serving) must not share worker-side
// job state.
var jobCounter atomic.Int64

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
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.JobID == "" {
		o.JobID = fmt.Sprintf("job-%d-%d", time.Now().UnixNano(), jobCounter.Add(1))
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
// dead, which are excluded as failover targets, how many retries and
// recovery reshipments happened, and which job IDs need cleanup.
type runState struct {
	liveAtStart int
	wasLive     map[int]bool

	retries    atomic.Int64
	failovers  atomic.Int64
	extraRPCs  atomic.Int64
	extraBytes atomic.Int64
	// rawBytes accumulates the row-major uncompressed size of every chunk the
	// query shipped (including failover reshipments), mirroring how wire bytes
	// are counted; it becomes Result.ShuffleRawBytes.
	rawBytes atomic.Int64
	// encodeNanos and decodeNanos sum, over the same chunks, the senders'
	// time inside EncodeChunk and the workers' reported decode time.
	encodeNanos atomic.Int64
	decodeNanos atomic.Int64

	mu       sync.Mutex
	lost     map[int]bool
	excluded map[int]bool
	jobs     []string
	// events is the query's fault timeline (worker losses, failover rounds),
	// surfaced on the Result so the engine can fold it into the QueryTrace.
	events []exec.TraceEvent
}

func (c *Coordinator) newRunState() *runState {
	rs := &runState{
		wasLive:  make(map[int]bool),
		lost:     make(map[int]bool),
		excluded: make(map[int]bool),
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

// exclude removes a worker from this query's failover targets (dead, or alive
// but persistently failing) without declaring it dead.
func (rs *runState) exclude(slot int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.excluded[slot] = true
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

func (rs *runState) addJob(id string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.jobs = append(rs.jobs, id)
}

func (rs *runState) jobList() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]string(nil), rs.jobs...)
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
// in-flight shuffle windows and join pools and returns ctx.Err().
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

// placementOver returns the partition→index mapping for placing partitions on
// n workers. Plans that place their own partitions (Grid-ε) are honored;
// otherwise partition loads are estimated from the samples and placed with
// greedy LPT — the stand-in for the load-aware scheduling a cluster scheduler
// performs. The returned index is in [0, n); callers map it through their
// slot list.
func placementOver(plan partition.Plan, pctx *partition.Context, n int) func(pid int) int {
	var lptSched partition.Schedule
	if _, ok := plan.(partition.WorkerPlacer); !ok {
		lptSched = partition.LPT(exec.EstimatePartitionLoads(plan, pctx), n)
	}
	return func(pid int) int {
		if placer, ok := plan.(partition.WorkerPlacer); ok {
			w := placer.PlaceWorker(pid, n)
			if w >= 0 && w < n {
				return w
			}
		}
		if pid < len(lptSched) {
			return lptSched[pid]
		}
		return int(partition.HashID(int64(pid), 0xc0ffee) % uint64(n))
	}
}

// redistributor returns the function that assigns a pid set to a target slot
// list: the placement is recomputed over exactly len(targets) workers, so
// failing over to survivors re-balances the lost partitions the same way the
// original placement balanced all of them.
func redistributor(plan partition.Plan, pctx *partition.Context) func(pids, targets []int) map[int][]int {
	return func(pids, targets []int) map[int][]int {
		place := placementOver(plan, pctx, len(targets))
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

func sortedKeys(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// shuffleStats is the shuffle-phase accounting of one run. A warm retained
// run reports the recorded total input with zero duration, bytes, and RPCs —
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

// slotJoin is one worker's (partial) join contribution: recovery rounds can
// produce several entries per slot, each covering a disjoint pid set.
type slotJoin struct {
	slot  int
	stats []PartitionStats
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

// runTransient is the one-shot path: ship, join, aggregate, and always clear
// the job state afterwards.
func (c *Coordinator) runTransient(ctx context.Context, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, band data.Band, opts Options, rs *runState) (*exec.Result, error) {
	// Partition data may already sit on workers when any later step fails;
	// always clear every job this query used (primary and recovery rounds,
	// best effort) so an aborted run cannot leak worker memory in a
	// long-lived recpartd. Reset is scoped to transient job state, so
	// retained plans of other queries are untouched.
	rs.addJob(opts.JobID)
	defer func() { c.resetJobs(rs.jobList()) }()

	// The transient path knows the upcoming join at shuffle time, so its
	// Loads carry the band and workers overlap prepare with chunks still in
	// flight.
	opts.band = band

	redistribute := redistributor(plan, pctx)
	wireStart := c.wireBytes()
	shuffleStart := time.Now()
	routed, err := exec.Route(ctx, plan, s, t, 0, 0, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	targets := c.liveSlots(rs)
	if len(targets) == 0 {
		return nil, errNoLiveWorkers
	}
	assignment := redistribute(routed.NonEmpty(), targets)
	owned, rpcs, err := c.shipPartitions(ctx, assignment, routed, opts, c.clearTransient(opts.JobID), redistribute, rs)
	if err != nil {
		return nil, err
	}
	st := shuffleStats{
		totalInput: routed.TotalInput,
		rpcs:       rpcs,
		duration:   time.Since(shuffleStart),
		bytes:      c.wireBytes() - wireStart,
	}

	joined, joinWall, err := c.runJoinsTransient(ctx, opts.JobID, owned, routed, redistribute, band, opts, rs)
	if err != nil {
		return nil, err
	}
	return c.aggregate(joined, opts, s, t, st, joinWall, rs), nil
}

// clearTransient returns the recovery hook that clears one job's partial
// state on a single worker before reshipping to it as the given attempt.
func (c *Coordinator) clearTransient(jobID string) func(context.Context, *workerClient, int) error {
	return func(ctx context.Context, wc *workerClient, attempt int) error {
		var rr ResetReply
		return wc.call(ctx, ServiceName+".Reset", &ResetArgs{JobID: jobID, Attempt: attempt}, &rr, c.opts.callDeadline(), 1, nil)
	}
}

// clearRetained returns the recovery hook that clears one plan's partial
// shipment on a single worker before reshipping to it as the given attempt.
func (c *Coordinator) clearRetained(planID string) func(context.Context, *workerClient, int) error {
	return func(ctx context.Context, wc *workerClient, attempt int) error {
		var er EvictReply
		return wc.call(ctx, ServiceName+".Evict", &EvictArgs{PlanID: planID, Attempt: attempt}, &er, c.opts.callDeadline(), 1, nil)
	}
}

// maxShipAttemptsPerWorker bounds how many times a shipment to one worker is
// cleared and restarted before the worker is abandoned for the query.
const maxShipAttemptsPerWorker = 2

// shipPartitions ships an assignment (slot → partition ids) with mid-shuffle
// failover. Each round ships every slot's pids in parallel; a slot whose
// shipment fails with a transport error is probed:
//
//   - alive → its partial job state is cleared and everything it was given
//     (including pids shipped in earlier rounds — clearing dropped them) is
//     reshipped to it, up to maxShipAttemptsPerWorker times, after which the
//     worker is abandoned for this query and its pids redistributed. The
//     reshipment goes under the same job id or plan fingerprint, so shipments
//     are numbered (Coordinator.shipments): the clearing call and the Loads
//     that follow it carry the new shipment's number, and the worker refuses
//     a Load of an aborted one that arrives late instead of joining its rows
//     a second time;
//   - dead → marked down; everything it ever owned is re-placed over the
//     surviving workers and reshipped from the coordinator-held row lists.
//
// Application errors are not failed over: Load is not idempotent, and a
// worker that rejects a chunk will reject it again; the shipment fails
// cleanly. The returned map is the final ownership (slot → pids resident
// there) the join phase must target.
func (c *Coordinator) shipPartitions(ctx context.Context, assignment map[int][]int, routed *exec.Routed, opts Options, clear func(context.Context, *workerClient, int) error, redistribute func(pids, targets []int) map[int][]int, rs *runState) (map[int][]int, int64, error) {
	owned := make(map[int][]int)
	attempts := make(map[int]int) // slot → shipments to it that died on the wire
	numbers := make(map[int]int)  // slot → number of the shipment to it now
	var rpcs int64
	for round := 0; len(assignment) > 0; round++ {
		if round > 2*len(c.workers)+4 {
			return nil, rpcs, fmt.Errorf("cluster: shuffle failover did not converge after %d rounds", round)
		}
		if err := ctx.Err(); err != nil {
			return nil, rpcs, err
		}
		slots := sortedKeys(assignment)
		type outcome struct {
			sent int64
			err  error
		}
		outs := make([]outcome, len(slots))
		var wg sync.WaitGroup
		for i, slot := range slots {
			wg.Add(1)
			if numbers[slot] == 0 {
				numbers[slot] = int(c.shipments.Add(1))
			}
			sopts := opts
			sopts.attempt = numbers[slot]
			go func(i, slot int) {
				defer wg.Done()
				outs[i].sent, outs[i].err = c.sendPartitions(ctx, c.workers[slot], assignment[slot], routed, sopts, rs)
			}(i, slot)
		}
		wg.Wait()

		next := make(map[int][]int)
		var orphaned []int // pids whose worker was abandoned this round
		for i, slot := range slots {
			rpcs += outs[i].sent
			pids := assignment[slot]
			err := outs[i].err
			if err == nil {
				owned[slot] = append(owned[slot], pids...)
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, rpcs, cerr
			}
			wc := c.workers[slot]
			if !isTransportErr(err) {
				return nil, rpcs, fmt.Errorf("cluster: shipping to worker %d (%s): %w", slot, wc.name(), err)
			}
			rs.retry()
			attempts[slot]++
			numbers[slot] = int(c.shipments.Add(1))
			abandon := false
			if !wc.probe(ctx) {
				rs.noteLost(slot)
				abandon = true
			} else if attempts[slot] > maxShipAttemptsPerWorker {
				// Alive but the shipment keeps dying on the wire: stop using
				// this worker for the query.
				rs.exclude(slot)
				abandon = true
			} else if cerr := clear(ctx, wc, numbers[slot]); cerr != nil {
				if isTransportErr(cerr) && !wc.probe(ctx) {
					rs.noteLost(slot)
				} else {
					rs.exclude(slot)
				}
				abandon = true
			}
			all := append(append([]int(nil), owned[slot]...), pids...)
			delete(owned, slot)
			if abandon {
				orphaned = append(orphaned, all...)
			} else {
				next[slot] = all
			}
		}
		if len(orphaned) > 0 {
			sort.Ints(orphaned)
			rs.failover("shuffle_failover", fmt.Sprintf("pids=%d", len(orphaned)))
			targets := c.liveSlots(rs)
			if len(targets) == 0 {
				return nil, rpcs, errNoLiveWorkers
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
	for _, pids := range owned {
		sort.Ints(pids)
	}
	return owned, rpcs, nil
}

// maxRecoveryRounds bounds how many reship-and-rejoin rounds the join phase
// attempts when workers keep dying.
const maxRecoveryRounds = 4

// runJoinsTransient triggers the local joins over the shipped ownership with
// mid-join failover: a worker that dies during its join — or silently comes
// back empty after a restart — has its pids reshipped to the survivors under
// a recovery job ID and just those joins rerun. Every reply is validated
// against the pid set the worker owns, and each pid's stats are merged
// exactly once, so recovered queries return the same pairs as undisturbed
// ones.
func (c *Coordinator) runJoinsTransient(ctx context.Context, baseJob string, owned map[int][]int, routed *exec.Routed, redistribute func(pids, targets []int) map[int][]int, band data.Band, opts Options, rs *runState) ([]slotJoin, time.Duration, error) {
	joinParallelism := opts.JoinParallelism
	joinStart := time.Now()
	var collected []slotJoin
	pending := owned
	curJob := baseJob
	for round := 0; len(pending) > 0; round++ {
		if round > maxRecoveryRounds {
			return nil, 0, fmt.Errorf("cluster: join failover did not converge after %d recovery rounds", round)
		}
		slots := sortedKeys(pending)
		type outcome struct {
			reply JoinReply
			err   error
		}
		outs := make([]outcome, len(slots))
		var wg sync.WaitGroup
		for i, slot := range slots {
			wg.Add(1)
			go func(i, slot int) {
				defer wg.Done()
				args := &JoinArgs{
					JobID:        curJob,
					Band:         band,
					CollectPairs: opts.CollectPairs,
					Parallelism:  joinParallelism,
					MorselRows:   opts.MorselRows,
				}
				outs[i].err = c.workers[slot].call(ctx, ServiceName+".Join", args, &outs[i].reply,
					c.opts.joinDeadline(), c.opts.MaxRetries, rs.retry)
			}(i, slot)
		}
		wg.Wait()

		var lostPids []int
		for i, slot := range slots {
			wc := c.workers[slot]
			if err := outs[i].err; err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, 0, cerr
				}
				if !isTransportErr(err) {
					return nil, 0, fmt.Errorf("cluster: local joins on worker %d (%s) failed: %w", slot, wc.name(), err)
				}
				rs.retry()
				if !wc.probe(ctx) {
					rs.noteLost(slot)
				}
				// Alive or not, the join would not complete within its
				// retries; move this round's pids elsewhere. Results merged
				// from the worker's earlier rounds stay valid — they were
				// computed and returned before the failure.
				rs.exclude(slot)
				lostPids = append(lostPids, pending[slot]...)
				continue
			}
			expected := make(map[int]bool, len(pending[slot]))
			for _, pid := range pending[slot] {
				expected[pid] = true
			}
			returned := make(map[int]bool, len(outs[i].reply.Partitions))
			kept := make([]PartitionStats, 0, len(outs[i].reply.Partitions))
			for _, ps := range outs[i].reply.Partitions {
				returned[ps.Partition] = true
				if expected[ps.Partition] {
					kept = append(kept, ps)
				}
			}
			for _, pid := range pending[slot] {
				if !returned[pid] {
					// The worker answered but no longer holds the pid — it
					// restarted between Load and Join. Its memory of the job
					// is gone; reship those pids (possibly back to it).
					lostPids = append(lostPids, pid)
				}
			}
			if len(kept) > 0 {
				collected = append(collected, slotJoin{slot: slot, stats: kept})
			}
		}
		if len(lostPids) == 0 {
			break
		}
		sort.Ints(lostPids)
		rs.retry()
		curJob = fmt.Sprintf("%s#r%d", baseJob, round+1)
		rs.failover("join_failover", fmt.Sprintf("pids=%d job=%s", len(lostPids), curJob))
		rs.addJob(curJob)
		targets := c.liveSlots(rs)
		if len(targets) == 0 {
			return nil, 0, errNoLiveWorkers
		}
		ropts := opts
		ropts.JobID = curJob
		ropts.retain = false
		wireStart := c.wireBytes()
		newOwned, rpcs, err := c.shipPartitions(ctx, redistribute(lostPids, targets), routed, ropts, c.clearTransient(curJob), redistribute, rs)
		rs.extraRPCs.Add(rpcs)
		rs.extraBytes.Add(c.wireBytes() - wireStart)
		if err != nil {
			return nil, 0, err
		}
		pending = newOwned
	}
	return collected, time.Since(joinStart), nil
}

// runJoinsRetained triggers the local joins of one sealed retained plan on
// the given slots in parallel, with retries but no failover. A worker that
// fails its liveness probe yields errWorkerLost, which the retained path turns
// into an invalidate-and-reship.
func (c *Coordinator) runJoinsRetained(ctx context.Context, planID string, slots []int, band data.Band, opts Options, rs *runState) ([]slotJoin, time.Duration, error) {
	joinStart := time.Now()
	outs := make([]JoinReply, len(slots))
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	for i, slot := range slots {
		wg.Add(1)
		go func(i, slot int) {
			defer wg.Done()
			args := &JoinArgs{
				JobID:        planID,
				Band:         band,
				CollectPairs: opts.CollectPairs,
				Parallelism:  opts.JoinParallelism,
				Retained:     true,
				MorselRows:   opts.MorselRows,
			}
			errs[i] = c.workers[slot].call(ctx, ServiceName+".Join", args, &outs[i],
				c.opts.joinDeadline(), c.opts.MaxRetries, rs.retry)
		}(i, slot)
	}
	wg.Wait()
	joinWall := time.Since(joinStart)

	joined := make([]slotJoin, 0, len(slots))
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
		joined = append(joined, slotJoin{slot: slot, stats: outs[i].Partitions})
	}
	return joined, joinWall, nil
}

// errStalePlanRec signals that a shipment record was superseded (evicted and
// re-created) while a query held it; the caller re-fetches and retries.
var errStalePlanRec = fmt.Errorf("cluster: retained-plan record superseded")

// maxRetainedAttempts bounds how often a retained query reships a plan that
// keeps disappearing (evictions, worker deaths) before giving up.
const maxRetainedAttempts = 6

// runRetained serves a query whose plan fingerprint is retained on the
// workers: the first run ships and seals the partitions, later runs join the
// resident data directly. If a worker lost the plan (retention-cap eviction,
// restart, or death), the shipment record is invalidated and the coordinator
// falls back to a cold reshipment over the currently live workers. The record
// is re-fetched every attempt so a concurrent EvictPlan can never leave two
// goroutines shipping the same fingerprint through different records.
func (c *Coordinator) runRetained(ctx context.Context, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, band data.Band, opts Options, rs *runState) (*exec.Result, error) {
	var lastErr error
	for attempt := 0; attempt < maxRetainedAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec := c.retainedRec(opts.PlanID)
		st, slots, warm, err := c.ensureShipped(ctx, rec, plan, pctx, s, t, band, opts, rs)
		if err == errStalePlanRec {
			lastErr = err
			continue
		}
		if errors.Is(err, errWorkerLost) {
			lastErr = err
			rs.failover("retained_failover", "worker lost during shipment")
			c.EvictPlan(opts.PlanID)
			continue
		}
		if err != nil {
			return nil, err
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
			c.EvictPlan(opts.PlanID)
			continue
		}
		// The shipment is resident, but rows may have been appended to the
		// relations since it was sealed (Engine.Append without an eager
		// absorb): shuffle just the appended suffix into the sealed plan
		// before joining, so warm queries never rescan or reship the base.
		if warm {
			if err := c.ensureFresh(ctx, rec, plan, pctx, s, t, opts, rs, &st); err != nil {
				if err == errStalePlanRec {
					lastErr = err
					continue
				}
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				lastErr = err
				rs.failover("retained_failover", "delta absorb failed; reshipping")
				c.EvictPlan(opts.PlanID)
				continue
			}
		}
		joined, joinWall, err := c.runJoinsRetained(ctx, opts.PlanID, slots, band, opts, rs)
		if err == nil {
			res := c.aggregate(joined, opts, s, t, st, joinWall, rs)
			res.WarmPartitions = warm
			return res, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if !errors.Is(err, errWorkerLost) && !strings.Contains(err.Error(), ErrUnknownRetainedPlan) {
			return nil, err
		}
		// A worker no longer holds the plan (retention-cap eviction, restart,
		// or death): drop the stale record and reship.
		lastErr = err
		rs.failover("retained_failover", "plan lost at join time; reshipping")
		c.EvictPlan(opts.PlanID)
	}
	return nil, fmt.Errorf("cluster: retained plan %q kept disappearing: %w", opts.PlanID, lastErr)
}

// retainedRec returns (creating if needed) the shipment record of a plan
// fingerprint.
func (c *Coordinator) retainedRec(planID string) *retainedPlanRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retainedPlans == nil {
		c.retainedPlans = make(map[string]*retainedPlanRec)
	}
	rec, ok := c.retainedPlans[planID]
	if !ok {
		rec = &retainedPlanRec{}
		c.retainedPlans[planID] = rec
	}
	return rec
}

// ensureShipped makes the plan's partitions resident and sealed on the
// workers, shipping them if this is the first query (or the previous shipment
// failed). Exactly one shuffle runs per fingerprint; concurrent first queries
// block on the record's write lock and then proceed warm. It returns the slot
// set holding the sealed shipment, which the warm join must target, and
// whether the shipment was already resident (warm) — the retained-tier
// outcome the trace reports.
func (c *Coordinator) ensureShipped(ctx context.Context, rec *retainedPlanRec, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, band data.Band, opts Options, rs *runState) (shuffleStats, []int, bool, error) {
	rec.mu.RLock()
	if rec.shipped {
		st := shuffleStats{totalInput: rec.totalInput}
		slots := append([]int(nil), rec.slots...)
		rec.mu.RUnlock()
		return st, slots, true, nil
	}
	rec.mu.RUnlock()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.shipped {
		return shuffleStats{totalInput: rec.totalInput}, append([]int(nil), rec.slots...), true, nil
	}
	// A concurrent EvictPlan may have removed this record from the map while
	// we waited for the lock; shipping through a superseded record could
	// interleave with the current record's shipment, so bail out and let the
	// caller re-fetch.
	c.mu.Lock()
	stale := c.retainedPlans[opts.PlanID] != rec
	c.mu.Unlock()
	if stale {
		return shuffleStats{}, nil, false, errStalePlanRec
	}
	// Clear any half-shipped remnants of a previously failed shipment before
	// loading: the registry accumulates across Load calls. The clearing is
	// numbered like a shipment, so a Load that outlived an earlier shipment of
	// this fingerprint — failed, evicted, long forgotten here — is older than
	// what every worker now accepts.
	c.evictWorkers(opts.PlanID, int(c.shipments.Add(1)))

	opts.JobID = opts.PlanID
	opts.retain = true

	redistribute := redistributor(plan, pctx)
	wireStart := c.wireBytes()
	start := time.Now()
	var st shuffleStats
	var owned map[int][]int
	targets := c.liveSlots(rs)
	if len(targets) == 0 {
		return shuffleStats{}, nil, false, errNoLiveWorkers
	}
	routed, err := exec.Route(ctx, plan, s, t, 0, 0, runtime.GOMAXPROCS(0))
	if err != nil {
		return shuffleStats{}, nil, false, err
	}
	st.totalInput = routed.TotalInput
	assignment := redistribute(routed.NonEmpty(), targets)
	owned, st.rpcs, err = c.shipPartitions(ctx, assignment, routed, opts, c.clearRetained(opts.PlanID), redistribute, rs)
	if err != nil {
		c.evictWorkers(opts.PlanID, 0)
		return shuffleStats{}, nil, false, err
	}

	// Seal on every slot that may serve this plan — both the owners and the
	// empty live workers, so "sealed with zero partitions" stays
	// distinguishable from "evicted" at join time.
	sealSet := make(map[int]bool)
	for slot := range owned {
		sealSet[slot] = true
	}
	for _, slot := range c.liveSlots(rs) {
		sealSet[slot] = true
	}
	sealed := make([]int, 0, len(sealSet))
	for slot := range sealSet {
		sealed = append(sealed, slot)
	}
	sort.Ints(sealed)
	final := sealed[:0]
	for _, slot := range sealed {
		wc := c.workers[slot]
		var sr SealReply
		sealArgs := &SealArgs{PlanID: opts.PlanID, Band: band}
		err := wc.call(ctx, ServiceName+".Seal", sealArgs, &sr, c.opts.callDeadline(), c.opts.MaxRetries, rs.retry)
		if err == nil {
			final = append(final, slot)
			continue
		}
		if isTransportErr(err) && len(owned[slot]) == 0 && !wc.probe(ctx) {
			// An empty worker died before sealing: it holds nothing of this
			// plan, so the shipment is complete without it.
			rs.noteLost(slot)
			continue
		}
		c.evictWorkers(opts.PlanID, 0)
		if isTransportErr(err) {
			if !wc.probe(ctx) {
				rs.noteLost(slot)
			}
			return shuffleStats{}, nil, false, fmt.Errorf("cluster: sealing plan on worker %d (%s): %w (%v)", slot, wc.name(), errWorkerLost, err)
		}
		return shuffleStats{}, nil, false, fmt.Errorf("cluster: sealing plan on worker %d (%s): %w", slot, wc.name(), err)
	}
	st.duration = time.Since(start)
	st.bytes = c.wireBytes() - wireStart
	rec.shipped = true
	rec.totalInput = st.totalInput
	rec.slots = append([]int(nil), final...)
	rec.coveredS = s.Len()
	rec.coveredT = t.Len()
	rec.pidSlot = make(map[int]int)
	for slot, pids := range owned {
		for _, pid := range pids {
			rec.pidSlot[pid] = slot
		}
	}
	return st, append([]int(nil), final...), false, nil
}

// ensureFresh catches a sealed shipment up to rows appended to s and t since
// it was shipped: the suffixes past the record's covered prefixes are shuffled
// through the same plan (with tuple IDs offset to stay globally consistent)
// and shipped as delta Loads into the sealed plan — existing partitions
// receive their delta exactly where their base rows live, new partitions are
// placed over the sealed slot set. Freshness is checked under a read lock so
// the common already-fresh case costs no delta work and warm queries proceed
// concurrently; catch-up itself runs under the record's write lock, so exactly
// one delta shuffle happens per appended suffix and is idempotent (covered
// advances only on success). On failure the shipment may be torn mid-delta;
// callers must evict the plan and fall back to a cold reshipment.
func (c *Coordinator) ensureFresh(ctx context.Context, rec *retainedPlanRec, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, opts Options, rs *runState, st *shuffleStats) error {
	rec.mu.RLock()
	fresh := !rec.shipped || (rec.coveredS >= s.Len() && rec.coveredT >= t.Len())
	rec.mu.RUnlock()
	if fresh {
		return nil
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if !rec.shipped || (rec.coveredS >= s.Len() && rec.coveredT >= t.Len()) {
		return nil
	}
	// A concurrent EvictPlan may have superseded this record; shipping deltas
	// through it would interleave with the fresh record's cold shipment.
	c.mu.Lock()
	stale := c.retainedPlans[opts.PlanID] != rec
	c.mu.Unlock()
	if stale {
		return errStalePlanRec
	}

	wireStart := c.wireBytes()
	start := time.Now()
	deltaS := s.Slice(s.Name(), rec.coveredS, s.Len())
	deltaT := t.Slice(t.Name(), rec.coveredT, t.Len())
	routed, err := exec.Route(ctx, plan, deltaS, deltaT, rec.coveredS, rec.coveredT, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	opts.JobID = opts.PlanID
	opts.retain = true
	opts.delta = true
	place := placementOver(plan, pctx, len(rec.slots))
	assignment := make(map[int][]int)
	for _, pid := range routed.NonEmpty() {
		slot, ok := rec.pidSlot[pid]
		if !ok {
			slot = rec.slots[place(pid)]
		}
		assignment[slot] = append(assignment[slot], pid)
	}
	var rpcs int64
	for _, slot := range sortedKeys(assignment) {
		pids := assignment[slot]
		sort.Ints(pids)
		wc := c.workers[slot]
		sent, err := c.sendPartitions(ctx, wc, pids, routed, opts, rs)
		rpcs += sent
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if isTransportErr(err) && !wc.probe(ctx) {
				rs.noteLost(slot)
			}
			st.rpcs += rpcs
			st.bytes += c.wireBytes() - wireStart
			return fmt.Errorf("cluster: delta to worker %d (%s): %w (%v)", slot, wc.name(), errWorkerLost, err)
		}
		if rec.pidSlot == nil {
			rec.pidSlot = make(map[int]int)
		}
		for _, pid := range pids {
			if _, ok := rec.pidSlot[pid]; !ok {
				rec.pidSlot[pid] = slot
			}
		}
	}
	rec.totalInput += routed.TotalInput
	rec.coveredS = s.Len()
	rec.coveredT = t.Len()
	st.totalInput = rec.totalInput
	st.rpcs += rpcs
	st.bytes += c.wireBytes() - wireStart
	st.absorbed += time.Since(start)
	return nil
}

// AbsorbPlan eagerly catches a retained plan up to rows appended to s and t
// since it was shipped, so the next warm query of the plan finds the shipment
// fresh and moves zero bytes. It is the engine's Append hook. A plan with no
// shipment record (never shipped, or evicted) is a no-op: the next query ships
// cold from the full relations and needs no delta. On error the shipment may
// be torn; the caller must evict the plan (the next query then reships cold).
func (c *Coordinator) AbsorbPlan(ctx context.Context, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, opts Options) error {
	opts, err := opts.resolve()
	if err != nil {
		return err
	}
	if opts.PlanID == "" {
		return fmt.Errorf("cluster: AbsorbPlan requires a plan id")
	}
	c.mu.Lock()
	rec := c.retainedPlans[opts.PlanID]
	c.mu.Unlock()
	if rec == nil {
		return nil
	}
	var st shuffleStats
	err = c.ensureFresh(ctx, rec, plan, pctx, s, t, opts, c.newRunState(), &st)
	if err == errStalePlanRec {
		return nil // superseded; the fresh record ships cold with everything
	}
	return err
}

// ShipPlan shuffles, ships, and seals a plan's partitions on the workers
// without running a join — the priming half of a retained query, exported so
// an engine can build a replacement plan in the background (drift-triggered
// re-partitioning) while the old plan keeps serving, then swap atomically.
func (c *Coordinator) ShipPlan(ctx context.Context, plan partition.Plan, pctx *partition.Context, s, t *data.Relation, band data.Band, opts Options) error {
	opts, err := opts.resolve()
	if err != nil {
		return err
	}
	if opts.PlanID == "" {
		return fmt.Errorf("cluster: ShipPlan requires a plan id")
	}
	var lastErr error
	for attempt := 0; attempt < maxRetainedAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		rs := c.newRunState()
		if rs.liveAtStart == 0 {
			return errNoLiveWorkers
		}
		rec := c.retainedRec(opts.PlanID)
		_, _, _, err := c.ensureShipped(ctx, rec, plan, pctx, s, t, band, opts, rs)
		if err == errStalePlanRec {
			lastErr = err
			continue
		}
		return err
	}
	return fmt.Errorf("cluster: priming plan %q: %w", opts.PlanID, lastErr)
}

// EvictPlan discards one retained plan from every worker and removes the
// coordinator's shipment record (so the record map cannot grow without bound
// in a long-lived coordinator); the next query naming the fingerprint ships
// cold through a fresh record. It is the invalidation hook engines call when
// a dataset is replaced, and the failover path's invalidation when a worker
// holding part of a shipment dies.
func (c *Coordinator) EvictPlan(planID string) {
	c.mu.Lock()
	rec := c.retainedPlans[planID]
	c.mu.Unlock()
	if rec == nil {
		c.evictWorkers(planID, 0)
		return
	}
	// Take the record's write lock so an in-flight shipment completes before
	// its plan is evicted from the workers.
	rec.mu.Lock()
	rec.shipped = false
	rec.slots = nil
	c.mu.Lock()
	if c.retainedPlans[planID] == rec {
		delete(c.retainedPlans, planID)
	}
	c.mu.Unlock()
	c.evictWorkers(planID, 0)
	rec.mu.Unlock()
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

// aggregate folds the workers' join replies into the Result. Workers reply
// with partitions sorted by id, and slots are visited in collection order
// (deterministic), so the aggregation is deterministic across runs; pairs are
// sorted at the end either way.
func (c *Coordinator) aggregate(joined []slotJoin, opts Options, s, t *data.Relation, st shuffleStats, joinWall time.Duration, rs *runState) *exec.Result {
	workers := len(c.workers)
	res := &exec.Result{
		Workers:           workers,
		ShuffleTime:       st.duration,
		DeltaAbsorbTime:   st.absorbed,
		JoinWallTime:      joinWall,
		InputS:            s.Len(),
		InputT:            t.Len(),
		TotalInput:        st.totalInput,
		ShuffleBytes:      st.bytes + rs.extraBytes.Load(),
		ShuffleRawBytes:   rs.rawBytes.Load(),
		ShuffleEncodeBusy: time.Duration(rs.encodeNanos.Load()),
		ShuffleDecodeBusy: time.Duration(rs.decodeNanos.Load()),
		ShuffleRPCs:       st.rpcs + rs.extraRPCs.Load(),
		Retries:           int(rs.retries.Load()),
		LostWorkers:       rs.lostCount(),
		WorkerInput:       make([]int64, workers),
		WorkerOutput:      make([]int64, workers),
	}
	res.Degraded = res.LostWorkers > 0 || rs.liveAtStart < workers
	res.FailoverRounds = int(rs.failovers.Load())
	res.FaultEvents = rs.eventList()
	c.m.runs.Inc()
	c.m.shuffleBytes.Add(res.ShuffleBytes)
	c.m.shuffleRawBytes.Add(res.ShuffleRawBytes)
	c.m.shuffleWire.Add(res.ShuffleBytes)
	c.m.shuffleRPCs.Add(res.ShuffleRPCs)
	c.m.retries.Add(int64(res.Retries))
	c.m.failoverRounds.Add(int64(res.FailoverRounds))
	c.m.workersLost.Add(int64(res.LostWorkers))
	workerBusy := make([]time.Duration, workers)
	for _, sj := range joined {
		for _, ps := range sj.stats {
			res.Partitions++
			res.WorkerInput[sj.slot] += int64(ps.InputS + ps.InputT)
			res.WorkerOutput[sj.slot] += ps.Output
			res.Output += ps.Output
			res.StaleRebuildTime += time.Duration(ps.RebuildNanos)
			if ps.FoldNanos > 0 {
				res.Folds++
				res.FoldTime += time.Duration(ps.FoldNanos)
			}
			workerBusy[sj.slot] += time.Duration(ps.JoinNanos)
			if opts.CollectPairs {
				for i := range ps.PairS {
					res.Pairs = append(res.Pairs, exec.Pair{S: ps.PairS[i], T: ps.PairT[i]})
				}
			}
		}
	}
	maxW := 0
	for w := 1; w < workers; w++ {
		lw := opts.Model.Load(float64(res.WorkerInput[w]), float64(res.WorkerOutput[w]))
		lm := opts.Model.Load(float64(res.WorkerInput[maxW]), float64(res.WorkerOutput[maxW]))
		if lw > lm {
			maxW = w
		}
	}
	res.Im = res.WorkerInput[maxW]
	res.Om = res.WorkerOutput[maxW]
	res.MaxLoad = opts.Model.Load(float64(res.Im), float64(res.Om))
	res.LowerBoundLoad = opts.Model.LowerBoundLoad(float64(res.InputS+res.InputT), float64(res.Output), workers)
	if res.InputS+res.InputT > 0 {
		res.DupOverhead = float64(res.TotalInput)/float64(res.InputS+res.InputT) - 1
	}
	if res.LowerBoundLoad > 0 {
		res.LoadOverhead = res.MaxLoad/res.LowerBoundLoad - 1
	}
	res.PredictedTime = opts.Model.Predict(float64(res.TotalInput), float64(res.Im), float64(res.Om))
	for _, busy := range workerBusy {
		if busy > res.Makespan {
			res.Makespan = busy
		}
	}
	if opts.CollectPairs {
		sort.Slice(res.Pairs, func(a, b int) bool {
			if res.Pairs[a].S != res.Pairs[b].S {
				return res.Pairs[a].S < res.Pairs[b].S
			}
			return res.Pairs[a].T < res.Pairs[b].T
		})
	}
	return res
}

// sendPartitions streams one worker's partitions in fixed-size chunks, keeping
// at most opts.Window Load RPCs in flight. A chunk's rows are gathered from the
// source relation, through the partition's routed list, into a slab this
// sender owns and reuses, and travel as a columnar payload encoded from it
// (a row list may span several routing shards; the chunk boundaries are those
// of the partition, not of its lists). A worker whose Ping advertised
// less than wire.Version cannot read them and is refused with an error that is
// not failed over. Every Load carries its partition's row counts per side
// (and, on transient runs, the band), so the worker knows when a partition is
// whole and can begin preparing its join structure while later partitions are
// still in flight. Each wait for a window slot is bounded
// by the call deadline and the query context; either firing drops the
// connection, aborting the whole in-flight window at once.
func (c *Coordinator) sendPartitions(ctx context.Context, wc *workerClient, pids []int, routed *exec.Routed, opts Options, rs *runState) (int64, error) {
	cl, err := wc.conn()
	if err != nil {
		wc.markSuspect()
		return 0, err
	}
	if v := wc.wireVersion(); v < wire.Version {
		return 0, fmt.Errorf("the worker reads wire version %d, this coordinator ships version %d only", v, wire.Version)
	}
	// Client.Go gob-encodes the args before returning, so one encoder's
	// buffer — and one slab of gathered rows under it — can back every chunk
	// of the stream without copies.
	enc := wire.NewEncoder(wire.ModeAuto)
	var keys []float64
	var ids []int64
	deadline := c.opts.callDeadline()
	done := make(chan *rpc.Call, opts.Window+1)
	inFlight := 0
	var sent int64
	var firstErr error
	collect := func() {
		var timerC <-chan time.Time
		if deadline > 0 {
			timer := time.NewTimer(deadline)
			defer timer.Stop()
			timerC = timer.C
		}
		select {
		case <-ctx.Done():
			firstErr = ctx.Err()
			wc.dropConn(cl)
		case <-timerC:
			firstErr = fmt.Errorf("%w: Load to worker %d (%s) after %v", errCallTimeout, wc.idx, wc.name(), deadline)
			wc.dropConn(cl)
			wc.markSuspect()
		case call := <-done:
			inFlight--
			rs.decodeNanos.Add(call.Reply.(*LoadReply).DecodeNanos)
			if call.Error != nil && firstErr == nil {
				firstErr = call.Error
				if isTransportErr(call.Error) {
					wc.dropConn(cl)
					wc.markSuspect()
				}
			}
		}
	}
	dispatch := func(args *LoadArgs) {
		for inFlight >= opts.Window {
			collect()
			if firstErr != nil {
				return
			}
		}
		cl.Go(ServiceName+".Load", args, &LoadReply{}, done)
		inFlight++
		sent++
	}
	sendSide := func(pid int, name string, side *exec.RoutedSide) {
		dims, total := side.Rel.Dims(), side.Rows(pid)
		for lo := 0; lo < total && firstErr == nil; lo += opts.ChunkSize {
			n := min(opts.ChunkSize, total-lo)
			keys, ids = slices.Grow(keys[:0], n*dims)[:n*dims], slices.Grow(ids[:0], n)[:n]
			side.Gather(pid, lo, lo+n, keys, ids)
			rs.rawBytes.Add(wire.RawBytes(n, dims))
			args := &LoadArgs{
				JobID:     opts.JobID,
				Partition: pid,
				Side:      name,
				ExpectS:   routed.S.Rows(pid),
				ExpectT:   routed.T.Rows(pid),
				Band:      opts.band,
				Retain:    opts.retain,
				Delta:     opts.delta,
				Attempt:   opts.attempt,
			}
			start := time.Now()
			args.Columnar = enc.EncodeChunk(keys, dims, ids)
			rs.encodeNanos.Add(time.Since(start).Nanoseconds())
			dispatch(args)
		}
	}
	for _, pid := range pids {
		sendSide(pid, "S", &routed.S)
		sendSide(pid, "T", &routed.T)
	}
	for inFlight > 0 && firstErr == nil {
		collect()
	}
	if firstErr != nil {
		return sent, firstErr
	}
	wc.markUp()
	return sent, nil
}

// resetJobs discards the jobs' partition state on every worker, best effort.
// It runs deferred on success and on every error path, so a run that fails
// mid-shuffle or mid-join retains nothing on the workers. Cleanup uses a
// background context (the query's may already be cancelled) and retries once:
// a Reset lost to a transient blip must not leak a job in a long-lived
// recpartd. The Reset is final: the workers close the job ids, so a Load of
// this query still in flight somewhere cannot bring a job back afterwards.
func (c *Coordinator) resetJobs(jobIDs []string) {
	for _, jobID := range jobIDs {
		for _, wc := range c.workers {
			var rr ResetReply
			_ = wc.call(context.Background(), ServiceName+".Reset", &ResetArgs{JobID: jobID, Final: true}, &rr, c.opts.callDeadline(), 1, nil)
		}
	}
}
