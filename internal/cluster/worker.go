package cluster

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/rpc"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/obs"
	"bandjoin/internal/wire"
)

// Worker is the RPC service a worker machine runs. It accumulates partition
// input shipped by the coordinator and executes local band-joins on request.
// A single worker can hold several jobs concurrently (keyed by job ID), like
// a node-manager running several reduce tasks. Loads for different partitions
// append concurrently, and a job's joins run on a bounded goroutine pool.
//
// Besides the transient job table (cleared by Reset after every query), the
// worker keeps a retained-plan registry: partition data shipped with
// LoadArgs.Retain and completed with Seal stays resident under its plan
// fingerprint, so repeated queries over the same plan run their local joins
// with zero shuffle. Sealed plans change only through delta appends
// (LoadArgs.Delta), which hold the target partition's write lock; joins take
// read locks and therefore run concurrently with each other.
type Worker struct {
	name string

	// maxParallelism caps the per-job join parallelism a coordinator may
	// request via JoinArgs.Parallelism; zero means GOMAXPROCS. Set it before
	// serving (see SetMaxParallelism).
	maxParallelism int

	// maxRetained caps the number of sealed retained plans; zero means
	// unlimited. When Seal pushes the registry past the cap, the
	// least-recently-sealed plan is evicted (coordinators detect that via
	// ErrUnknownRetainedPlan and fall back to a cold shuffle).
	maxRetained int

	mu       sync.Mutex // guards jobs, closed, retained, sealSeq, draining
	jobs     map[string]*jobState
	retained map[string]*retainedState
	sealSeq  uint64

	// closed holds the ids of the last closedJobs jobs reset with
	// ResetArgs.Final, closedRing the same ids in closing order (closedNext is
	// the oldest, overwritten next).
	closed     map[string]struct{}
	closedRing [closedJobs]string
	closedNext int

	// draining rejects new data-plane work (Load, Join, Seal) while inflight
	// tracks the calls already running, so a graceful shutdown can stop taking
	// queries yet let the ones in progress finish (see Drain).
	draining bool
	inflight sync.WaitGroup

	// wireVersion is the chunk format version advertised in Ping replies
	// (wire.Version by default). Tests advertise an older value via
	// SetWireVersion to stand in for an old worker, which a coordinator must
	// refuse to ship to.
	wireVersion int

	// prepSem bounds the background pipelined-join preparations (partitions
	// whose shipment completed while later partitions are still in flight)
	// to the same width as the join pool.
	prepSem chan struct{}

	// decPool holds per-RPC columnar decode scratch (a wire.Decoder plus a
	// column buffer), so concurrent Loads decode without per-chunk allocation.
	decPool sync.Pool

	m *workerMetrics
}

// decodeScratch is the pooled per-Load columnar decoding state.
type decodeScratch struct {
	dec wire.Decoder
	col []float64
}

// workerMetrics is the worker's observability surface: data-plane counters
// (Load/Join RPCs, tuples, bytes, pairs), retained-tier outcomes, the join
// pool's occupancy, per-partition join latency, and scrape-time occupancy
// gauges, all in the worker's own registry (see Worker.Metrics). Counter
// updates on the Load/Join paths are single atomics.
type workerMetrics struct {
	reg *obs.Registry

	loadRPCs     *obs.Counter
	loadTuples   *obs.Counter
	loadBytes    *obs.Counter
	loadRawBytes *obs.Counter
	loadRejected *obs.Counter

	pipelinedPreps *obs.Counter

	deltaLoads    *obs.Counter
	deltaTuples   *obs.Counter
	staleRebuilds *obs.Counter
	folds         *obs.Counter

	joinRPCs         *obs.Counter
	partitionsJoined *obs.Counter
	pairsEmitted     *obs.Counter
	retainedHits     *obs.Counter
	retainedMisses   *obs.Counter
	joinInflight     *obs.Gauge
	morsels          *obs.Counter
	morselSteals     *obs.Counter
	stragglerRatio   *obs.Gauge

	seals     *obs.Counter
	evictions *obs.Counter

	partitionJoinSeconds *obs.Histogram
	loadChunkBytes       *obs.Histogram
	staleRebuildSeconds  *obs.Histogram
	foldSeconds          *obs.Histogram
	decodeSeconds        *obs.Histogram
}

func newWorkerMetrics(w *Worker) *workerMetrics {
	reg := obs.NewRegistry()
	m := &workerMetrics{
		reg:              reg,
		loadRPCs:         reg.Counter("bandjoin_worker_load_rpcs_total", "Load RPCs accepted."),
		loadTuples:       reg.Counter("bandjoin_worker_load_tuples_total", "Tuples received via Load."),
		loadBytes:        reg.Counter("bandjoin_worker_load_bytes_total", "Payload bytes (keys+IDs) received via Load, as shipped on the wire."),
		loadRawBytes:     reg.Counter("bandjoin_worker_load_raw_bytes_total", "Bytes the received tuples would occupy row-major and uncompressed (raw/wire = compression ratio)."),
		loadRejected:     reg.Counter("bandjoin_worker_load_rejected_total", "Data-plane RPCs rejected while draining."),
		pipelinedPreps:   reg.Counter("bandjoin_worker_pipelined_preps_total", "Partitions presorted and prepared in the background while the shuffle was still in flight."),
		deltaLoads:       reg.Counter("bandjoin_worker_delta_loads_total", "Delta Load RPCs appended into sealed retained plans."),
		deltaTuples:      reg.Counter("bandjoin_worker_delta_tuples_total", "Tuples appended into sealed retained plans via delta Loads."),
		staleRebuilds:    reg.Counter("bandjoin_worker_stale_rebuilds_total", "Prepared join structures rebuilt lazily after delta invalidation."),
		folds:            reg.Counter("bandjoin_worker_folds_total", "Retained partitions whose appended S rows were folded into dim-0 order and given resolved cell lists (T-side structure kept)."),
		joinRPCs:         reg.Counter("bandjoin_worker_join_rpcs_total", "Join RPCs served."),
		partitionsJoined: reg.Counter("bandjoin_worker_partitions_joined_total", "Partition-level local joins executed."),
		pairsEmitted:     reg.Counter("bandjoin_worker_pairs_emitted_total", "Result pairs produced by local joins."),
		retainedHits:     reg.Counter("bandjoin_worker_retained_join_total", "Retained-plan join outcomes.", "outcome", "hit"),
		retainedMisses:   reg.Counter("bandjoin_worker_retained_join_total", "Retained-plan join outcomes.", "outcome", "miss"),
		joinInflight:     reg.Gauge("bandjoin_worker_join_pool_inflight", "Partition joins currently running."),
		morsels:          reg.Counter("bandjoin_worker_morsels_total", "Probe-side morsels executed by the join pool's morsel scheduler."),
		morselSteals:     reg.Counter("bandjoin_worker_morsel_steals_total", "Morsels executed by a pool worker other than their partition's first claimer."),
		stragglerRatio:   reg.Gauge("bandjoin_worker_straggler_ratio_millis", "Max-partition / mean-partition probe rows of the last morsel join, in thousandths."),
		seals:            reg.Counter("bandjoin_worker_seals_total", "Retained plans sealed."),
		evictions:        reg.Counter("bandjoin_worker_evictions_total", "Retained plans evicted (explicit or cap)."),
		partitionJoinSeconds: reg.Histogram("bandjoin_worker_partition_join_seconds",
			"Per-partition local-join latency.", obs.LatencyBuckets()),
		loadChunkBytes: reg.Histogram("bandjoin_worker_load_chunk_bytes",
			"Per-Load payload size (keys+IDs).", obs.ByteBuckets()),
		staleRebuildSeconds: reg.Histogram("bandjoin_worker_stale_rebuild_seconds",
			"Per-partition lazy prepared-structure rebuild latency.", obs.LatencyBuckets()),
		foldSeconds: reg.Histogram("bandjoin_worker_fold_seconds",
			"Per-partition S-side fold latency.", obs.LatencyBuckets()),
		decodeSeconds: reg.Histogram("bandjoin_worker_decode_seconds",
			"Per-Load columnar chunk decode latency (wire bytes to partition arenas).", obs.LatencyBuckets()),
	}
	reg.GaugeFunc("bandjoin_worker_jobs", "Resident transient jobs.", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return float64(len(w.jobs))
	})
	reg.GaugeFunc("bandjoin_worker_retained_plans", "Resident retained plans.", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return float64(len(w.retained))
	})
	reg.GaugeFunc("bandjoin_worker_retained_bytes", "Approximate key/ID bytes held by retained plans.", func() float64 {
		return float64(w.retainedBytes())
	})
	reg.GaugeFunc("bandjoin_worker_transient_bytes", "Approximate key/ID bytes held by transient jobs.", func() float64 {
		return float64(w.transientBytes())
	})
	reg.GaugeFunc("bandjoin_worker_draining", "1 while the worker is draining.", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.draining {
			return 1
		}
		return 0
	})
	return m
}

// observeRefresh records what one partitionData.refresh did.
func (m *workerMetrics) observeRefresh(rebuildNanos, foldNanos int64) {
	if rebuildNanos > 0 {
		m.staleRebuilds.Inc()
		m.staleRebuildSeconds.Observe(float64(rebuildNanos) / 1e9)
	}
	if foldNanos > 0 {
		m.folds.Inc()
		m.foldSeconds.Observe(float64(foldNanos) / 1e9)
	}
}

// Metrics returns the worker's metrics registry (what recpartd serves behind
// -metrics-addr).
func (w *Worker) Metrics() *obs.Registry { return w.m.reg }

// beginWork admits one data-plane RPC, or rejects it if the worker is
// draining. The WaitGroup Add happens under the same lock as the draining
// check, so Drain can never observe the flag set yet miss an admitted call.
func (w *Worker) beginWork() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining {
		w.m.loadRejected.Inc()
		return fmt.Errorf("cluster: worker %s is draining", w.name)
	}
	w.inflight.Add(1)
	return nil
}

func (w *Worker) endWork() { w.inflight.Done() }

// Drain puts the worker into draining mode — new Load/Join/Seal calls are
// rejected while Ping, Reset, and Evict keep working — and waits up to
// timeout for the in-flight data-plane calls to finish. It reports whether
// everything drained in time; timeout <= 0 waits indefinitely. Drain is the
// graceful-shutdown half of cmd/recpartd's signal handling (the other half is
// closing the listener).
func (w *Worker) Drain(timeout time.Duration) bool {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
	done := make(chan struct{})
	go func() {
		w.inflight.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

// jobState holds one job's partitions. Its mutex guards only the partitions
// map; every partition carries its own lock so that concurrent Load batches
// for different partitions append in parallel, and a late Load batch for a
// partition whose join is already running waits for that join instead of
// racing it.
type jobState struct {
	mu         sync.Mutex
	partitions map[int]*partitionData
	// attempt is the lowest shipment number this job accepts Loads of: the
	// Attempt of the last Reset or Evict that cleared it mid-query, 0 if none
	// did. Written only when the job is created (under Worker.mu).
	attempt int
}

// retainedState is one retained plan: a jobState plus the seal bit that makes
// it joinable, and its position in the seal order (for cap eviction).
type retainedState struct {
	jobState
	sealed bool
	seq    uint64
}

type partitionData struct {
	// mu is a read-write lock: Load appends under the write lock, while joins
	// hold the read lock, so any number of concurrent queries can join the
	// same (immutable once sealed) retained partition in parallel, and a late
	// Load batch for a partition whose join is already running waits for that
	// join instead of racing it.
	mu   sync.RWMutex
	s    *data.Relation
	sIDs []int64
	t    *data.Relation
	tIDs []int64
	// dims is the partition's dimensionality, fixed at creation, so it is
	// read without the lock.
	dims int

	// prepared caches the local join's reusable structure (the ε-grid),
	// keyed by band. For retained partitions it is prebuilt at Seal time for
	// the plan's band and rebuilt lazily after a T-side delta; for transient
	// partitions the pipelined-join path builds it in the background as soon
	// as the partition's shipment completes.
	prepKey  string
	prepared *localjoin.EpsGrid

	// preparing claims a transient partition's background build, so it is
	// spawned at most once.
	preparing bool
}

// newPartitionData returns an empty partition for the given dimensionality.
func newPartitionData(dims int) *partitionData {
	return &partitionData{s: data.NewRelation("S-part", dims), t: data.NewRelation("T-part", dims), dims: dims}
}

// readyLocked reports (under p.mu) that a transient partition holds exactly
// the rows the Load at hand announced for its shipment, in a band it can be
// prepared for, and that no prepared structure exists or is being built yet.
// net/rpc dispatches requests out of order, so this is checked after every
// data Load, whichever side came last.
func (p *partitionData) readyLocked(args *LoadArgs) bool {
	return !p.preparing && p.prepKey == "" && p.s.Len() == args.ExpectS && p.t.Len() == args.ExpectT &&
		args.Band.Validate() == nil && args.Band.Dims() == p.s.Dims()
}

// prepCanceled marks a transient partition whose join started before the
// queued background preparation did: spawnPrepare backs off (prepKey is no
// longer empty) and the join builds its structure inline exactly once. It can
// never collide with a real prep key (those are "low|high" strings).
const prepCanceled = "\x00canceled"

// prepKeyFor names the band a prepared structure is valid for.
func prepKeyFor(band data.Band) string {
	return fmt.Sprintf("%v|%v", band.Low, band.High)
}

// refresh brings a retained partition's prepared join up to date for band
// before a probe, and reports the nanoseconds of whichever of two things that
// took (both zero when the cached structure was current):
//
//   - a rebuild, when a delta append to the T side invalidated the sealed
//     structure (Load clears prepKey; an append to S alone keeps it, unless
//     the partition joined through the nested loop and had none), or when the
//     query's band is not the one the structure was built for.
//     localjoin.Prepare is correct over inputs in any order — the ε-grid does
//     not sort them — so rebuilding over an unsorted appended tail is too;
//   - a fold (exec.FoldS), when the structure stands but the rows appended to
//     S since the seal or the last fold have outgrown their share: S and its
//     IDs are re-sorted and the structure gets lists for all of S, the T side
//     untouched. s, sIDs and prepared are replaced together under the write
//     lock, and a join reads all three under the read lock it holds while it
//     probes (see probeSetup): the lists are positional, a structure resolved
//     for one S order must never meet another.
//
// The structure itself is fetched afterwards, under the join's read lock.
func (p *partitionData) refresh(band data.Band) (rebuildNanos, foldNanos int64) {
	key := prepKeyFor(band)
	p.mu.RLock()
	current := p.prepKey == key && !exec.NeedsFold(p.s, p.prepared)
	p.mu.RUnlock()
	if current {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.prepKey != key {
		start := time.Now()
		p.prepared = localjoin.Prepare(p.s, p.t, band)
		p.prepKey = key
		rebuildNanos = time.Since(start).Nanoseconds()
	} else if exec.NeedsFold(p.s, p.prepared) {
		var took time.Duration
		p.s, p.sIDs, p.prepared, took = exec.FoldS(p.s, p.sIDs, p.prepared)
		foldNanos = took.Nanoseconds()
	}
	return rebuildNanos, foldNanos
}

// preparedLocked returns the partition's prepared join if it is the one for
// band, else nil (a T-side delta landed since refresh; the join builds for
// itself, as for a transient partition). Caller holds p.mu, and keeps holding
// it while it probes the structure with p.s.
func (p *partitionData) preparedLocked(band data.Band) *localjoin.EpsGrid {
	if p.prepKey != prepKeyFor(band) {
		return nil
	}
	return p.prepared
}

// NewWorker returns a worker service with the given display name.
func NewWorker(name string) *Worker {
	w := &Worker{
		name:        name,
		jobs:        make(map[string]*jobState),
		closed:      make(map[string]struct{}),
		retained:    make(map[string]*retainedState),
		wireVersion: wire.Version,
		prepSem:     make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
	w.decPool.New = func() any { return &decodeScratch{} }
	w.m = newWorkerMetrics(w)
	return w
}

// SetWireVersion overrides the chunk format version the worker advertises in
// Ping replies (tests use it to stand in for an old worker). It must be called
// before the worker starts serving.
func (w *Worker) SetWireVersion(v int) {
	if v < 0 {
		v = 0
	}
	w.wireVersion = v
}

// payloadBytes approximates one partition's resident key/ID footprint under
// its read lock.
func (p *partitionData) payloadBytes() int64 {
	return int64(p.s.Len()+p.t.Len())*int64(p.s.Dims())*8 +
		int64(len(p.sIDs)+len(p.tIDs))*8
}

// sumJobBytes walks one job's partitions and sums their footprints. It takes
// job.mu only to copy the partition pointers and each p.mu read lock only to
// sum, so a scrape never holds two locks at once and cannot deadlock against
// the Load path (which locks job.mu then p.mu).
func sumJobBytes(job *jobState) int64 {
	job.mu.Lock()
	parts := make([]*partitionData, 0, len(job.partitions))
	for _, p := range job.partitions {
		parts = append(parts, p)
	}
	job.mu.Unlock()
	var total int64
	for _, p := range parts {
		p.mu.RLock()
		total += p.payloadBytes()
		p.mu.RUnlock()
	}
	return total
}

// retainedBytes approximates the key/ID bytes held by the retained-plan
// registry. w.mu is released before any per-job lock is taken.
func (w *Worker) retainedBytes() int64 {
	w.mu.Lock()
	jobs := make([]*jobState, 0, len(w.retained))
	for _, rs := range w.retained {
		jobs = append(jobs, &rs.jobState)
	}
	w.mu.Unlock()
	var total int64
	for _, job := range jobs {
		total += sumJobBytes(job)
	}
	return total
}

// transientBytes approximates the key/ID bytes held by the transient job
// table.
func (w *Worker) transientBytes() int64 {
	w.mu.Lock()
	jobs := make([]*jobState, 0, len(w.jobs))
	for _, job := range w.jobs {
		jobs = append(jobs, job)
	}
	w.mu.Unlock()
	var total int64
	for _, job := range jobs {
		total += sumJobBytes(job)
	}
	return total
}

// SetMaxParallelism caps the join parallelism coordinators may request; n < 1
// restores the default (GOMAXPROCS). It must be called before the worker
// starts serving.
func (w *Worker) SetMaxParallelism(n int) {
	if n < 1 {
		n = 0
	}
	w.maxParallelism = n
}

// SetMaxRetained caps the number of sealed retained plans kept resident; n < 1
// removes the cap. It must be called before the worker starts serving.
func (w *Worker) SetMaxRetained(n int) {
	if n < 1 {
		n = 0
	}
	w.maxRetained = n
}

// Retained reports the number of resident retained plans (sealed or still
// shipping); tests use it to pin the Reset-scoping regression.
func (w *Worker) Retained() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.retained)
}

// Load implements the RPC method receiving partition input as a columnar
// chunk of internal/wire.
func (w *Worker) Load(args *LoadArgs, reply *LoadReply) error {
	if err := w.beginWork(); err != nil {
		return err
	}
	defer w.endWork()
	// The arguments are unvalidated network input (FuzzLoadArgs).
	if args.Partition < 0 || args.Attempt < 0 || args.ExpectS < 0 || args.ExpectT < 0 {
		return fmt.Errorf("cluster: worker %s: malformed Load: a negative partition, shipment number or expected count", w.name)
	}
	if len(args.Columnar) == 0 {
		// gob drops the fields this struct no longer has, so this is also what
		// a coordinator that still ships one of the older row-major forms, or
		// an end-of-partition marker carrying no data, sends.
		return fmt.Errorf("cluster: worker %s: Load carries no columnar chunk; this worker reads wire version %d only (the row-major formats before it are gone)",
			w.name, wire.Version)
	}
	// Parse only the header here (it bounds the row count by
	// wire.MaxChunkRows); the columns are decoded straight into the
	// partition's arenas once it is resolved.
	var hdr wire.Decoder
	n, dims, err := hdr.Begin(args.Columnar)
	if err != nil {
		return fmt.Errorf("cluster: worker %s: %w", w.name, err)
	}
	if args.Side != "S" && args.Side != "T" {
		return fmt.Errorf("cluster: unknown relation side %q", args.Side)
	}
	if args.Delta && !args.Retain {
		return fmt.Errorf("cluster: worker %s: delta load requires retain", w.name)
	}

	job, err := w.jobFor(args)
	if err != nil {
		return err
	}

	job.mu.Lock()
	p, ok := job.partitions[args.Partition]
	if !ok {
		p = newPartitionData(dims)
		job.partitions[args.Partition] = p
	}
	job.mu.Unlock()

	p.mu.Lock()
	// Chunks of one partition must agree on dimensionality.
	if dims != p.s.Dims() {
		p.mu.Unlock()
		return fmt.Errorf("cluster: worker %s: partition %d chunk has %d dims, want %d",
			w.name, args.Partition, dims, p.s.Dims())
	}
	rel, ids := p.s, &p.sIDs
	if args.Side == "T" {
		rel, ids = p.t, &p.tIDs
	}
	start := time.Now()
	if err := w.decodeColumnar(args, rel, ids, n, dims); err != nil {
		p.mu.Unlock()
		return fmt.Errorf("cluster: worker %s: %w", w.name, err)
	}
	decodeNanos := time.Since(start).Nanoseconds()
	reply.DecodeNanos = decodeNanos
	payload := int64(len(args.Columnar))
	if args.Delta {
		// Rows appended to T are missing from any prebuilt join structure:
		// invalidate it under the write lock already held; the next probe's
		// refresh rebuilds lazily. Rows appended to S leave T and its
		// structure as they were, and the structure probes them too (refresh
		// folds them in once they outgrow their share). A partition that
		// joined through the nested loop is re-prepared: it may have outgrown
		// it.
		if args.Side == "T" || p.prepared == nil {
			p.prepKey = ""
			p.prepared = nil
		}
		w.m.deltaLoads.Inc()
		w.m.deltaTuples.Add(int64(n))
	}
	spawn := false
	if !args.Retain {
		// Rows beyond what a background build saw (a stale or hostile Load;
		// the coordinator sends none after a partition is whole) drop its
		// structure, and the join builds its own over all the rows. A build
		// still queued sees them anyway, and so does a join that cancelled one.
		if p.prepKey != "" && p.prepKey != prepCanceled {
			p.prepKey, p.prepared = "", nil
		}
		if spawn = p.readyLocked(args); spawn {
			p.preparing = true
		}
	}
	p.mu.Unlock()
	if spawn {
		w.spawnPrepare(p, args.Band)
	}

	w.m.loadRPCs.Inc()
	w.m.loadTuples.Add(int64(n))
	w.m.loadBytes.Add(payload)
	w.m.loadRawBytes.Add(wire.RawBytes(n, dims))
	w.m.loadChunkBytes.Observe(float64(payload))
	w.m.decodeSeconds.Observe(float64(decodeNanos) / 1e9)
	return nil
}

// jobFor resolves (creating if appropriate) the job or retained-plan entry a
// Load targets. A Load of a shipment older than the entry's last mid-query
// clearing is refused: its shipment was aborted and is being repeated.
func (w *Worker) jobFor(args *LoadArgs) (*jobState, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var job *jobState
	if args.Retain {
		rs, ok := w.retained[args.JobID]
		if !ok {
			if args.Delta {
				// A delta targets a plan the coordinator believes this worker
				// holds; if the plan is gone (evicted, restarted), surface the
				// retained-miss marker so the caller falls back to a cold
				// shuffle instead of building a partial plan from the delta.
				return nil, fmt.Errorf("cluster: worker %s: %s %q", w.name, ErrUnknownRetainedPlan, args.JobID)
			}
			rs = &retainedState{jobState: jobState{partitions: make(map[int]*partitionData)}}
			w.retained[args.JobID] = rs
		} else if rs.sealed && !args.Delta {
			return nil, fmt.Errorf("cluster: worker %s: retained plan %q is sealed", w.name, args.JobID)
		}
		job = &rs.jobState
	} else {
		var ok bool
		if job, ok = w.jobs[args.JobID]; !ok {
			if _, closed := w.closed[args.JobID]; closed {
				return nil, fmt.Errorf("cluster: worker %s: job %q is closed", w.name, args.JobID)
			}
			job = &jobState{partitions: make(map[int]*partitionData)}
			w.jobs[args.JobID] = job
		}
	}
	if !args.Delta && args.Attempt < job.attempt {
		return nil, fmt.Errorf("cluster: worker %s: Load of shipment %d to %q, which was cleared for shipment %d",
			w.name, args.Attempt, args.JobID, job.attempt)
	}
	return job, nil
}

// reserveAhead bounds what a sender's expected count may reserve: this many
// times the rows the side holds once the chunk at hand is appended. The count
// is unvalidated network input — honoured as sent, one small Load claiming 2^40
// rows allocates terabytes — so it is a hint that costs at most a constant
// factor over the rows actually received. An honest side of up to 32 chunks
// still gets its one exact reservation, a larger one a few (each about 33
// times the last) instead of append's dozens. (At 8 the 2-worker 8-d cluster
// workload, 27 chunks a side, reserved twice: peak RSS +5%.)
const reserveAhead = 32

// reserveSide makes room for a chunk of n rows on a side that was announced
// total rows: nothing while the chunk fits, else up to total within the
// reserveAhead bound. Caller holds p.mu.
func reserveSide(rel *data.Relation, ids *[]int64, total, n int) {
	have := rel.Len()
	if want := min(total, reserveAhead*(have+n)); rel.Cap() < have+n && want > have {
		rel.Reserve(want - have)
		*ids = slices.Grow(*ids, want-len(*ids))
	}
}

// decodeColumnar decodes a columnar chunk straight into the partition's
// arenas: a block of rows is reserved once, then each key column is decoded
// and scattered with one strided pass (no row-major intermediate), and the ID
// column is decoded directly into the grown ID slice. The append is
// transactional: a chunk that fails to decode part-way leaves rel and ids at
// their previous lengths, so the partition never holds half-written rows or
// more rows than IDs. Caller holds p.mu.
func (w *Worker) decodeColumnar(args *LoadArgs, rel *data.Relation, ids *[]int64, n, dims int) (err error) {
	total := args.ExpectS
	if args.Side == "T" {
		total = args.ExpectT
	}
	reserveSide(rel, ids, total, n)
	sc := w.decPool.Get().(*decodeScratch)
	defer w.decPool.Put(sc)
	if _, _, err := sc.dec.Begin(args.Columnar); err != nil {
		return err
	}
	if cap(sc.col) < n {
		sc.col = make([]float64, n)
	}
	col := sc.col[:n]
	base, idBase := rel.GrowRows(n), len(*ids)
	defer func() {
		if err != nil {
			rel.Truncate(base)
			*ids = (*ids)[:idBase]
		}
	}()
	for d := 0; d < dims; d++ {
		if _, _, err := sc.dec.KeyColumn(col); err != nil {
			return err
		}
		rel.SetColumn(base, d, col)
	}
	*ids = slices.Grow(*ids, n)[:idBase+n]
	return sc.dec.IDs((*ids)[idBase:])
}

// spawnPrepare launches the background prepare for a partition whose shipment
// is complete. Unlike Seal it does not presort: localjoin.Prepare is
// self-contained over unsorted inputs (refresh relies on the same
// property), and keeping arrival order means the probe emits pairs in the
// exact order a plain per-query join would. The goroutine joins the worker's
// inflight group so Drain waits for it; p.preparing was claimed by the caller
// under p.mu, which also checked band against the partition.
func (w *Worker) spawnPrepare(p *partitionData, band data.Band) {
	w.inflight.Add(1)
	go func() {
		defer w.inflight.Done()
		w.prepSem <- struct{}{}
		defer func() { <-w.prepSem }()
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.prepKey != "" {
			return // a join raced ahead and cancelled it
		}
		p.prepared = localjoin.Prepare(p.s, p.t, band)
		p.prepKey = prepKeyFor(band)
		w.m.pipelinedPreps.Inc()
	}()
}

// Join implements the RPC method running all local joins of a job. Partitions
// run on a bounded goroutine pool (JoinArgs.Parallelism, default GOMAXPROCS),
// and the reply lists partitions in ascending partition-id order so result
// aggregation and logs are deterministic across runs.
func (w *Worker) Join(args *JoinArgs, reply *JoinReply) error {
	if err := w.beginWork(); err != nil {
		return err
	}
	defer w.endWork()
	if err := args.Band.Validate(); err != nil {
		return fmt.Errorf("cluster: invalid band condition: %w", err)
	}

	w.m.joinRPCs.Inc()
	var job *jobState
	w.mu.Lock()
	if args.Retained {
		rs := w.retained[args.JobID]
		if rs == nil || !rs.sealed {
			w.mu.Unlock()
			w.m.retainedMisses.Inc()
			return fmt.Errorf("cluster: worker %s: %s %q", w.name, ErrUnknownRetainedPlan, args.JobID)
		}
		job = &rs.jobState
		w.m.retainedHits.Inc()
	} else {
		job = w.jobs[args.JobID]
	}
	w.mu.Unlock()
	reply.Worker = w.name
	if job == nil {
		return nil // no partitions were shipped here
	}

	job.mu.Lock()
	tasks := make([]joinTask, 0, len(job.partitions))
	for pid, p := range job.partitions {
		tasks = append(tasks, joinTask{pid: pid, p: p})
	}
	job.mu.Unlock()
	for _, task := range tasks {
		if task.p.dims != args.Band.Dims() {
			return fmt.Errorf("cluster: worker %s: band condition has %d dimensions but partition %d has %d",
				w.name, args.Band.Dims(), task.pid, task.p.dims)
		}
	}
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].pid < tasks[b].pid })

	parallelism := args.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if w.maxParallelism > 0 && parallelism > w.maxParallelism {
		parallelism = w.maxParallelism
	}
	if parallelism < 1 {
		parallelism = 1
	}

	reply.Partitions = w.joinTasksMorsels(tasks, args, parallelism)
	return nil
}

// joinTask is one partition of a Join call, in pid order.
type joinTask struct {
	pid int
	p   *partitionData
}

// morselTaskState is one partition's resolved probe setup for the morsel join.
type morselTaskState struct {
	prep         *localjoin.EpsGrid
	rebuildNanos int64
	foldNanos    int64
}

// joinTasksMorsels runs a job's local joins: each partition's structure is
// resolved first (a retained one refreshed, with lazy rebuild and fold; a
// transient one's queued background build cancelled), then one shared
// exec.RunMorsels pool drains probe-row ranges of all partitions
// largest-first, so one fat partition cannot bound the join phase. Partition
// read locks are held across the whole morsel phase, so a late Load waits for
// the join instead of racing it, and each partition's pairs are concatenated
// in morsel order, so the reply is the same for every MorselRows.
func (w *Worker) joinTasksMorsels(tasks []joinTask, args *JoinArgs, parallelism int) []PartitionStats {
	n := len(tasks)
	if n == 0 {
		return []PartitionStats{}
	}
	w.m.joinInflight.Add(int64(n))
	defer w.m.joinInflight.Add(int64(-n))

	states := make([]morselTaskState, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, min(parallelism, n))
	for i := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			st := &states[i]
			p := tasks[i].p
			if args.Retained {
				st.rebuildNanos, st.foldNanos = p.refresh(args.Band)
				w.m.observeRefresh(st.rebuildNanos, st.foldNanos)
				return
			}
			// The join phase has started: a background build still queued
			// behind the prep semaphore could only duplicate the build this
			// join runs when it reaches the partition, stealing cores from the
			// other joins, so it is cancelled (spawnPrepare sees prepKey set
			// and backs off). One already running holds the write lock; this
			// waits for it.
			p.mu.Lock()
			if p.prepKey == "" {
				p.prepKey = prepCanceled
			}
			p.mu.Unlock()
		}(i)
	}
	wg.Wait()
	// Read locks are held until the morsel phase completes. They are taken
	// only here, one goroutine in pid order, with no other partition lock
	// held: concurrent Joins of one job each hold several of these while a
	// Load's pending write lock blocks new readers, and any other
	// acquisition order lets two Joins wait on each other's partitions. The
	// structure is read under the lock that covers its probe, so one a Load
	// dropped in between is never probed.
	for i := range tasks {
		tasks[i].p.mu.RLock()
		states[i].prep = tasks[i].p.preparedLocked(args.Band)
	}
	defer func() {
		for i := range tasks {
			tasks[i].p.mu.RUnlock()
		}
	}()

	// A partition without a structure is prepared when the morsel scheduler
	// reaches it — paid once and then probed by every morsel — and released
	// after its last.
	jobs := make([]exec.MorselJob, n)
	for i := range tasks {
		p := tasks[i].p
		jobs[i] = exec.PartitionJob(states[i].prep, p.s, p.t, args.Band)
	}
	// The context never cancels (worker RPCs run to completion), so the only
	// error path of RunMorsels is unreachable here.
	jres, mstats, _ := exec.RunMorsels(context.Background(), jobs, args.MorselRows, parallelism, args.CollectPairs)

	stats := make([]PartitionStats, n)
	for i := range tasks {
		p := tasks[i].p
		st := PartitionStats{
			Partition:    tasks[i].pid,
			InputS:       p.s.Len(),
			InputT:       p.t.Len(),
			Output:       jres[i].Count,
			JoinNanos:    jres[i].Nanos,
			RebuildNanos: states[i].rebuildNanos,
			FoldNanos:    states[i].foldNanos,
		}
		if args.CollectPairs {
			st.PairS = make([]int64, len(jres[i].SIdx))
			st.PairT = make([]int64, len(jres[i].SIdx))
			for k, si := range jres[i].SIdx {
				st.PairS[k] = p.sIDs[si]
				st.PairT[k] = p.tIDs[jres[i].TIdx[k]]
			}
		}
		stats[i] = st
		w.m.partitionsJoined.Inc()
		w.m.pairsEmitted.Add(st.Output)
		w.m.partitionJoinSeconds.Observe(float64(st.JoinNanos) / 1e9)
	}
	w.m.morsels.Add(mstats.Morsels)
	w.m.morselSteals.Add(mstats.Steals)
	w.m.stragglerRatio.Set(int64(math.Round(mstats.StragglerRatio * 1000)))
	return stats
}

// Reset implements the RPC method discarding a transient job's state. It is
// deliberately scoped to the transient job table: a plan fingerprint passed as
// the job ID of a Reset must NOT evict the retained registry, so a failed or
// aborted query (whose coordinator fires a best-effort Reset on every exit
// path) can never take warm partitions down with it. Eviction of retained
// plans is only ever explicit, via Evict.
//
// A mid-query Reset (ResetArgs.Attempt) leaves the job in place, emptied: the
// coordinator reships under the same id, and the emptied job remembers which
// shipment it was cleared for, so that a Load of the aborted one still in
// flight is refused instead of landing among the reshipped rows.
//
// A final Reset also closes the job id: a Load that the network delayed past the end of its query finds no job, and without the
// closed set jobFor would create one that no Reset ever follows.
func (w *Worker) Reset(args *ResetArgs, _ *ResetReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.jobs, args.JobID)
	if args.Attempt > 0 && !args.Final {
		w.jobs[args.JobID] = &jobState{partitions: make(map[int]*partitionData), attempt: args.Attempt}
	}
	if _, closed := w.closed[args.JobID]; args.Final && !closed {
		delete(w.closed, w.closedRing[w.closedNext])
		w.closedRing[w.closedNext] = args.JobID
		w.closedNext = (w.closedNext + 1) % closedJobs
		w.closed[args.JobID] = struct{}{}
	}
	return nil
}

// closedJobs is how many closed job ids a worker remembers. A late Load trails
// its query by at most a call deadline plus retries, so it only has to outlast
// the queries that can end in that time; an id costs a few dozen bytes.
const closedJobs = 1024

// Seal implements the RPC method completing a retained plan's shipment: it
// marks the plan joinable, creating an empty entry on workers that received no
// partitions so a later retained Join can distinguish "sealed, zero
// partitions" from "evicted". Sealing presorts every partition's rows on the
// first join attribute and, for a valid band, prebuilds its ε-grid — both
// paid once, off every later query's critical path. The ε-grid sorts nothing;
// the presort gives warm probes their locality and is the order exec.FoldS
// merges appended S rows into. If the retention cap is exceeded, the
// least-recently-sealed other plan is evicted.
func (w *Worker) Seal(args *SealArgs, reply *SealReply) error {
	if err := w.beginWork(); err != nil {
		return err
	}
	defer w.endWork()
	if args.PlanID == "" {
		return fmt.Errorf("cluster: worker %s: Seal requires a plan id", w.name)
	}
	w.mu.Lock()
	rs, ok := w.retained[args.PlanID]
	if !ok {
		rs = &retainedState{jobState: jobState{partitions: make(map[int]*partitionData)}}
		w.retained[args.PlanID] = rs
	}
	parts := make([]*partitionData, 0, len(rs.partitions))
	if !rs.sealed {
		for _, p := range rs.partitions {
			parts = append(parts, p)
		}
	}
	w.mu.Unlock()

	// Presort and prebuild outside the registry lock; each partition is
	// permuted under its own write lock so a straggler Load cannot race the
	// reorder. When the seal names a valid band, the local join's reusable
	// structure is built here too — once, off every query's critical path.
	prebuild := args.Band.Validate() == nil
	parallelism := runtime.GOMAXPROCS(0)
	if w.maxParallelism > 0 && parallelism > w.maxParallelism {
		parallelism = w.maxParallelism
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism)
	for _, p := range parts {
		wg.Add(1)
		sem <- struct{}{}
		go func(p *partitionData) {
			defer wg.Done()
			defer func() { <-sem }()
			p.mu.Lock()
			sorted := (&exec.PartitionInput{S: p.s, SIDs: p.sIDs, T: p.t, TIDs: p.tIDs}).Presort()
			p.s, p.sIDs, p.t, p.tIDs = sorted.S, sorted.SIDs, sorted.T, sorted.TIDs
			if prebuild && p.s.Dims() == args.Band.Dims() {
				p.prepared = localjoin.Prepare(p.s, p.t, args.Band)
				p.prepKey = prepKeyFor(args.Band)
			}
			p.mu.Unlock()
		}(p)
	}
	wg.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	rs.sealed = true
	w.sealSeq++
	rs.seq = w.sealSeq
	reply.Partitions = len(rs.partitions)
	if w.maxRetained > 0 {
		for len(w.retained) > w.maxRetained {
			// Only sealed plans are eviction candidates: an unsealed entry is
			// a shipment in progress (its zero seq would otherwise always sort
			// oldest), and evicting it mid-load would silently truncate the
			// data its Seal later marks joinable.
			oldest, oldestSeq := "", uint64(0)
			for id, r := range w.retained {
				if id == args.PlanID || !r.sealed {
					continue
				}
				if oldest == "" || r.seq < oldestSeq {
					oldest, oldestSeq = id, r.seq
				}
			}
			if oldest == "" {
				break
			}
			delete(w.retained, oldest)
			w.m.evictions.Inc()
		}
	}
	w.m.seals.Inc()
	return nil
}

// Evict implements the RPC method discarding retained plans: one plan when
// PlanID is set, the whole registry when it is empty. With EvictArgs.Attempt
// it clears one plan's partial shipment for the next one.
func (w *Worker) Evict(args *EvictArgs, reply *EvictReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if args.PlanID == "" {
		reply.Existed = len(w.retained) > 0
		w.m.evictions.Add(int64(len(w.retained)))
		w.retained = make(map[string]*retainedState)
		return nil
	}
	_, reply.Existed = w.retained[args.PlanID]
	if reply.Existed {
		w.m.evictions.Inc()
	}
	delete(w.retained, args.PlanID)
	if args.Attempt > 0 {
		// Cleared to be shipped again (see Reset): keep an unsealed, empty
		// entry that refuses the aborted shipment's late Loads.
		w.retained[args.PlanID] = &retainedState{jobState: jobState{partitions: make(map[int]*partitionData), attempt: args.Attempt}}
	}
	return nil
}

// Ping implements the liveness RPC.
func (w *Worker) Ping(_ *PingArgs, reply *PingReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	reply.Worker = w.name
	reply.Jobs = len(w.jobs)
	reply.Retained = len(w.retained)
	reply.Draining = w.draining
	reply.WireVersion = w.wireVersion
	return nil
}

// Stats implements the observability RPC: a cumulative snapshot of the
// worker's counters and occupancy. Like Ping it answers while draining, so a
// coordinator can still collect a cluster-wide view during a graceful
// shutdown.
func (w *Worker) Stats(_ *StatsArgs, reply *StatsReply) error {
	w.mu.Lock()
	reply.Worker = w.name
	reply.Draining = w.draining
	reply.Jobs = len(w.jobs)
	reply.RetainedPlans = len(w.retained)
	w.mu.Unlock()

	// Byte sums take per-job/per-partition locks; w.mu is already released.
	reply.RetainedBytes = w.retainedBytes()
	reply.TransientBytes = w.transientBytes()

	m := w.m
	reply.JoinInflight = m.joinInflight.Value()
	reply.LoadRPCs = m.loadRPCs.Value()
	reply.LoadTuples = m.loadTuples.Value()
	reply.LoadBytes = m.loadBytes.Value()
	reply.LoadRawBytes = m.loadRawBytes.Value()
	reply.DecodeNanos = int64(m.decodeSeconds.Sum() * 1e9)
	reply.LoadRejected = m.loadRejected.Value()
	reply.DeltaLoads = m.deltaLoads.Value()
	reply.DeltaTuples = m.deltaTuples.Value()
	reply.StaleRebuilds = m.staleRebuilds.Value()
	reply.StaleRebuildNanos = int64(m.staleRebuildSeconds.Sum() * 1e9)
	reply.Folds = m.folds.Value()
	reply.FoldNanos = int64(m.foldSeconds.Sum() * 1e9)
	reply.JoinRPCs = m.joinRPCs.Value()
	reply.PartitionsJoined = m.partitionsJoined.Value()
	reply.PairsEmitted = m.pairsEmitted.Value()
	reply.JoinNanos = int64(m.partitionJoinSeconds.Sum() * 1e9)
	reply.RetainedHits = m.retainedHits.Value()
	reply.RetainedMisses = m.retainedMisses.Value()
	reply.Morsels = m.morsels.Value()
	reply.MorselSteals = m.morselSteals.Value()
	reply.StragglerRatio = float64(m.stragglerRatio.Value()) / 1000
	reply.Seals = m.seals.Value()
	reply.Evictions = m.evictions.Value()
	return nil
}

// Serve registers the worker on a fresh RPC server and serves connections on
// the listener until it is closed. It is intended to be run in a goroutine or
// as the body of cmd/recpartd.
func Serve(w *Worker, ln net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName(ServiceName, w); err != nil {
		return fmt.Errorf("cluster: registering worker service: %w", err)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener closed: normal shutdown.
			return nil
		}
		go srv.ServeConn(conn)
	}
}

// ListenAndServe starts the given worker on a TCP address and blocks. The
// worker is passed in (rather than constructed here) so callers can configure
// it first (e.g. SetMaxParallelism).
func ListenAndServe(w *Worker, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: listening on %s: %w", addr, err)
	}
	log.Printf("band-join worker %s listening on %s", w.name, ln.Addr())
	return Serve(w, ln)
}
