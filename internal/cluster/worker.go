package cluster

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/obs"
	"bandjoin/internal/wire"
)

// Worker is the service a worker machine runs. It receives partition input
// shipped by the coordinator as shipment streams (ServeShipment) and executes
// local band-joins. Partitions of different streams append concurrently, and
// joins run on a bounded goroutine pool.
//
// A one-shot query's stream carries its band and is joined at its own end:
// nothing of it outlives the connection. A retained stream ships into the
// retained-plan registry instead: its partitions, completed with Seal, stay
// resident under their plan fingerprint, so repeated queries over the same
// plan run their local joins (the Join RPC) with zero shuffle. Sealed plans
// change only through delta streams, which hold the target partition's write
// lock while they append; joins take read locks and therefore run
// concurrently with each other.
type Worker struct {
	name string

	// maxRetained caps the number of sealed retained plans; zero means
	// unlimited. When Seal pushes the registry past the cap, the
	// least-recently-sealed plan is evicted (coordinators detect that via
	// ErrUnknownRetainedPlan and fall back to a cold shuffle).
	maxRetained int

	// mu guards closed, draining and the entries' fences; entries are opened
	// and deleted under it (bar Seal's cap eviction), so an id's entry and its
	// closed mark change together.
	mu       sync.Mutex
	retained exec.Registry[fence]

	// closed maps the ids of the last closedPlans plans evicted for good
	// (EvictArgs without Attempt) to their slot in closedRing, which holds the
	// ids in closing order (closedNext is the oldest, overwritten next).
	closed     map[string]int
	closedRing [closedPlans]string
	closedNext int

	// draining rejects new data-plane work (shipments, Join, Seal) while
	// inflight tracks the work already running, so a graceful shutdown can
	// stop taking queries yet let the ones in progress finish (see Drain).
	draining bool
	inflight sync.WaitGroup

	// oneShots counts the one-shot streams open and oneShotBytes the key and ID
	// bytes they hold: the transient state of a worker.
	oneShots     atomic.Int64
	oneShotBytes atomic.Int64

	// wireVersion is the chunk format version advertised in Ping replies
	// (wire.Version by default). Tests advertise an older value via
	// SetWireVersion to stand in for an old worker, which a coordinator must
	// refuse to ship to.
	wireVersion int

	// shipHook, when set, sees every shipment stream at each ShipPoint (see
	// SetShipHook).
	shipHook func(*ShipEvent) error

	// prepSem bounds the background pipelined-join preparations (partitions
	// of a one-shot stream that are complete while later ones still arrive)
	// to the same width as the join pool.
	prepSem chan struct{}

	m *workerMetrics
}

// workerMetrics is the worker's observability surface: data-plane counters
// (chunks, tuples, bytes, joins, pairs), retained-tier outcomes, the join
// pool's occupancy, per-partition join latency, and scrape-time occupancy
// gauges, all in the worker's own registry (see Worker.Metrics). Counter
// updates on the shipment and join paths are single atomics.
type workerMetrics struct {
	reg *obs.Registry

	loadChunks   *obs.Counter
	loadTuples   *obs.Counter
	loadBytes    *obs.Counter
	loadRawBytes *obs.Counter
	loadRejected *obs.Counter

	pipelinedPreps *obs.Counter

	deltaChunks   *obs.Counter
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
		loadChunks:       reg.Counter("bandjoin_worker_load_chunks_total", "Chunk frames accepted from shipment streams."),
		loadTuples:       reg.Counter("bandjoin_worker_load_tuples_total", "Tuples received in shipment streams."),
		loadBytes:        reg.Counter("bandjoin_worker_load_bytes_total", "Chunk bytes (keys+IDs) received in shipment streams, as shipped on the wire."),
		loadRawBytes:     reg.Counter("bandjoin_worker_load_raw_bytes_total", "Bytes the received tuples would occupy row-major and uncompressed (raw/wire = compression ratio)."),
		loadRejected:     reg.Counter("bandjoin_worker_load_rejected_total", "Shipments and data-plane RPCs rejected while draining."),
		pipelinedPreps:   reg.Counter("bandjoin_worker_pipelined_preps_total", "Partitions presorted and prepared in the background while the shuffle was still in flight."),
		deltaChunks:      reg.Counter("bandjoin_worker_delta_chunks_total", "Chunk frames of delta streams appended into sealed retained plans."),
		deltaTuples:      reg.Counter("bandjoin_worker_delta_tuples_total", "Tuples appended into sealed retained plans by delta streams."),
		staleRebuilds:    reg.Counter("bandjoin_worker_stale_rebuilds_total", "Prepared join structures rebuilt lazily after delta invalidation."),
		folds:            reg.Counter("bandjoin_worker_folds_total", "Retained partitions whose appended S rows were folded into dim-0 order and given resolved cell lists (T-side structure kept)."),
		joinRPCs:         reg.Counter("bandjoin_worker_join_rpcs_total", "Joins served: retained Join RPCs and one-shot stream ends."),
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
			"Per-chunk payload size (keys+IDs).", obs.ByteBuckets()),
		staleRebuildSeconds: reg.Histogram("bandjoin_worker_stale_rebuild_seconds",
			"Per-partition lazy prepared-structure rebuild latency.", obs.LatencyBuckets()),
		foldSeconds: reg.Histogram("bandjoin_worker_fold_seconds",
			"Per-partition S-side fold latency.", obs.LatencyBuckets()),
		decodeSeconds: reg.Histogram("bandjoin_worker_decode_seconds",
			"Per-chunk columnar decode latency (wire bytes to partition arenas).", obs.LatencyBuckets()),
	}
	reg.GaugeFunc("bandjoin_worker_jobs", "One-shot shipment streams open.", func() float64 {
		return float64(w.oneShots.Load())
	})
	reg.GaugeFunc("bandjoin_worker_retained_plans", "Resident retained plans.", func() float64 {
		return float64(w.retained.Len())
	})
	reg.GaugeFunc("bandjoin_worker_retained_bytes", "Approximate key/ID bytes held by retained plans.", func() float64 {
		return float64(w.retained.Bytes())
	})
	reg.GaugeFunc("bandjoin_worker_transient_bytes", "Approximate key/ID bytes held by open one-shot streams.", func() float64 {
		return float64(w.oneShotBytes.Load())
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

// Metrics returns the worker's metrics registry (what recpartd serves behind
// -metrics-addr).
func (w *Worker) Metrics() *obs.Registry { return w.m.reg }

// beginWork admits one shipment or data-plane RPC, or rejects it if the
// worker is draining. The WaitGroup Add happens under the same lock as the
// draining check, so Drain can never observe the flag set yet miss an
// admitted call.
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

// Drain puts the worker into draining mode — new shipments, Join and Seal
// calls are rejected while Ping and Evict keep working — and waits up to
// timeout for the work in flight to finish. It reports whether everything
// drained in time; timeout <= 0 waits indefinitely. Drain is the
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

// fence is what a worker keeps with each retained entry: the lowest shipment
// number the entry accepts streams of, the Attempt of the Evict that cleared it
// for a shipment, 0 if none did. It is set when the entry is opened, under
// Worker.mu.
type fence struct{ attempt int }

// NewWorker returns a worker service with the given display name.
func NewWorker(name string) *Worker {
	w := &Worker{
		name:        name,
		closed:      make(map[string]int),
		wireVersion: wire.Version,
		prepSem:     make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
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

// ShipPoint is a point of a shipment stream at which the worker's ship hook
// runs.
type ShipPoint int

const (
	// ShipOpen: the header is read; the worker has not acted on it.
	ShipOpen ShipPoint = iota
	// ShipChunk: a chunk frame is read, not yet decoded.
	ShipChunk
	// ShipReply: the end frame is read (and a one-shot stream joined); the
	// reply is not yet written.
	ShipReply
)

func (p ShipPoint) String() string { return [...]string{"Open", "Chunk", "Reply"}[p] }

// ShipEvent is what a ship hook sees of a stream at one point.
type ShipEvent struct {
	ShipHeader
	At ShipPoint
	// Conn is the stream's connection.
	Conn net.Conn
	// At ShipChunk: the chunk's partition with the row counts its frame
	// announced, its side, and its bytes (valid during the call only).
	Partition    int
	RowsS, RowsT int
	T            bool
	Chunk        []byte
}

// SetShipHook installs fn, which the worker calls at every ShipPoint of every
// shipment stream it serves; an error it returns ends the stream with that
// error. Tests use it to tap and to fault shipments. It must be called before
// the worker starts serving.
func (w *Worker) SetShipHook(fn func(*ShipEvent) error) { w.shipHook = fn }

// SetMaxRetained caps the number of sealed retained plans kept resident; n < 1
// removes the cap. It must be called before the worker starts serving.
func (w *Worker) SetMaxRetained(n int) {
	if n < 1 {
		n = 0
	}
	w.maxRetained = n
}

// Retained reports the number of resident retained plans (sealed or still
// shipping).
func (w *Worker) Retained() int { return w.retained.Len() }

// ServeShipment reads one shipment stream from conn (after its magic, which
// SplitConn consumed), answers it and closes conn.
func (w *Worker) ServeShipment(conn net.Conn) {
	defer conn.Close()
	st := &shipStream{w: w, conn: conn, sr: shipReader{r: readerOf(conn)}}
	rep := st.receive()
	if gob.NewEncoder(conn).Encode(&rep) == nil && rep.Err != "" {
		// Read the rest, so that the coordinator, still writing, gets to read
		// the refusal instead of a reset connection.
		io.Copy(io.Discard, st.sr.r)
	}
}

// shipStream is the state of one stream being received.
type shipStream struct {
	w    *Worker
	conn net.Conn
	sr   shipReader
	hdr  ShipHeader

	dec         wire.Decoder
	col         []float64
	decodeNanos int64
	// held is the key and ID bytes a one-shot stream holds.
	held int64
}

// receive reads and applies the stream, joining a one-shot one at its end.
func (st *shipStream) receive() (rep shipReply) {
	if err := st.w.beginWork(); err != nil {
		return shipReply{Err: err.Error()}
	}
	defer st.w.endWork()
	var err error
	if st.hdr, err = st.sr.header(); err == nil {
		err = st.hook(&ShipEvent{At: ShipOpen})
	}
	if err == nil && st.hdr.PlanID == "" {
		rep.Join, err = st.oneShot()
	} else if err == nil {
		err = st.retained()
	}
	if err == nil {
		err = st.hook(&ShipEvent{At: ShipReply})
	}
	rep.DecodeNanos = st.decodeNanos
	if err != nil {
		rep.Join, rep.Err = nil, fmt.Sprintf("cluster: worker %s: %v", st.w.name, err)
	}
	return rep
}

func (st *shipStream) hook(ev *ShipEvent) error {
	if st.w.shipHook == nil {
		return nil
	}
	ev.ShipHeader, ev.Conn = st.hdr, st.conn
	return st.w.shipHook(ev)
}

// partitions reads partition frames until the end frame. part resolves the
// partition a frame's first chunk lands in, given the chunk's dimensionality;
// done, if set, is called once a partition holds the rows its frame announced.
func (st *shipStream) partitions(part func(pid, dims int) (*exec.Partition, error), done func(*exec.Partition)) error {
	for {
		pid, counts, end, err := st.sr.partition()
		if err != nil || end {
			return err
		}
		var p *exec.Partition
		for side, want := range counts {
			for have := 0; have < want; {
				chunk, err := st.sr.chunk()
				if err != nil {
					return fmt.Errorf("reading a chunk of partition %d: %w", pid, err)
				}
				ev := ShipEvent{At: ShipChunk, Partition: pid, RowsS: counts[0], RowsT: counts[1], T: side == 1, Chunk: chunk}
				if err := st.hook(&ev); err != nil {
					return err
				}
				n, dims, err := st.dec.Begin(chunk)
				switch {
				case err != nil:
					return err
				case n == 0 || n > want-have:
					return fmt.Errorf("a chunk of %d rows where partition %d has %d to come", n, pid, want-have)
				case p == nil:
					if p, err = part(pid, dims); err != nil {
						return err
					}
				}
				if dims != p.Dims() {
					return fmt.Errorf("partition %d chunk has %d dims, want %d", pid, dims, p.Dims())
				}
				if err := st.append(p, side == 1, want, n, dims, len(chunk)); err != nil {
					return err
				}
				have += n
			}
		}
		if p != nil && done != nil {
			done(p)
		}
	}
}

// append decodes the chunk Begin parsed into one side of p: a block of rows is
// reserved once, then each key column is decoded and scattered with one
// strided pass (no row-major intermediate), and the ID column is decoded
// directly into the grown ID slice. The append is transactional: a chunk that
// fails to decode part-way leaves the side at its previous length, so the
// partition never holds half-written rows or more rows than IDs.
func (st *shipStream) append(p *exec.Partition, toT bool, total, n, dims, size int) error {
	if cap(st.col) < n {
		st.col = make([]float64, n)
	}
	col := st.col[:n]
	var nanos int64
	_, _, err := p.Append(toT, func(rel *data.Relation, ids *[]int64) (err error) {
		start := time.Now()
		defer func() { nanos = time.Since(start).Nanoseconds() }()
		reserveSide(rel, ids, total, n)
		base, idBase := rel.GrowRows(n), len(*ids)
		defer func() {
			if err != nil {
				rel.Truncate(base)
				*ids = (*ids)[:idBase]
			}
		}()
		for d := 0; d < dims; d++ {
			if _, _, err := st.dec.KeyColumn(col); err != nil {
				return err
			}
			rel.SetColumn(base, d, col)
		}
		*ids = slices.Grow(*ids, n)[:idBase+n]
		return st.dec.IDs((*ids)[idBase:])
	})
	if err != nil {
		return err
	}
	m, raw := st.w.m, wire.RawBytes(n, dims)
	st.decodeNanos += nanos
	if st.hdr.Delta {
		m.deltaChunks.Inc()
		m.deltaTuples.Add(int64(n))
	}
	if st.hdr.PlanID == "" {
		st.held += raw
		st.w.oneShotBytes.Add(raw)
	}
	m.loadChunks.Inc()
	m.loadTuples.Add(int64(n))
	m.loadBytes.Add(int64(size))
	m.loadRawBytes.Add(raw)
	m.loadChunkBytes.Observe(float64(size))
	m.decodeSeconds.Observe(float64(nanos) / 1e9)
	return nil
}

// reserveAhead bounds what a partition frame's row count may reserve: this
// many times the rows the side holds once the chunk at hand is appended. The
// count is unvalidated network input — honoured as sent, one small stream
// claiming 2^40 rows allocates terabytes — so it is a hint that costs at most a
// constant factor over the rows actually received. An honest side of up to 32
// chunks still gets its one exact reservation, a larger one a few (each about
// 33 times the last) instead of append's dozens. (At 8 the 2-worker 8-d
// cluster workload, 27 chunks a side, reserved twice: peak RSS +5%.)
const reserveAhead = 32

// reserveSide makes room for a chunk of n rows on a side that was announced
// total rows: nothing while the chunk fits, else up to total within the
// reserveAhead bound. Caller holds the partition's write lock.
func reserveSide(rel *data.Relation, ids *[]int64, total, n int) {
	have := rel.Len()
	if want := min(total, reserveAhead*(have+n)); rel.Cap() < have+n && want > have {
		rel.Reserve(want - have)
		*ids = slices.Grow(*ids, want-len(*ids))
	}
}

// oneShot receives a one-shot stream and joins it at its end. Each partition
// is prepared in the background as soon as its rows are complete (Prepare,
// which does not presort: keeping arrival order means the probe emits pairs in
// the exact order a plain per-query join would), overlapping with the
// partitions still arriving. At the end frame, builds still queued for a slot
// are dropped — the join builds those partitions itself, once — and running
// ones are waited for.
func (st *shipStream) oneShot() (*JoinReply, error) {
	w, band := st.w, st.hdr.Band
	if err := band.Validate(); err != nil {
		return nil, fmt.Errorf("invalid band condition: %w", err)
	}
	w.oneShots.Add(1)
	defer func() {
		w.oneShots.Add(-1)
		w.oneShotBytes.Add(-st.held)
	}()
	parts := make(map[int]*exec.Partition)
	stop := make(chan struct{})
	var builds sync.WaitGroup
	stopBuilds := sync.OnceFunc(func() {
		close(stop)
		builds.Wait()
	})
	defer stopBuilds()
	err := st.partitions(func(pid, dims int) (*exec.Partition, error) {
		switch {
		case dims != band.Dims():
			return nil, fmt.Errorf("band condition has %d dimensions but partition %d has %d", band.Dims(), pid, dims)
		case parts[pid] != nil:
			return nil, fmt.Errorf("partition %d shipped twice", pid)
		}
		parts[pid] = exec.NewPartition(dims)
		return parts[pid], nil
	}, func(p *exec.Partition) {
		// A free slot is claimed right away, so the build runs; without one it
		// queues until a slot frees or the stream ends.
		builds.Add(1)
		var slot bool
		select {
		case w.prepSem <- struct{}{}:
			slot = true
		default:
		}
		go func() {
			defer builds.Done()
			if !slot {
				select {
				case w.prepSem <- struct{}{}:
				case <-stop:
					return
				}
			}
			defer func() { <-w.prepSem }()
			if p.Prepare(band) {
				w.m.pipelinedPreps.Inc()
			}
		}()
	})
	if err != nil {
		return nil, err
	}
	stopBuilds()
	w.m.joinRPCs.Inc()
	pids, list := exec.InPidOrder(parts)
	return &JoinReply{Worker: w.name, Partitions: w.join(pids, list, &st.hdr.JoinArgs, false)}, nil
}

// retained receives a retained or delta stream into its plan's entry,
// resolved once: a numbered Evict replaces the entry, so the frames of a
// stream it aborted can only reach an orphan. A stream numbered below the
// entry's last clearing is refused: its shipment was aborted and is being
// repeated.
func (st *shipStream) retained() error {
	w, h := st.w, &st.hdr
	w.mu.Lock()
	e := w.retained.Get(h.PlanID)
	_, closed := w.closed[h.PlanID]
	var err error
	switch {
	case e == nil && h.Delta:
		// A delta targets a plan the coordinator believes this worker holds;
		// if the plan is gone (evicted, restarted), surface the retained-miss
		// marker so the caller falls back to a cold shuffle instead of
		// building a partial plan from the delta.
		err = fmt.Errorf("%s %q", ErrUnknownRetainedPlan, h.PlanID)
	case e == nil && closed:
		// Evicted for good: a shipment its coordinator gave up on, read late,
		// would hold rows no Seal or Evict ever follows.
		err = fmt.Errorf("retained plan %q is closed", h.PlanID)
	case e == nil:
		e = w.retained.Open(h.PlanID)
	case !h.Delta && e.Sealed():
		err = fmt.Errorf("retained plan %q is sealed", h.PlanID)
	}
	if err == nil && !h.Delta && h.Attempt < e.Meta.attempt {
		err = fmt.Errorf("shipment %d to %q, which was cleared for shipment %d", h.Attempt, h.PlanID, e.Meta.attempt)
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return st.partitions(func(pid, dims int) (*exec.Partition, error) { return e.Partition(pid, dims), nil }, nil)
}

// Join implements the RPC method running all local joins of a sealed retained
// plan. Partitions run on a goroutine pool of the worker's GOMAXPROCS, and
// the reply lists partitions in ascending partition-id order so result
// aggregation and logs are deterministic across runs. It fails with
// ErrUnknownRetainedPlan if the worker does not hold the plan sealed.
func (w *Worker) Join(args *JoinArgs, reply *JoinReply) error {
	if err := w.beginWork(); err != nil {
		return err
	}
	defer w.endWork()
	if err := args.Band.Validate(); err != nil {
		return fmt.Errorf("cluster: invalid band condition: %w", err)
	}
	w.m.joinRPCs.Inc()
	e := w.retained.Get(args.PlanID)
	if e == nil || !e.Sealed() {
		w.m.retainedMisses.Inc()
		return fmt.Errorf("cluster: worker %s: %s %q", w.name, ErrUnknownRetainedPlan, args.PlanID)
	}
	w.m.retainedHits.Inc()
	reply.Worker = w.name

	pids, parts := e.Partitions()
	for i, p := range parts {
		if p.Dims() != args.Band.Dims() {
			return fmt.Errorf("cluster: worker %s: band condition has %d dimensions but partition %d has %d",
				w.name, args.Band.Dims(), pids[i], p.Dims())
		}
	}
	reply.Partitions = w.join(pids, parts, args, true)
	return nil
}

// join runs one join over partitions in pid order, a retained plan's (Join)
// or a one-shot stream's: exec.LockForProbe refreshes each retained
// partition's structure (lazy rebuild and fold) and read-locks the
// partitions, then exec.JoinPartitions drains probe-row ranges of all
// partitions on one shared morsel pool, largest first, so one fat partition
// cannot bound the join phase. The read locks are held across the whole
// morsel phase, so a delta waits for the join instead of racing it, and each
// partition's pairs are concatenated in morsel order, so the reply is the
// same for every MorselRows.
func (w *Worker) join(pids []int, parts []*exec.Partition, args *JoinArgs, refresh bool) []exec.PartitionStats {
	n := len(parts)
	if n == 0 {
		return []exec.PartitionStats{}
	}
	w.m.joinInflight.Add(int64(n))
	defer w.m.joinInflight.Add(int64(-n))

	var refreshed func(i int, rebuildNanos, foldNanos int64)
	if refresh {
		refreshed = func(_ int, r, f int64) {
			if r > 0 {
				w.m.staleRebuilds.Inc()
				w.m.staleRebuildSeconds.Observe(float64(r) / 1e9)
			}
			if f > 0 {
				w.m.folds.Inc()
				w.m.foldSeconds.Observe(float64(f) / 1e9)
			}
		}
	}
	jobs, recs, held, unlock := exec.LockForProbe(pids, parts, args.Band, refreshed)
	defer unlock()
	// The context never cancels (joins run to completion), so the only error
	// path of JoinPartitions is unreachable here.
	mstats, _ := exec.JoinPartitions(context.Background(), recs, jobs, func(i int) ([]int64, []int64) { return held[i].SIDs, held[i].TIDs },
		args.MorselRows, args.CollectPairs)
	for i := range recs {
		w.m.partitionsJoined.Inc()
		w.m.pairsEmitted.Add(recs[i].Output)
		w.m.partitionJoinSeconds.Observe(float64(recs[i].JoinNanos) / 1e9)
	}
	w.m.morsels.Add(mstats.Morsels)
	w.m.morselSteals.Add(mstats.Steals)
	w.m.stragglerRatio.Set(int64(math.Round(mstats.StragglerRatio * 1000)))
	return recs
}

// closeLocked remembers id as closed, forgetting the oldest closed id. Caller
// holds w.mu.
func (w *Worker) closeLocked(id string) {
	if _, closed := w.closed[id]; closed {
		return
	}
	if old := w.closedRing[w.closedNext]; w.closed[old] == w.closedNext {
		delete(w.closed, old) // unless it was reopened, or closed again since
	}
	w.closedRing[w.closedNext] = id
	w.closed[id] = w.closedNext
	w.closedNext = (w.closedNext + 1) % closedPlans
}

// closedPlans is how many closed plan ids a worker remembers. A late stream
// or Seal trails its query by at most a call deadline plus retries, so it only
// has to outlast the queries that can end in that time; an id costs a few
// dozen bytes.
const closedPlans = 1024

// Seal implements the RPC method completing a retained plan's shipment: it
// marks the plan joinable, creating an empty entry on workers that received no
// partitions so a later retained Join can distinguish "sealed, zero
// partitions" from "evicted". A plan evicted for good stays closed: a Seal
// that lands after its final Evict is refused rather than bringing back an
// entry no Evict follows. Sealing (exec.Partition.Seal) presorts every
// partition's rows on the first join attribute and, for a valid band,
// prebuilds its ε-grid — both paid once, off every later query's critical
// path. The ε-grid sorts nothing; the presort gives warm probes their locality
// and is the order exec.FoldS merges appended S rows into. If the retention
// cap is exceeded, the least-recently-sealed other plan is evicted.
func (w *Worker) Seal(args *SealArgs, reply *SealReply) error {
	if err := w.beginWork(); err != nil {
		return err
	}
	defer w.endWork()
	if args.PlanID == "" {
		return fmt.Errorf("cluster: worker %s: Seal requires a plan id", w.name)
	}
	w.mu.Lock()
	e := w.retained.Get(args.PlanID)
	if e == nil {
		if _, closed := w.closed[args.PlanID]; closed {
			w.mu.Unlock()
			return fmt.Errorf("cluster: worker %s: retained plan %q is closed", w.name, args.PlanID)
		}
		e = w.retained.Open(args.PlanID)
	}
	w.mu.Unlock()

	// Seal outside w.mu; each partition is presorted under its own write
	// lock, so a straggler stream cannot race the reorder.
	w.m.evictions.Add(int64(w.retained.Seal(e, args.Band, w.maxRetained)))
	pids, _ := e.Partitions()
	reply.Partitions = len(pids)
	w.m.seals.Inc()
	return nil
}

// Evict implements the RPC method discarding retained plans: one plan when
// PlanID is set, the whole registry when it is empty. With EvictArgs.Attempt
// it clears one plan's partial shipment for the next one, and reopens the plan
// id. Without, it closes the id: a non-delta stream or a Seal of the plan that
// lands after it is refused until a numbered Evict reopens it.
func (w *Worker) Evict(args *EvictArgs, reply *EvictReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if args.PlanID == "" {
		n := w.retained.Clear()
		reply.Existed = n > 0
		w.m.evictions.Add(int64(n))
		return nil
	}
	if reply.Existed = w.retained.Delete(w.retained.Get(args.PlanID)); reply.Existed {
		w.m.evictions.Inc()
	}
	if args.Attempt > 0 {
		// Cleared to be shipped again: keep an unsealed, empty entry that
		// refuses the aborted shipment's late streams.
		delete(w.closed, args.PlanID)
		w.retained.Open(args.PlanID).Meta.attempt = args.Attempt
	} else {
		w.closeLocked(args.PlanID)
	}
	return nil
}

// Ping implements the liveness RPC.
func (w *Worker) Ping(_ *PingArgs, reply *PingReply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	reply.Worker = w.name
	reply.Jobs = int(w.oneShots.Load())
	reply.Retained = w.retained.Len()
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
	w.mu.Unlock()

	reply.RetainedPlans = w.retained.Len()
	reply.RetainedBytes = w.retained.Bytes()
	reply.Jobs = int(w.oneShots.Load())
	reply.TransientBytes = w.oneShotBytes.Load()

	m := w.m
	reply.JoinInflight = m.joinInflight.Value()
	reply.LoadChunks = m.loadChunks.Value()
	reply.LoadTuples = m.loadTuples.Value()
	reply.LoadBytes = m.loadBytes.Value()
	reply.LoadRawBytes = m.loadRawBytes.Value()
	reply.DecodeNanos = int64(m.decodeSeconds.Sum() * 1e9)
	reply.LoadRejected = m.loadRejected.Value()
	reply.DeltaChunks = m.deltaChunks.Value()
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
// the listener until it is closed: each one a shipment stream or net/rpc, as
// SplitConn tells them apart. It is intended to be run in a goroutine or as
// the body of cmd/recpartd.
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
		go func() {
			c, stream, err := SplitConn(conn)
			switch {
			case err != nil:
				conn.Close()
			case stream:
				w.ServeShipment(c)
			default:
				srv.ServeConn(c)
			}
		}()
	}
}
