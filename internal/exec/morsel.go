// Morsel-driven intra-partition parallelism. RecPart plans minimize the
// *predicted* max partition load from a sample, but sampling error and drift
// leave residual skew, and a per-partition join pool lets one fat partition
// bound query latency no matter how many cores exist. The scheduler here
// splits every partition's probe (S) side into fixed-size row-range morsels
// and runs them on a shared worker pool draining one global queue ordered
// largest-partition-first: an atomic claim cursor over that order *is* the
// work-stealing discipline — a worker that finishes a morsel immediately
// claims the next unclaimed one wherever it lives, so idle workers drain the
// straggler partition instead of waiting on it, and wall time tracks
// total-work/p instead of max-partition.
//
// Determinism: morsels probe a shared read-only structure (a localjoin.EpsGrid
// through ProbeRange, or the nested loop's JoinRange) whose range contract
// guarantees that concatenating
// consecutive ranges reproduces the sequential probe bit-identically.
// Emission is per-S-tuple, so no pair crosses a morsel boundary; each morsel
// buffers its own pairs and the scheduler concatenates them in (partition,
// morsel) order, making the merged output byte-for-byte equal to one
// sequential probe per partition whatever the claim interleaving was.
//
// Memory: a job may come without its structure and say how to build it. The
// scheduler builds it when a worker first reaches it and releases it after its
// last morsel, so a one-shot join holds only the partitions in flight, and a
// released structure's buffers are the next one's.
package exec

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bandjoin/internal/localjoin"
	"bandjoin/internal/obs"
)

// Morsel sizing bounds for the auto setting (MorselRows == 0): small enough
// that a skewed partition splits into many times the worker count (so the
// tail is short), large enough that the per-morsel claim and the sorted
// scan's window re-search are noise.
const (
	autoMorselMin = 1024
	autoMorselMax = 65536
	// autoMorselPerWorker is how many morsels per worker the largest
	// partition alone should yield.
	autoMorselPerWorker = 8
)

// ResolveMorselRows turns the MorselRows knob into a concrete morsel size for
// a run whose largest partition probes maxRows S-rows with the given
// parallelism. Positive values are used as-is; zero (auto) sizes from the
// partition sizes and the parallelism. With one worker auto collapses to
// whole-partition morsels — striping cannot help a single worker, and this
// keeps the 1-CPU schedule identical to the per-partition path.
func ResolveMorselRows(morselRows, parallelism, maxRows int) int {
	if morselRows > 0 {
		return morselRows
	}
	if parallelism <= 1 || maxRows == 0 {
		return max(maxRows, 1)
	}
	rows := maxRows / (autoMorselPerWorker * parallelism)
	return min(max(rows, autoMorselMin), autoMorselMax)
}

// RangeRun executes probe positions [lo, hi) of a partition's own probe order
// and returns the pair count.
type RangeRun func(lo, hi int, emit localjoin.Emit) int64

// MorselJob is one partition's probe work for RunMorsels: Rows is the probe
// domain size (always the partition's S cardinality), and Run executes its
// ranges. A job whose structure does not exist yet has a Build instead: RunMorsels
// calls it once, when a worker first needs the job, runs the returned RangeRun,
// and calls the returned release (if non-nil) right after the job's last
// morsel, so only the partitions in flight are held at once.
type MorselJob struct {
	Rows  int
	Run   RangeRun
	Build func() (run RangeRun, release func())
}

// JobResult is one job's aggregated outcome: the pair count, the summed
// execution time of its build and its morsels (the partition's simulated busy
// time), and —
// when pairs were collected — the emitted local (S index, T index) pairs
// concatenated in morsel order, i.e. in exactly the sequential probe's
// emission order.
type JobResult struct {
	Count int64
	Nanos int64
	SIdx  []int32
	TIdx  []int32
}

// MorselStats is the scheduler's skew accounting for one run.
type MorselStats struct {
	// Morsels is the number of morsels executed.
	Morsels int64
	// Steals counts morsels executed by a worker other than the one that
	// claimed the job's first morsel — cross-worker sharing of one
	// partition's work, which only a skewed or striped schedule produces.
	Steals int64
	// StragglerRatio is max job rows / mean job rows over non-empty jobs:
	// 1.0 for a perfectly balanced plan, ~p/2 when one partition holds half
	// the probe work. It measures the residual skew the morsel schedule
	// absorbs.
	StragglerRatio float64
}

// morsel is one claimable unit: probe positions [lo, hi) of one job.
type morsel struct {
	job    int32
	lo, hi int32
}

// morselSlot is one morsel's result, written only by its claiming worker.
type morselSlot struct {
	count int64
	nanos int64
	sIdx  []int32
	tIdx  []int32
}

// buildsPerWorker bounds the jobs RunMorsels holds built and not yet finished
// at once, per worker: enough that a worker which reaches a job another worker
// is still building can build the next one meanwhile, few enough that the
// structures in memory are those of the partitions in flight.
const buildsPerWorker = 2

// jobState is RunMorsels' view of one job: whether a worker has taken its
// Build, its RangeRun once ready is closed, what releases it, its morsels not
// yet run and the time its Build took.
type jobState struct {
	taken   atomic.Bool
	ready   chan struct{}
	run     RangeRun
	release func()
	left    atomic.Int64
	nanos   int64
}

// builder hands out the jobs' structures. A build holds one of slots from
// before it starts until its job's last morsel has run, and always takes the
// first job of the queue order not yet taken, so the taken jobs are a prefix
// of that order: a worker waiting for a slot waits on jobs whose morsels have
// all been claimed, and those finish.
type builder struct {
	jobs  []MorselJob
	state []jobState
	order []int // the jobs in queue order
	next  atomic.Int64
	slots chan struct{}
}

// await returns job j's RangeRun, building it — or, while another worker
// builds it, the next job of the queue — as needed; nil when ctx is cancelled
// first.
func (b *builder) await(ctx context.Context, j int) RangeRun {
	st := &b.state[j]
	for {
		select {
		case <-st.ready:
			return st.run
		default:
		}
		if st.taken.Load() {
			// Another worker builds j: build the next job meanwhile, if there
			// is one and a slot is free.
			acquired := false
			if int(b.next.Load()) < len(b.order) {
				select {
				case b.slots <- struct{}{}:
					acquired = true
				default:
				}
			}
			if !acquired {
				select {
				case <-st.ready:
					return st.run
				case <-ctx.Done():
					return nil
				}
			}
		} else {
			select {
			case b.slots <- struct{}{}:
			case <-st.ready:
				return st.run
			case <-ctx.Done():
				return nil
			}
		}
		if !b.buildNext(ctx) {
			return nil
		}
	}
}

// buildNext builds the first job of the queue order no worker has taken, with
// the slot its caller holds; with none left it frees the slot. It reports false
// when ctx was cancelled instead.
func (b *builder) buildNext(ctx context.Context) bool {
	for i := int(b.next.Load()); i < len(b.order); i++ {
		j := b.order[i]
		st := &b.state[j]
		if !st.taken.CompareAndSwap(false, true) {
			continue
		}
		b.next.Store(int64(i + 1))
		if ctx.Err() != nil {
			<-b.slots
			return false
		}
		start := time.Now()
		st.run, st.release = b.jobs[j].Build()
		st.nanos = time.Since(start).Nanoseconds()
		close(st.ready)
		return true
	}
	b.next.Store(int64(len(b.order)))
	<-b.slots
	return true
}

// closedChan is the ready channel of a job that needs no build.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// done records that one of job j's morsels has run; after the last one it
// releases the job's structure and its slot.
func (b *builder) done(j int) {
	st := &b.state[j]
	if st.left.Add(-1) != 0 || b.jobs[j].Build == nil {
		return
	}
	if st.release != nil {
		st.release()
	}
	<-b.slots
}

// RunMorsels executes the jobs' probe work on a pool of parallelism workers
// draining a single largest-partition-first morsel queue, and returns per-job
// results merged in deterministic (job, morsel) order. morselRows follows the
// MorselRows knob convention (> 0 fixed, 0 auto, < 0 every job one morsel);
// collect materializes the emitted pairs. A job with a Build is built when a
// worker first claims one of its morsels, or ahead of that by a worker that
// would otherwise wait on another's build, with at most buildsPerWorker ×
// parallelism jobs built and unfinished at any time; zero-row jobs are never
// built. Cancelling ctx stops workers at the next morsel claim, starts no
// further Build, and returns ctx.Err() once every worker has stopped, with
// the jobs built so far released.
func RunMorsels(ctx context.Context, jobs []MorselJob, morselRows, parallelism int, collect bool) ([]JobResult, MorselStats, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	maxRows, totalRows, nonEmpty := 0, 0, 0
	for i := range jobs {
		if jobs[i].Rows <= 0 {
			continue
		}
		nonEmpty++
		totalRows += jobs[i].Rows
		if jobs[i].Rows > maxRows {
			maxRows = jobs[i].Rows
		}
	}
	// More workers than rows cannot help: the morsel size and the worker count
	// both saturate below this, and clamping keeps an oversized (e.g.
	// network-supplied) parallelism from overflowing the products below.
	parallelism = min(parallelism, max(totalRows, 1))
	var stats MorselStats
	if nonEmpty > 0 {
		stats.StragglerRatio = float64(maxRows) / (float64(totalRows) / float64(nonEmpty))
	}
	rows := ResolveMorselRows(morselRows, parallelism, maxRows)

	// Queue order: largest probe side first (stable by job index), so the
	// straggler partition starts draining immediately and the small tail
	// fills the gaps.
	order := make([]int, 0, len(jobs))
	for i := range jobs {
		if jobs[i].Rows > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Rows > jobs[order[b]].Rows })
	b := &builder{jobs: jobs, state: make([]jobState, len(jobs)), order: order,
		slots: make(chan struct{}, buildsPerWorker*parallelism)}
	var morsels []morsel
	for _, j := range order {
		step := rows
		if morselRows < 0 {
			step = jobs[j].Rows
		}
		for lo := 0; lo < jobs[j].Rows; lo += step {
			hi := min(lo+step, jobs[j].Rows)
			morsels = append(morsels, morsel{job: int32(j), lo: int32(lo), hi: int32(hi)})
			b.state[j].left.Add(1)
		}
		if st := &b.state[j]; jobs[j].Build == nil {
			st.taken.Store(true)
			st.ready = closedChan
			st.run = jobs[j].Run
		} else {
			st.ready = make(chan struct{})
		}
	}
	slots := make([]morselSlot, len(morsels))
	owners := make([]atomic.Int32, len(jobs))
	for i := range owners {
		owners[i].Store(-1)
	}

	var cursor atomic.Int64
	var steals atomic.Int64
	var canceled atomic.Bool
	workers := min(parallelism, len(morsels))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int32) {
			defer wg.Done()
			for {
				idx := cursor.Add(1) - 1
				if idx >= int64(len(morsels)) {
					return
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				m := morsels[idx]
				run := b.await(ctx, int(m.job))
				if run == nil {
					canceled.Store(true)
					return
				}
				if !owners[m.job].CompareAndSwap(-1, worker) && owners[m.job].Load() != worker {
					steals.Add(1)
				}
				slot := &slots[idx]
				var emit localjoin.Emit
				if collect {
					emit = func(si, ti int, _, _ []float64) {
						slot.sIdx = append(slot.sIdx, int32(si))
						slot.tIdx = append(slot.tIdx, int32(ti))
					}
				}
				start := time.Now()
				slot.count = run(int(m.lo), int(m.hi), emit)
				slot.nanos = time.Since(start).Nanoseconds()
				b.done(int(m.job))
			}
		}(int32(w))
	}
	wg.Wait()
	if canceled.Load() {
		// Every worker has stopped: release what was built and not finished.
		for j := range b.state {
			if st := &b.state[j]; st.release != nil && st.left.Load() > 0 {
				st.release()
			}
		}
		return nil, stats, ctx.Err()
	}
	stats.Morsels = int64(len(morsels))
	stats.Steals = steals.Load()

	// Deterministic merge: fold each job's morsels in queue (= probe range)
	// order, so the concatenated emissions equal the sequential probe's.
	results := make([]JobResult, len(jobs))
	for j := range results {
		results[j].Nanos = b.state[j].nanos
	}
	for idx := range morsels {
		m := morsels[idx]
		r := &results[m.job]
		r.Count += slots[idx].count
		r.Nanos += slots[idx].nanos
		if collect {
			r.SIdx = append(r.SIdx, slots[idx].sIdx...)
			r.TIdx = append(r.TIdx, slots[idx].tIdx...)
		}
	}
	metrics.morsels.Add(stats.Morsels)
	metrics.steals.Add(stats.Steals)
	metrics.straggler.Set(int64(math.Round(stats.StragglerRatio * 1000)))
	return results, stats, nil
}

// metrics is the exec plane's process-wide morsel instrumentation, the
// in-process counterpart of the cluster workers' bandjoin_worker_morsel_*
// series (every in-process Engine shares one exec pipeline, so unlike the
// per-Worker registries this one is package-level).
var metrics = struct {
	reg       *obs.Registry
	morsels   *obs.Counter
	steals    *obs.Counter
	straggler *obs.Gauge
}{}

func init() {
	metrics.reg = obs.NewRegistry()
	metrics.morsels = metrics.reg.Counter("bandjoin_exec_morsels_total",
		"Probe-side morsels executed by the in-process morsel scheduler.")
	metrics.steals = metrics.reg.Counter("bandjoin_exec_morsel_steals_total",
		"Morsels executed by a worker other than their partition's first claimer.")
	metrics.straggler = metrics.reg.Gauge("bandjoin_exec_straggler_ratio_millis",
		"Max-partition / mean-partition probe rows of the last morsel run, in thousandths.")
}

// Metrics returns the exec plane's morsel-scheduler registry for exposition
// alongside an engine's own registry.
func Metrics() *obs.Registry { return metrics.reg }
