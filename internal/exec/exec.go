// Package exec runs a distributed band-join on a simulated cluster: the map
// phase routes every input tuple through the plan's assignment (duplicating
// tuples assigned to several partitions, exactly like the shuffle of the
// paper's MapReduce setting), the reduce phase runs a local band-join per
// partition, and partitions are placed on the w workers. The result records
// the quantities the paper evaluates: total input including duplicates I,
// the input Im and output Om of the most loaded worker, max worker load Lm,
// the Lemma 1 lower bounds, and the relative overheads plotted in Figure 4.
//
// GOMAXPROCS bounds both the number of shuffle shards (see shuffle.go) and
// the number of concurrent local joins.
package exec

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// Options configures a run.
type Options struct {
	// Workers is the number of simulated worker machines.
	Workers int
	// Model supplies the β coefficients; a zero value selects the default.
	Model costmodel.Model
	// CollectPairs materializes every result pair's (S id, T id); it is meant
	// for correctness tests on small inputs, not for benchmarks.
	CollectPairs bool
	// MorselRows sets the probe-side morsel size of the reduce phase's
	// morsel-driven scheduler (see morsel.go): 0 sizes morsels automatically
	// from the partition sizes and the parallelism, > 0 fixes the row count,
	// and < 0 runs every partition as one morsel (the per-partition schedule,
	// the skew and scaling harnesses' baseline). All settings produce
	// bit-identical results.
	MorselRows int
	// Seed drives randomized plan decisions.
	Seed int64
}

// DefaultOptions returns options for a w-worker run.
func DefaultOptions(workers int) Options {
	return Options{Workers: workers, Model: costmodel.Default()}
}

// Pair is one join result identified by the original tuple indices.
type Pair struct {
	S int64
	T int64
}

// Result summarizes one distributed band-join execution.
type Result struct {
	Partitioner string
	Workers     int
	Partitions  int

	// Timing.
	OptimizationTime time.Duration
	ShuffleTime      time.Duration
	JoinWallTime     time.Duration // wall time of the (parallel) reduce phase
	Makespan         time.Duration // max simulated per-worker busy time

	// Input/output accounting (the paper's I, Im, Om in tuples).
	InputS, InputT int
	TotalInput     int64 // I: input including duplicates
	Output         int64
	Im, Om         int64 // input and output of the most loaded worker

	// Loads and lower bounds.
	MaxLoad        float64 // Lm = β2·Im + β3·Om
	LowerBoundLoad float64 // L0 from Lemma 1
	DupOverhead    float64 // I/(|S|+|T|) − 1
	LoadOverhead   float64 // Lm/L0 − 1
	PredictedTime  float64 // M(I, Im, Om), seconds

	// Cluster data-plane accounting, filled only by the cluster coordinator
	// (internal/cluster): bytes its shipment streams wrote (post-encoding,
	// failover reshipments included) and the chunk frames they carried. Zero
	// for in-process runs, which move no bytes over a network.
	ShuffleBytes int64
	ShuffleRPCs  int64
	// ShuffleRawBytes is what the shipped tuples would occupy row-major and
	// uncompressed (8 bytes per key value and per tuple ID), so
	// ShuffleRawBytes/ShuffleBytes is the shuffle's effective compression
	// ratio. Zero for in-process runs.
	ShuffleRawBytes int64
	// ShuffleEncodeBusy and ShuffleDecodeBusy split the shuffle's codec cost
	// out of ShuffleTime: the coordinator senders' summed time encoding
	// columnar chunks, and the workers' summed time decoding them into their
	// partitions (reported per stream). Both are busy time across concurrent
	// senders and workers, so they can exceed the wall time they overlap.
	ShuffleEncodeBusy time.Duration
	ShuffleDecodeBusy time.Duration

	// Fault-tolerance accounting, filled only by the cluster coordinator.
	// Degraded reports that the query ran on fewer workers than the cluster
	// was configured with (a worker was down at query start or died
	// mid-query). LostWorkers counts workers declared dead during this query;
	// Retries counts RPC retries and recovery reshipments the query needed;
	// FailoverRounds counts the recovery rounds (reship-and-rejoin passes,
	// retained-plan rebuilds) the query went through. All zero for in-process
	// runs and for undisturbed cluster runs.
	Degraded       bool
	LostWorkers    int
	Retries        int
	FailoverRounds int

	// FaultEvents are the timestamped fault-path occurrences (worker losses,
	// failover rounds) recorded while the query ran; the engine rebases them
	// into Trace spans.
	FaultEvents []TraceEvent

	// WarmPartitions reports that the retained-partition layer served this
	// query: the shuffle's output was already resident (in memory for the
	// in-process plane, on the workers for the cluster plane) and nothing was
	// reshuffled.
	WarmPartitions bool

	// DeltaAbsorbTime is the time this query spent catching retained
	// partitions up to rows appended since they were shuffled (routing and
	// shipping just the delta); zero when the retained data was already fresh.
	// StaleRebuildTime is the time the local joins spent re-sorting and
	// re-building prepared join structures invalidated by such deltas —
	// deferred from append time to the next probe, so it shows up on the first
	// query after an append and is zero afterwards.
	DeltaAbsorbTime  time.Duration
	StaleRebuildTime time.Duration
	// Folds counts the retained partitions whose appended S rows this query
	// folded into their sorted order and resolved cell lists (FoldS), and
	// FoldTime sums what that took across partitions. A fold keeps the T-side
	// structure: it is no stale rebuild and no part of StaleRebuildTime.
	Folds    int
	FoldTime time.Duration

	// Morsel-scheduler accounting (see morsel.go): morsels executed — one
	// per partition with S rows when MorselRows < 0 — morsels run by a worker
	// other than their partition's first claimer, and the max/mean partition
	// probe-row ratio the schedule absorbed.
	Morsels        int64
	MorselSteals   int64
	StragglerRatio float64

	// Trace is the per-query structured trace, attached by the Engine (nil
	// for direct exec/coordinator runs).
	Trace *QueryTrace

	// Per-worker accounting.
	WorkerInput  []int64
	WorkerOutput []int64

	// Pairs holds the result pairs when Options.CollectPairs is set.
	Pairs []Pair
}

// Prepared is the output of the optimization stage: a partitioning plan
// together with the context it was optimized in. It contains everything
// Execute needs apart from the full inputs, so an engine can cache it and
// serve repeated queries without re-sampling or re-optimizing.
type Prepared struct {
	// Plan is the chosen partitioning.
	Plan partition.Plan
	// Ctx is the optimization context (band, workers, samples, model, seed)
	// the plan was computed for.
	Ctx *partition.Context
	// Partitioner is the name of the algorithm that produced the plan.
	Partitioner string
	// OptimizationTime is the duration of the partitioner's Plan call.
	OptimizationTime time.Duration
}

// PlanQuery runs the optimization stage on an already-drawn sample: it builds
// the partitioning context and asks the partitioner for a plan. Keeping it
// apart from the sampling lets callers cache the sample (one input scan per
// dataset pair) and the resulting Prepared plan (one optimization per distinct
// query shape).
func PlanQuery(pt partition.Partitioner, smp *sample.Sample, band data.Band, opts Options) (*Prepared, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("exec: need at least one worker, got %d", opts.Workers)
	}
	if err := band.Validate(); err != nil {
		return nil, err
	}
	if (opts.Model == costmodel.Model{}) {
		opts.Model = costmodel.Default()
	}
	ctx := &partition.Context{Band: band, Workers: opts.Workers, Sample: smp, Model: opts.Model, Seed: opts.Seed}
	optStart := time.Now()
	plan, err := pt.Plan(ctx)
	if err != nil {
		return nil, fmt.Errorf("exec: %s optimization failed: %w", pt.Name(), err)
	}
	return &Prepared{
		Plan:             plan,
		Ctx:              ctx,
		Partitioner:      pt.Name(),
		OptimizationTime: time.Since(optStart),
	}, nil
}

// ExecutePlan routes s and t through an already-computed plan (Route) and runs
// the local joins without materialising the shuffle: each non-empty partition
// is one morsel job whose Build fills a pooled Partition from the routed lists
// (appendRouted, as Entry.Absorb fills a retained one) and prepares it once,
// and whose release hands the structure and then the partition back after the
// partition's last morsel, so only the partitions in flight are held at once
// and each fills the storage an earlier one left. Cancelling ctx aborts the run
// after routing and between morsels, returning ctx.Err().
func ExecutePlan(ctx context.Context, plan partition.Plan, s, t *data.Relation, band data.Band, opts Options) (*Result, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("exec: need at least one worker, got %d", opts.Workers)
	}

	// --- Shuffle (map phase): route every tuple to its partitions.
	shuffleStart := time.Now()
	r, err := Route(ctx, plan, s, t, 0, 0, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	shuffleTime := time.Since(shuffleStart)

	pids := r.NonEmpty()
	recs, jobs := make([]PartitionStats, len(pids)), make([]MorselJob, len(pids))
	// A run that collects pairs copies each partition's tuple IDs before its
	// release hands it back to the pool; the pairs map through the copies.
	sIDs, tIDs := make([][]int64, len(pids)), make([][]int64, len(pids))
	for i, pid := range pids {
		recs[i] = PartitionStats{Partition: pid, InputS: r.S.Rows(pid), InputT: r.T.Rows(pid)}
		jobs[i] = MorselJob{Rows: r.S.Rows(pid), Build: func() (RangeRun, func()) {
			p := pooledPartition(s.Dims())
			p.appendRouted(r, pid)
			return p.job(band, func() {
				if opts.CollectPairs {
					sIDs[i], tIDs[i] = slices.Clone(p.sIDs), slices.Clone(p.tIDs)
				}
				partitionPool.Put(p)
			}).Build()
		}}
	}
	res, err := reduce(ctx, plan, r.NumPartitions, recs, jobs, func(i int) ([]int64, []int64) { return sIDs[i], tIDs[i] },
		r.TotalInput, s.Len(), t.Len(), opts)
	if err != nil {
		return nil, err
	}
	res.ShuffleTime = shuffleTime
	return res, nil
}

// PrepareShuffled builds, for every non-nil partition, the local join's
// reusable structure for (p.S, p.T, band) (localjoin.Prepare), running at most
// parallelism builds concurrently (< 1 selects GOMAXPROCS). Entries are nil
// where the partition joins through the nested loop. The benchmark harness
// (benchmark/replay.go) prebuilds its retained partitions with it; the third
// parameter is unused, and stays only because the harness passes nil there.
func PrepareShuffled(parts []*PartitionInput, band data.Band, _ any, parallelism int) []*localjoin.EpsGrid {
	prepared := make([]*localjoin.EpsGrid, len(parts))
	each(parts, parallelism, func(pid int, p *PartitionInput) { prepared[pid] = localjoin.Prepare(p.S, p.T, band) })
	return prepared
}

// ExecuteShuffledPrepared runs the reduce phase (local joins, worker
// placement, and accounting) over Shuffle's partition inputs, for the
// benchmark's replay and the skew and scaling harnesses (the engine's retained
// plans join through Entry.Execute). totalInput is the routed tuple count
// I the shuffle reported; inputS and inputT are the original relation
// cardinalities. Partitions with a non-nil entry in prepared
// (PrepareShuffled's, for the same band) probe that structure; prepared may be
// nil or sparse, and the other partitions prepare once for this query. Results
// are identical either way (a prepared probe emits exactly the pairs of the
// one-shot join, in the same order).
func ExecuteShuffledPrepared(ctx context.Context, plan partition.Plan, parts []*PartitionInput, prepared []*localjoin.EpsGrid, totalInput int64, inputS, inputT int, band data.Band, opts Options) (*Result, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("exec: need at least one worker, got %d", opts.Workers)
	}
	var recs []PartitionStats
	var jobs []MorselJob
	var in []*PartitionInput
	for pid, p := range parts {
		if p == nil {
			continue
		}
		view := &Partition{s: p.S, t: p.T}
		if pid < len(prepared) {
			view.band, view.prep = bandKey(band), prepared[pid]
		}
		recs = append(recs, PartitionStats{Partition: pid, InputS: p.S.Len(), InputT: p.T.Len()})
		jobs = append(jobs, view.job(band, nil))
		in = append(in, p)
	}
	return reduce(ctx, plan, len(parts), recs, jobs, func(i int) ([]int64, []int64) { return in[i].SIDs, in[i].TIDs },
		totalInput, inputS, inputT, opts)
}

// PartitionStats is one partition's join outcome: the record both data planes
// report — the in-process reduce for itself, a cluster worker in its
// JoinReply — and Aggregate folds into a Result.
type PartitionStats struct {
	Partition int
	InputS    int
	InputT    int
	Output    int64
	// JoinNanos is the partition's busy time: its morsels and, when the join
	// built the partition's structure, that build.
	JoinNanos int64
	// RebuildNanos is the time this probe spent re-sorting and re-building the
	// partition's prepared join structure after delta appends invalidated it
	// (zero when the sealed structure was still fresh).
	RebuildNanos int64
	// FoldNanos is the time this probe spent folding the partition's appended
	// S rows into its sorted order and resolved cell lists (FoldS; zero when
	// no fold was due). A fold keeps the T-side structure, so it is no rebuild
	// and is not part of RebuildNanos.
	FoldNanos int64
	// PairS/PairT are parallel slices of result pairs, as tuple IDs, when
	// pairs are collected.
	PairS []int64
	PairT []int64
}

// JoinPartitions runs the partitions' morsel jobs on one shared pool
// (RunMorsels, GOMAXPROCS workers) — jobs[i] joins the partition recs[i]
// describes — and completes each record with its output, its busy time and,
// when collect is set, its pairs: ids(i) maps job i's local S and T indices to
// tuple IDs, and is called after the jobs have run, for the jobs that emitted
// pairs. morselRows follows the MorselRows convention. It is the one record
// builder of both planes.
func JoinPartitions(ctx context.Context, recs []PartitionStats, jobs []MorselJob, ids func(i int) (sIDs, tIDs []int64), morselRows int, collect bool) (MorselStats, error) {
	jres, mstats, err := RunMorsels(ctx, jobs, morselRows, runtime.GOMAXPROCS(0), collect)
	if err != nil {
		return mstats, err
	}
	for i := range recs {
		rec, jr := &recs[i], &jres[i]
		rec.Output, rec.JoinNanos = jr.Count, jr.Nanos
		if len(jr.SIdx) == 0 {
			continue
		}
		sIDs, tIDs := ids(i)
		rec.PairS, rec.PairT = make([]int64, len(jr.SIdx)), make([]int64, len(jr.SIdx))
		for k, si := range jr.SIdx {
			rec.PairS[k], rec.PairT[k] = sIDs[si], tIDs[jr.TIdx[k]]
		}
	}
	return mstats, nil
}

// reduce runs the in-process reduce phase: jobs[i] joins the partition recs[i]
// describes (JoinPartitions, which ids serves), on the morsel scheduler, so
// one fat partition cannot bound the wall time. Then it places the plan's
// numParts partitions on the workers — the plan's own placement, else LPT
// over their observed loads — and aggregates the records into the result.
func reduce(ctx context.Context, plan partition.Plan, numParts int, recs []PartitionStats, jobs []MorselJob, ids func(i int) (sIDs, tIDs []int64), totalInput int64, inputS, inputT int, opts Options) (*Result, error) {
	if (opts.Model == costmodel.Model{}) {
		opts.Model = costmodel.Default()
	}
	joinStart := time.Now()
	mstats, err := JoinPartitions(ctx, recs, jobs, ids, opts.MorselRows, opts.CollectPairs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workers:        opts.Workers,
		JoinWallTime:   time.Since(joinStart),
		InputS:         inputS,
		InputT:         inputT,
		TotalInput:     totalInput,
		Morsels:        mstats.Morsels,
		MorselSteals:   mstats.Steals,
		StragglerRatio: mstats.StragglerRatio,
	}
	loads := make([]float64, numParts)
	for _, rec := range recs {
		loads[rec.Partition] = opts.Model.Load(float64(rec.InputS+rec.InputT), float64(rec.Output))
	}
	res.Aggregate(recs, partition.Place(plan, opts.Workers, func() []float64 { return loads }), opts.Model)
	return res, nil
}

// Aggregate folds partition records into the result and accounts it. Each
// record with input is one partition, run on the worker place(pid) names: it
// adds to Partitions, Output, that worker's input, output and busy time
// (JoinNanos), StaleRebuildTime, Folds and FoldTime, and Pairs. Then come
// the most loaded worker's Im, Om and MaxLoad, the Lemma 1 lower bound, the
// duplication and load overheads, the predicted time, the makespan of the
// per-worker busy times, and the pairs in order. res must carry Workers,
// InputS, InputT and TotalInput. Both data planes end a query with it.
func (res *Result) Aggregate(recs []PartitionStats, place func(pid int) int, model costmodel.Model) {
	res.WorkerInput, res.WorkerOutput = make([]int64, res.Workers), make([]int64, res.Workers)
	workerBusy := make([]time.Duration, res.Workers)
	for i := range recs {
		rec := &recs[i]
		if rec.InputS+rec.InputT == 0 {
			continue
		}
		w := place(rec.Partition)
		res.Partitions++
		res.WorkerInput[w] += int64(rec.InputS + rec.InputT)
		res.WorkerOutput[w] += rec.Output
		res.Output += rec.Output
		workerBusy[w] += time.Duration(rec.JoinNanos)
		res.StaleRebuildTime += time.Duration(rec.RebuildNanos)
		if rec.FoldNanos > 0 {
			res.Folds++
			res.FoldTime += time.Duration(rec.FoldNanos)
		}
		for k, s := range rec.PairS {
			res.Pairs = append(res.Pairs, Pair{S: s, T: rec.PairT[k]})
		}
	}

	maxW := 0
	for w := 1; w < res.Workers; w++ {
		if model.Load(float64(res.WorkerInput[w]), float64(res.WorkerOutput[w])) >
			model.Load(float64(res.WorkerInput[maxW]), float64(res.WorkerOutput[maxW])) {
			maxW = w
		}
	}
	res.Im = res.WorkerInput[maxW]
	res.Om = res.WorkerOutput[maxW]
	res.MaxLoad = model.Load(float64(res.Im), float64(res.Om))
	res.LowerBoundLoad = model.LowerBoundLoad(float64(res.InputS+res.InputT), float64(res.Output), res.Workers)
	if res.InputS+res.InputT > 0 {
		res.DupOverhead = float64(res.TotalInput)/float64(res.InputS+res.InputT) - 1
	}
	if res.LowerBoundLoad > 0 {
		res.LoadOverhead = res.MaxLoad/res.LowerBoundLoad - 1
	}
	res.PredictedTime = model.Predict(float64(res.TotalInput), float64(res.Im), float64(res.Om))
	res.Makespan = slices.Max(append(workerBusy, 0))
	slices.SortFunc(res.Pairs, func(a, b Pair) int { return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.T, b.T)) })
}

// String returns a one-line summary of the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s: w=%d parts=%d I=%d Im=%d Om=%d out=%d dup=%.1f%% loadOverhead=%.1f%% opt=%v",
		r.Partitioner, r.Workers, r.Partitions, r.TotalInput, r.Im, r.Om, r.Output,
		100*r.DupOverhead, 100*r.LoadOverhead, r.OptimizationTime.Round(time.Millisecond))
}
