package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bandjoin"
	"bandjoin/internal/cluster"
	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/exec"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
	"bandjoin/internal/wire"
)

// layerSample holds the per-layer numbers of one replayed operation, keyed by
// per-layer metric name. stagedKey is the sum of the stages that make up the
// operation's wall time.
type layerSample map[string]float64

const stagedKey = "staged_s"

// replayer re-runs a workload's operation stage by stage through the layers'
// exported functions, each call under a span of the benchmark's own. step
// replays the operation that was just answered over (s, t, band).
type replayer interface {
	step(tr *tracer, s, t *bandjoin.Relation, band bandjoin.Band) (layerSample, error)
	close()
}

// samplingFor mirrors how the public API resolves a query's sampling options.
func samplingFor(o bandjoin.Options) sample.Options {
	so := sample.DefaultOptions()
	if o.InputSampleSize != 0 {
		so = sample.Options{InputSampleSize: o.InputSampleSize, OutputSampleSize: o.OutputSampleSize}
	}
	so.Seed = o.Seed + 1
	return so
}

// planStages replays the optimization phase: draw (unless a drawn input
// sample is supplied), derive the band's sample, plan.
func planStages(tr *tracer, root int, ls layerSample, in *sample.InputSample, s, t *bandjoin.Relation, band bandjoin.Band,
	so sample.Options, pt partition.Partitioner, workers int) (partition.Plan, *partition.Context, error) {
	var err error
	if in == nil {
		ls["sample.draw_s"] = tr.timed("sample.draw", root, func() { in, err = sample.DrawInputs(s, t, so) })
		if err != nil {
			return nil, nil, err
		}
		ls[stagedKey] += ls["sample.draw_s"]
	}
	ls["sample.rows"] = float64(in.S.Len() + in.T.Len())
	var smp *sample.Sample
	ls["sample.forband_s"] = tr.timed("sample.forband", root, func() { smp, err = in.ForBand(band) })
	if err != nil {
		return nil, nil, err
	}
	pctx := &partition.Context{Band: band, Workers: workers, Sample: smp, Model: costmodel.Default(), Seed: benchSeed}
	var plan partition.Plan
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ls["core.plan_s"] = tr.timed("core.plan", root, func() { plan, err = pt.Plan(pctx) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, nil, err
	}
	ls["core.allocs_per_plan"] = float64(after.Mallocs - before.Mallocs)
	ls["core.partitions"] = float64(plan.NumPartitions())
	ls[stagedKey] += ls["sample.forband_s"] + ls["core.plan_s"]
	return plan, pctx, nil
}

// shuffleStage routes the full inputs through the plan.
func shuffleStage(tr *tracer, root int, ls layerSample, plan partition.Plan, s, t *bandjoin.Relation) ([]*exec.PartitionInput, int64, int, error) {
	var parts []*exec.PartitionInput
	var total int64
	var err error
	id := tr.begin("exec.shuffle", root)
	parts, total, err = exec.Shuffle(context.Background(), plan, s, t, 0)
	ls["exec.shuffle_s"] = tr.end(id)
	if err != nil {
		return nil, 0, id, err
	}
	ls["exec.shuffle_tuples_per_s"] = float64(total) / ls["exec.shuffle_s"]
	ls["exec.dup_tuples"] = float64(total - int64(s.Len()+t.Len()))
	return parts, total, id, nil
}

// joinStages builds every partition's join structure, then probes.
func joinStages(tr *tracer, root int, ls layerSample, plan partition.Plan, parts []*exec.PartitionInput, total int64,
	s, t *bandjoin.Relation, band bandjoin.Band, workers int) (*exec.Result, error) {
	var prepared []localjoin.PreparedT
	ls["localjoin.prepare_s"] = tr.timed("localjoin.prepare", root, func() { prepared = exec.PrepareShuffled(parts, band, nil, 0) })
	var res *exec.Result
	var err error
	ls["localjoin.probe_s"] = tr.timed("localjoin.probe", root, func() {
		res, err = exec.ExecuteShuffledPrepared(context.Background(), plan, parts, prepared, total, s.Len(), t.Len(), band,
			exec.Options{Workers: workers, Model: costmodel.Default(), Seed: benchSeed})
	})
	if err != nil {
		return nil, err
	}
	ls["localjoin.pairs_per_s"] = float64(res.Output) / ls["localjoin.probe_s"]
	ls["exec.morsels"] = float64(res.Morsels)
	ls["exec.steals"] = float64(res.MorselSteals)
	ls["exec.straggler_ratio"] = res.StragglerRatio
	return res, nil
}

// wireStage encodes and decodes every partition side in chunks of the default
// size, the way the streaming shuffle ships them.
func wireStage(tr *tracer, root int, ls layerSample, parts []*exec.PartitionInput) error {
	const chunk = 4096 // the cluster plane's default ClusterChunkSize
	enc := wire.NewEncoder(wire.ModeAuto)
	var dec wire.Decoder
	var encT, decT time.Duration
	var bytes, raw int64
	col := make([]float64, chunk)
	ids := make([]int64, chunk)
	roundTrip := func(rel *bandjoin.Relation, relIDs []int64) error {
		for lo := 0; lo < rel.Len(); lo += chunk {
			hi := min(lo+chunk, rel.Len())
			t0 := time.Now()
			buf := enc.EncodeChunk(rel.KeysRange(lo, hi), rel.Dims(), relIDs[lo:hi])
			t1 := time.Now()
			n, dims, err := dec.Begin(buf)
			if err != nil {
				return err
			}
			for d := 0; d < dims; d++ {
				if _, _, err := dec.KeyColumn(col[:n]); err != nil {
					return err
				}
			}
			if err := dec.IDs(ids[:n]); err != nil {
				return err
			}
			encT += t1.Sub(t0)
			decT += time.Since(t1)
			bytes += int64(len(buf))
			raw += wire.RawBytes(n, dims)
		}
		return nil
	}
	id := tr.begin("wire.roundtrip", root)
	tr.markStandalone(id)
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := roundTrip(p.S, p.SIDs); err != nil {
			return err
		}
		if err := roundTrip(p.T, p.TIDs); err != nil {
			return err
		}
	}
	tr.end(id)
	tr.child("wire.encode", id, 0, encT.Seconds())
	tr.child("wire.decode", id, encT.Seconds(), decT.Seconds())
	ls["wire.encode_s"] = encT.Seconds()
	ls["wire.decode_s"] = decT.Seconds()
	ls["wire.bytes"] = float64(bytes)
	ls["wire.raw_bytes"] = float64(raw)
	if bytes > 0 {
		ls["wire.ratio"] = float64(raw) / float64(bytes)
	}
	return nil
}

// --- cold-inproc-pareto3d ---------------------------------------------------

type coldInprocReplay struct{}

func replayColdInproc(inputs) (replayer, error) { return coldInprocReplay{}, nil }

func (coldInprocReplay) step(tr *tracer, s, t *bandjoin.Relation, band bandjoin.Band) (layerSample, error) {
	ls := layerSample{}
	opts := coldInprocOptions(false)
	root := tr.begin("replay", -1)
	defer tr.end(root)
	plan, _, err := planStages(tr, root, ls, nil, s, t, band, samplingFor(opts), core.NewDefault(), opts.Workers)
	if err != nil {
		return nil, err
	}
	parts, total, _, err := shuffleStage(tr, root, ls, plan, s, t)
	if err != nil {
		return nil, err
	}
	if _, err := joinStages(tr, root, ls, plan, parts, total, s, t, band, opts.Workers); err != nil {
		return nil, err
	}
	ls[stagedKey] += ls["exec.shuffle_s"] + ls["localjoin.prepare_s"] + ls["localjoin.probe_s"]
	return ls, nil
}

func (coldInprocReplay) close() {}

// --- the cluster plane, driven directly -------------------------------------

// replayCluster is a loopback cluster of the replay's own, reached through
// the coordinator's exported functions.
type replayCluster struct {
	lc    *cluster.LocalCluster
	coord *cluster.Coordinator
}

func startReplayCluster() (*replayCluster, error) {
	lc, err := cluster.StartLocal(clusterWorkers)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.Dial(lc.Addrs())
	if err != nil {
		lc.Stop()
		return nil, err
	}
	return &replayCluster{lc: lc, coord: coord}, nil
}

func (rc *replayCluster) close() {
	rc.coord.Close()
	rc.lc.Stop()
}

// workerTotals sums the workers' cumulative counters the replay reports
// deltas of.
type workerTotals struct {
	decodeS, rebuildS, joinS float64
	morsels, steals          float64
	straggler                float64
	pipelinedPreps           float64
}

func (rc *replayCluster) totals() (workerTotals, error) {
	var wt workerTotals
	for _, ws := range rc.coord.Stats(context.Background()).Workers {
		if ws.Err != "" {
			return wt, fmt.Errorf("worker %d stats: %s", ws.Slot, ws.Err)
		}
		wt.decodeS += float64(ws.Stats.DecodeNanos) / 1e9
		wt.rebuildS += float64(ws.Stats.StaleRebuildNanos) / 1e9
		wt.joinS += float64(ws.Stats.JoinNanos) / 1e9
		wt.morsels += float64(ws.Stats.Morsels)
		wt.steals += float64(ws.Stats.MorselSteals)
		wt.straggler = max(wt.straggler, ws.Stats.StragglerRatio)
	}
	for _, w := range rc.lc.Handles() {
		if v, ok := w.Metrics().Snapshot()["bandjoin_worker_pipelined_preps_total"].(int64); ok {
			wt.pipelinedPreps += float64(v)
		}
	}
	return wt, nil
}

// runPlan runs one RunPlan under a span and books what the coordinator and
// the workers report about it. The worker counters are read outside the span.
func (rc *replayCluster) runPlan(tr *tracer, root int, ls layerSample, plan partition.Plan, pctx *partition.Context,
	s, t *bandjoin.Relation, band bandjoin.Band, copts cluster.Options) (*exec.Result, error) {
	before, err := rc.totals()
	if err != nil {
		return nil, err
	}
	var res *exec.Result
	id := tr.begin("cluster.run", root)
	res, err = rc.coord.RunPlan(context.Background(), plan, pctx, s, t, band, copts)
	ls["cluster.run_s"] = tr.end(id)
	if err != nil {
		return nil, err
	}
	after, err := rc.totals()
	if err != nil {
		return nil, err
	}
	tr.child("cluster.shuffle+ship", id, 0, res.ShuffleTime.Seconds())
	tr.child("cluster.join", id, res.ShuffleTime.Seconds(), res.JoinWallTime.Seconds())
	ls["cluster.join_s"] = res.JoinWallTime.Seconds()
	ls["cluster.rpcs"] = float64(res.ShuffleRPCs)
	ls["cluster.shuffle_bytes"] = float64(res.ShuffleBytes)
	ls["cluster.retries"] = float64(res.Retries)
	ls["cluster.worker_decode_s"] = after.decodeS - before.decodeS
	ls["cluster.worker_rebuild_s"] = after.rebuildS - before.rebuildS
	ls["cluster.pipelined_preps"] = after.pipelinedPreps - before.pipelinedPreps
	ls["exec.morsels"] = after.morsels - before.morsels
	ls["exec.steals"] = after.steals - before.steals
	ls["exec.straggler_ratio"] = after.straggler
	ls["worker.join_busy_s"] = after.joinS - before.joinS
	return res, nil
}

// --- cold-cluster-ptf8d -----------------------------------------------------

type coldClusterReplay struct{ rc *replayCluster }

func replayColdCluster(inputs) (replayer, error) {
	rc, err := startReplayCluster()
	if err != nil {
		return nil, err
	}
	return &coldClusterReplay{rc: rc}, nil
}

func (r *coldClusterReplay) step(tr *tracer, s, t *bandjoin.Relation, band bandjoin.Band) (layerSample, error) {
	ls := layerSample{}
	opts := coldClusterOptions(false)
	root := tr.begin("replay", -1)
	defer tr.end(root)
	plan, pctx, err := planStages(tr, root, ls, nil, s, t, band, samplingFor(opts), core.NewRecPartS(), r.rc.coord.Workers())
	if err != nil {
		return nil, err
	}
	// The coordinator routes, ships and joins in one call; its result splits
	// that call into shuffle+ship and join.
	res, err := r.rc.runPlan(tr, root, ls, plan, pctx, s, t, band,
		cluster.Options{Model: costmodel.Default(), Sampling: samplingFor(opts), Seed: benchSeed})
	if err != nil {
		return nil, err
	}
	ls[stagedKey] += ls["cluster.run_s"]

	// Beside the operation: the same routing, wire coding and local joins
	// measured on their own, which explain where the call's time goes.
	parts, total, id, err := shuffleStage(tr, root, ls, plan, s, t)
	if err != nil {
		return nil, err
	}
	tr.markStandalone(id)
	ls["cluster.ship_s"] = max(res.ShuffleTime.Seconds()-ls["exec.shuffle_s"], 0)
	if err := wireStage(tr, root, ls, parts); err != nil {
		return nil, err
	}
	local := tr.begin("localjoin.standalone", root)
	tr.markStandalone(local)
	morsels, steals, straggler := ls["exec.morsels"], ls["exec.steals"], ls["exec.straggler_ratio"]
	_, err = joinStages(tr, local, ls, plan, parts, total, s, t, band, r.rc.coord.Workers())
	tr.end(local)
	// The morsel counters of this workload are the workers', not the
	// standalone join's.
	ls["exec.morsels"], ls["exec.steals"], ls["exec.straggler_ratio"] = morsels, steals, straggler
	return ls, err
}

func (r *coldClusterReplay) close() { r.rc.close() }

// --- plan-sweep-pareto8d ----------------------------------------------------

// planSweepReplay holds the input sample the engine would have cached: the
// sweep's queries all hit the sample tier, so the draw is paid once.
type planSweepReplay struct {
	in    *sample.InputSample
	drawS float64
}

func replayPlanSweep(in inputs) (replayer, error) {
	start := time.Now()
	is, err := sample.DrawInputs(in.s, in.t, samplingFor(planSweepOptions(false)))
	if err != nil {
		return nil, err
	}
	return &planSweepReplay{in: is, drawS: time.Since(start).Seconds()}, nil
}

func (r *planSweepReplay) step(tr *tracer, s, t *bandjoin.Relation, band bandjoin.Band) (layerSample, error) {
	ls := layerSample{"sample.draw_s": r.drawS}
	opts := planSweepOptions(false)
	root := tr.begin("replay", -1)
	defer tr.end(root)
	plan, pctx, err := planStages(tr, root, ls, r.in, s, t, band, samplingFor(opts), core.NewDefault(), opts.Workers)
	if err != nil {
		return nil, err
	}
	// The engine estimates twice per estimate-only query: once to record the
	// plan's predicted overhead, once for the answer.
	ls["exec.estimate_s"] = tr.timed("exec.estimate", root, func() {
		exec.EstimatePlan(plan, pctx)
		exec.EstimatePlan(plan, pctx)
	})
	ls[stagedKey] += ls["exec.estimate_s"]
	return ls, nil
}

func (r *planSweepReplay) close() {}

// --- serve-append-skew2d ----------------------------------------------------

// serveAppendReplay owns a retained plan on a cluster of its own, primed like
// the engine primes its plan at set-up, and replays append-then-query against
// it: merge the delta into the sample, absorb it into the sealed plan, join
// warm.
type serveAppendReplay struct {
	rc      *replayCluster
	in      *sample.InputSample
	plan    partition.Plan
	pctx    *partition.Context
	covered int // rows of S the retained plan has absorbed
	primeLS layerSample
}

const replayPlanID = "benchmark-replay"

func replayServeAppend(in inputs) (replayer, error) {
	rc, err := startReplayCluster()
	if err != nil {
		return nil, err
	}
	r := &serveAppendReplay{rc: rc, covered: in.s.Len(), primeLS: layerSample{}}
	opts := serveAppendOptions(false)
	// Priming is set-up, not part of an op: its spans go to a tracer of its
	// own and only its layer numbers are kept.
	tr := newTracer()
	root := tr.begin("prime", -1)
	r.in, err = sample.DrawInputs(in.s, in.t, samplingFor(opts))
	if err == nil {
		r.plan, r.pctx, err = planStages(tr, root, r.primeLS, r.in, in.s, in.t, serveAppendBand, samplingFor(opts), core.NewDefault(), rc.coord.Workers())
	}
	if err == nil {
		r.primeLS["cluster.ship_s"] = tr.timed("cluster.ship", root, func() {
			err = rc.coord.ShipPlan(context.Background(), r.plan, r.pctx, in.s, in.t, serveAppendBand, r.clusterOptions())
		})
	}
	if err != nil {
		rc.close()
		return nil, err
	}
	return r, nil
}

func (r *serveAppendReplay) clusterOptions() cluster.Options {
	return cluster.Options{Model: costmodel.Default(), Sampling: samplingFor(serveAppendOptions(false)), Seed: benchSeed, PlanID: replayPlanID}
}

func (r *serveAppendReplay) step(tr *tracer, s, t *bandjoin.Relation, band bandjoin.Band) (layerSample, error) {
	ls := layerSample{"cluster.ship_s": r.primeLS["cluster.ship_s"], "core.partitions": r.primeLS["core.partitions"]}
	delta := s.Slice("s", r.covered, s.Len())
	root := tr.begin("replay", -1)
	defer tr.end(root)
	var err error
	ls["sample.merge_s"] = tr.timed("sample.merge", root, func() { r.in, err = r.in.Merge(delta, nil) })
	if err != nil {
		return nil, err
	}
	ls["sample.rows"] = float64(r.in.S.Len() + r.in.T.Len())
	ls["cluster.absorb_s"] = tr.timed("cluster.absorb", root, func() {
		err = r.rc.coord.AbsorbPlan(context.Background(), r.plan, r.pctx, s, t, r.clusterOptions())
	})
	if err != nil {
		return nil, err
	}
	res, err := r.rc.runPlan(tr, root, ls, r.plan, r.pctx, s, t, band, r.clusterOptions())
	if err != nil {
		return nil, err
	}
	if !res.WarmPartitions {
		return nil, fmt.Errorf("replayed query reshipped its retained plan")
	}
	ls[stagedKey] = ls["sample.merge_s"] + ls["cluster.absorb_s"] + ls["cluster.run_s"]
	// Worker busy time (summed over partitions, so it can exceed the wall
	// time of the join): lazy re-prepare of the partitions the delta touched,
	// and probing.
	ls["localjoin.prepare_s"] = ls["cluster.worker_rebuild_s"]
	ls["localjoin.probe_s"] = ls["worker.join_busy_s"]
	if ls["localjoin.probe_s"] > 0 {
		ls["localjoin.pairs_per_s"] = float64(res.Output) / ls["localjoin.probe_s"]
	}

	// Beside the operation: routing and wire coding of the delta alone.
	var parts []*exec.PartitionInput
	var total int64
	id := tr.begin("exec.delta_shuffle", root)
	tr.markStandalone(id)
	empty := bandjoin.NewRelation("t", t.Dims())
	parts, total, err = exec.ShuffleDelta(context.Background(), r.plan, delta, empty, r.covered, t.Len(), 0)
	ls["exec.delta_shuffle_s"] = tr.end(id)
	if err != nil {
		return nil, err
	}
	ls["exec.dup_tuples"] = float64(total - int64(delta.Len()))
	r.covered = s.Len()
	return ls, wireStage(tr, root, ls, parts)
}

func (r *serveAppendReplay) close() { r.rc.close() }
