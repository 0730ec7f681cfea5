package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"bandjoin"
)

// benchSeed is the fixed Options.Seed of every query: sampling and plan
// decisions must not vary between runs of one input, so load_ratio and
// dup_ratio repeat exactly for a given --seed.
const benchSeed = 7

// clusterWorkers is the size of the loopback cluster of the two cluster
// workloads.
const clusterWorkers = 2

// gateN is |S| = |T| of the correctness gate's reduced-scale inputs: small
// enough for the quadratic nested loop, large enough that every workload's
// plan has several partitions. smokeN is the size of everything under
// -scale smoke.
const (
	gateN  = 16_000
	smokeN = 5_000
)

type inputs struct{ s, t *bandjoin.Relation }

// session is one started plane with both relations registered and the first
// query answered; op runs the workload's timed operation on it.
type session interface {
	op() (*bandjoin.Result, error)
	// state returns the data and band the most recent answer was computed
	// over, as the benchmark itself tracks them (never read back from the
	// program), so answers can be checked against the definition.
	state() (s, t *bandjoin.Relation, band bandjoin.Band)
	close()
}

// workload is one row of the benchmark: an input shape, a plane, and what
// "one operation" means on it.
type workload struct {
	name string
	// n is |S| = |T| at full scale, tuned so one op takes roughly half a
	// second on two cores (see README, "Sizing").
	n        int
	generate func(n int, seed int64) inputs
	// start performs one cold start: bring the plane up, register both
	// relations, answer the first query. With gate set the queries collect
	// their pairs (and really join, where the workload otherwise only plans).
	start func(in inputs, seed int64, gate bool) (session, *bandjoin.Result, error)
	// sameOutput says every op must report the first op's pair count;
	// growing says the count may only grow (appends) and is checked against a
	// from-scratch count at the end.
	sameOutput, growing bool
	// replay runs the workload's op stage by stage for the traced run.
	replay func(in inputs) (replayer, error)
}

var workloads = []*workload{
	{
		name:       "cold-inproc-pareto3d",
		n:          320_000,
		generate:   func(n int, seed int64) inputs { s, t := genPareto(3, n, seed); return inputs{s, t} },
		start:      startColdInproc,
		sameOutput: true,
		replay:     replayColdInproc,
	},
	{
		name:       "cold-cluster-ptf8d",
		n:          450_000,
		generate:   func(n int, seed int64) inputs { s, t := genSelfMatch(8, n, selfMatchEps, seed); return inputs{s, t} },
		start:      startColdCluster,
		sameOutput: true,
		replay:     replayColdCluster,
	},
	{
		name:     "plan-sweep-pareto8d",
		n:        500_000,
		generate: func(n int, seed int64) inputs { s, t := genPareto(8, n, seed); return inputs{s, t} },
		start:    startPlanSweep,
		replay:   replayPlanSweep,
	},
	{
		name:     "serve-append-skew2d",
		n:        600_000,
		generate: func(n int, seed int64) inputs { s, t := genSkew(2, n, seed); return inputs{s, t} },
		start:    startServeAppend,
		growing:  true,
		replay:   replayServeAppend,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- cold-inproc-pareto3d ---------------------------------------------------

var coldInprocBand = bandjoin.Uniform(3, 0.03)

// coldInprocOptions simulates the paper's 30-worker cluster. With few workers
// (8) RecPart stops anywhere between 12 and 32 partitions depending on the
// sample, and the join time follows the partition count (0.57 s at 12, 0.46 s
// at 32 on the same data size); at 30 workers it runs to 53–60 partitions on
// every seed.
func coldInprocOptions(gate bool) bandjoin.Options {
	return bandjoin.Options{Workers: 30, Seed: benchSeed, CollectPairs: gate}
}

type coldInprocSession struct {
	in   inputs
	gate bool
}

func startColdInproc(in inputs, _ int64, gate bool) (session, *bandjoin.Result, error) {
	se := &coldInprocSession{in: in, gate: gate}
	res, err := se.op()
	return se, res, err
}

func (se *coldInprocSession) op() (*bandjoin.Result, error) {
	return bandjoin.Join(se.in.s, se.in.t, coldInprocBand, coldInprocOptions(se.gate))
}

func (se *coldInprocSession) state() (*bandjoin.Relation, *bandjoin.Relation, bandjoin.Band) {
	return se.in.s, se.in.t, coldInprocBand
}

func (se *coldInprocSession) close() {}

// --- cold-cluster-ptf8d -----------------------------------------------------

const selfMatchEps = 0.003

var coldClusterBand = bandjoin.Uniform(8, selfMatchEps)

func coldClusterOptions(gate bool) bandjoin.Options {
	return bandjoin.Options{Partitioner: bandjoin.RecPartS(), Seed: benchSeed, CollectPairs: gate}
}

type coldClusterSession struct {
	in   inputs
	gate bool
	cl   *bandjoin.Cluster
}

func startColdCluster(in inputs, _ int64, gate bool) (session, *bandjoin.Result, error) {
	cl, err := bandjoin.StartLocalCluster(clusterWorkers)
	if err != nil {
		return nil, nil, err
	}
	se := &coldClusterSession{in: in, gate: gate, cl: cl}
	res, err := se.op()
	if err != nil {
		cl.Close()
		return nil, nil, err
	}
	return se, res, nil
}

func (se *coldClusterSession) op() (*bandjoin.Result, error) {
	return se.cl.Join(se.in.s, se.in.t, coldClusterBand, coldClusterOptions(se.gate))
}

func (se *coldClusterSession) state() (*bandjoin.Relation, *bandjoin.Relation, bandjoin.Band) {
	return se.in.s, se.in.t, coldClusterBand
}

func (se *coldClusterSession) close() { se.cl.Close() }

// --- plan-sweep-pareto8d ----------------------------------------------------

// Sample sizes of the planning workload, raised above the defaults (32k/4k)
// until one estimate-only query costs about half a second.
const (
	planSweepInputSample  = 32_000
	planSweepOutputSample = 4_000
)

// planSweepBand returns the k-th band of the sweep: widths in [0.16, 0.18)
// spread by the golden ratio, so no two queries of a run share a width and
// every one misses the plan cache while hitting the sample cache. The range
// is narrow because planning cost grows with the width (0.4 s at 0.1, 0.95 s
// at 0.3): a wide sweep would make the median depend on how many ops fit the
// window.
func planSweepBand(k int) bandjoin.Band {
	_, frac := math.Modf(float64(k) * 0.6180339887498949)
	return bandjoin.Uniform(8, 0.16+0.02*frac)
}

func planSweepOptions(gate bool) bandjoin.Options {
	return bandjoin.Options{
		Workers:          8,
		Seed:             benchSeed,
		InputSampleSize:  planSweepInputSample,
		OutputSampleSize: planSweepOutputSample,
		EstimateOnly:     !gate,
		CollectPairs:     gate,
	}
}

type planSweepSession struct {
	in   inputs
	gate bool
	e    *bandjoin.Engine
	next int // index of the next unused band
}

func startPlanSweep(in inputs, _ int64, gate bool) (session, *bandjoin.Result, error) {
	se := &planSweepSession{in: in, gate: gate, e: bandjoin.NewEngine(bandjoin.EngineOptions{})}
	if err := registerBoth(se.e, in); err != nil {
		se.e.Close()
		return nil, nil, err
	}
	res, err := se.op()
	if err != nil {
		se.e.Close()
		return nil, nil, err
	}
	return se, res, nil
}

func (se *planSweepSession) op() (*bandjoin.Result, error) {
	band := planSweepBand(se.next)
	se.next++
	return se.e.Join(context.Background(), "s", "t", band, planSweepOptions(se.gate))
}

func (se *planSweepSession) state() (*bandjoin.Relation, *bandjoin.Relation, bandjoin.Band) {
	return se.in.s, se.in.t, planSweepBand(se.next - 1)
}

func (se *planSweepSession) close() { se.e.Close() }

// --- serve-append-skew2d ----------------------------------------------------

var serveAppendBand = bandjoin.Uniform(2, 0.01)

// appendFraction is the size of one appended batch relative to |S|.
const appendFraction = 0.0025

func serveAppendOptions(gate bool) bandjoin.Options {
	return bandjoin.Options{Seed: benchSeed, CollectPairs: gate}
}

// appendBatch returns the k-th batch appended to S: rows of S's own skewed
// distribution, a pure function of (seed, k).
func appendBatch(baseRows int, seed int64, k int) *bandjoin.Relation {
	n := max(int(float64(baseRows)*appendFraction), 1)
	return skewRows("s", 2, n, rand.New(rand.NewSource(seed+1_000_003*int64(k+1))))
}

type serveAppendSession struct {
	in   inputs
	seed int64
	gate bool
	cl   *bandjoin.Cluster
	e    *bandjoin.Engine
	base int                // |S| before any append
	cur  *bandjoin.Relation // the benchmark's own copy of S as appended so far
	next int                // index of the next batch
	// pending is the batch the next op appends, generated ahead so that input
	// generation stays outside the timed operation.
	pending *bandjoin.Relation
	// appendS is how long the most recent op's Append took (two clock reads
	// that every run pays, traced or not).
	appendS float64
}

func (se *serveAppendSession) appendSeconds() float64 { return se.appendS }

func startServeAppend(in inputs, seed int64, gate bool) (session, *bandjoin.Result, error) {
	cl, err := bandjoin.StartLocalCluster(clusterWorkers)
	if err != nil {
		return nil, nil, err
	}
	se := &serveAppendSession{in: in, seed: seed, gate: gate, cl: cl, e: cl.NewEngine(bandjoin.EngineOptions{}),
		base: in.s.Len(), cur: in.s.Clone("s")}
	se.pending = appendBatch(se.base, seed, 0)
	// The engine extends the relation it was given, so it gets a lineage of
	// its own; the generated input stays untouched for the next cold start.
	err = registerBoth(se.e, inputs{in.s.Clone("s"), in.t})
	var res *bandjoin.Result
	if err == nil {
		res, err = se.e.Join(context.Background(), "s", "t", serveAppendBand, serveAppendOptions(gate))
	}
	if err != nil {
		se.close()
		return nil, nil, err
	}
	return se, res, nil
}

func (se *serveAppendSession) op() (*bandjoin.Result, error) {
	ctx := context.Background()
	batch := se.pending
	start := time.Now()
	if err := se.e.Append(ctx, "s", batch); err != nil {
		return nil, fmt.Errorf("append: %w", err)
	}
	se.appendS = time.Since(start).Seconds()
	res, err := se.e.Join(ctx, "s", "t", serveAppendBand, serveAppendOptions(se.gate))
	// Bookkeeping for the next op and for verification; cheap next to the op
	// (a 0.25% copy), and identical on every run.
	se.cur = se.cur.Extend(batch)
	se.next++
	se.pending = appendBatch(se.base, se.seed, se.next)
	return res, err
}

func (se *serveAppendSession) state() (*bandjoin.Relation, *bandjoin.Relation, bandjoin.Band) {
	return se.cur, se.in.t, serveAppendBand
}

func (se *serveAppendSession) close() {
	se.e.Close()
	se.cl.Close()
}

func registerBoth(e *bandjoin.Engine, in inputs) error {
	if err := e.Register("s", in.s); err != nil {
		return err
	}
	return e.Register("t", in.t)
}
