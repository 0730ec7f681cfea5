// Command bandjoin runs a distributed band-join between two CSV relations,
// either on the in-process cluster simulator or across RPC workers started
// with cmd/recpartd.
//
// Usage:
//
//	bandjoin -s s.csv -t t.csv -eps 0.5,0.5,10 -workers 8
//	bandjoin -s s.csv -t t.csv -eps 2 -partitioner csio -workers 16
//	bandjoin -s s.csv -t t.csv -eps 1,1 -cluster host1:7070,host2:7070
//	bandjoin -s s.csv -eps 1,1 -cluster host1:7070,host2:7070 -repeat 5
//
// The tool prints the paper's evaluation metrics: total input including
// duplicates (I), the input and output of the most loaded worker (Im, Om),
// the lower bounds, and the relative overheads.
//
// With -repeat N > 1 the query is served N times through a bandjoin.Engine:
// the first query is cold (sample + optimize + shuffle + join) and later
// queries are answered from the engine's caches — on a -cluster run the
// repeats join worker-resident retained partitions and move zero shuffle
// bytes. Per-query wall time and shuffle traffic are printed, demonstrating
// the serving model. -no-retain disables partition retention (repeats still
// reuse the cached sample and plan but reshuffle). -append-frac f holds back
// the trailing f fraction of each relation at registration and streams it in
// through Engine.Append between the repeated queries, demonstrating
// incremental ingestion: each repeat absorbs a delta into the retained
// partitions instead of reshuffling, and the per-append absorption cost is
// printed alongside the per-query timings.
//
// Observability:
//
//	-trace         dumps each query's structured trace (stage spans,
//	               cache-tier outcomes, bytes moved, fault events) as JSON to
//	               stderr
//	-stats         prints the cluster-wide worker counters (Stats RPC) after
//	               the run (-cluster only)
//	-metrics-addr  serves the engine's (and coordinator's) /metrics,
//	               /debug/vars, and /debug/pprof over HTTP while running
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bandjoin"
	"bandjoin/internal/obs"
)

func main() {
	var (
		sPath       = flag.String("s", "", "CSV file of relation S")
		tPath       = flag.String("t", "", "CSV file of relation T (default: same as -s, a self-join)")
		epsFlag     = flag.String("eps", "", "comma-separated band widths, one per join attribute")
		partitioner = flag.String("partitioner", "recpart", "recpart | recpart-s | 1-bucket | grid | grid-star | csio | iejoin")
		workers     = flag.Int("workers", 8, "number of simulated workers (ignored with -cluster)")
		clusterAddr = flag.String("cluster", "", "comma-separated recpartd worker addresses for a real distributed run")
		seed        = flag.Int64("seed", 1, "random seed")
		verbose     = flag.Bool("v", false, "print per-worker load distribution")

		clusterMinWorkers  = flag.Int("cluster-min-workers", 0, "start the coordinator as long as this many workers are reachable; the rest join via the heartbeat (default: all must be reachable)")
		clusterCallTimeout = flag.Duration("cluster-call-timeout", 0, "per-attempt deadline of control-plane RPCs and of each shipment frame (default 15s, negative disables)")
		clusterJoinTimeout = flag.Duration("cluster-join-timeout", 0, "per-attempt deadline of joins: Join RPCs and the replies of shipments joined at their end (default 2m, negative disables)")
		clusterRetries     = flag.Int("cluster-retries", 0, "transport-error retries per idempotent RPC before failover (default 3, negative disables)")

		repeat     = flag.Int("repeat", 1, "serve the query this many times through an engine; repeats are answered from cached samples, plans, and retained partitions")
		noRetain   = flag.Bool("no-retain", false, "with -repeat: disable partition retention (repeats reuse the plan but reshuffle)")
		appendFrac = flag.Float64("append-frac", 0, "with -repeat: serve append-driven — register only the first 1-f fraction of each relation and stream the held-back rows in via Engine.Append between queries")

		trace       = flag.Bool("trace", false, "dump each query's structured trace as JSON to stderr")
		stats       = flag.Bool("stats", false, "print the cluster-wide worker stats after the run (requires -cluster)")
		metricsAddr = flag.String("metrics-addr", "", "HTTP address serving /metrics, /debug/vars, and /debug/pprof while the tool runs (empty disables)")
	)
	flag.Parse()

	if *sPath == "" || *epsFlag == "" {
		fmt.Fprintln(os.Stderr, "usage: bandjoin -s S.csv [-t T.csv] -eps e1,e2,... [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	s, err := readRelation("S", *sPath)
	if err != nil {
		fatal(err)
	}
	t := s
	if *tPath != "" && *tPath != *sPath {
		t, err = readRelation("T", *tPath)
		if err != nil {
			fatal(err)
		}
	}

	eps, err := parseEps(*epsFlag)
	if err != nil {
		fatal(err)
	}
	band := bandjoin.Symmetric(eps...)

	pt, err := pickPartitioner(*partitioner, *seed)
	if err != nil {
		fatal(err)
	}
	opts := bandjoin.Options{
		Workers:     *workers,
		Partitioner: pt,
		Seed:        *seed,
	}

	if *repeat < 1 {
		fatal(fmt.Errorf("-repeat must be >= 1, got %d", *repeat))
	}
	if *appendFrac < 0 || *appendFrac >= 1 {
		fatal(fmt.Errorf("-append-frac must be in [0, 1), got %g", *appendFrac))
	}
	if *appendFrac > 0 && *repeat < 2 {
		fatal(fmt.Errorf("-append-frac needs -repeat >= 2 (appends land between queries)"))
	}

	var cl *bandjoin.Cluster
	if *clusterAddr != "" {
		cl, err = bandjoin.ConnectClusterConfig(strings.Split(*clusterAddr, ","), bandjoin.ClusterConfig{
			MinWorkers:  *clusterMinWorkers,
			CallTimeout: *clusterCallTimeout,
			JoinTimeout: *clusterJoinTimeout,
			MaxRetries:  *clusterRetries,
			Seed:        *seed,
		})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
	}

	// Every run is served through one Engine (single queries included — they
	// disable retention, matching the throwaway-engine behavior of
	// bandjoin.Join), so the engine's metrics registry and per-query traces
	// exist on every path.
	eopts := bandjoin.EngineOptions{DisableRetention: *noRetain || *repeat == 1}
	var engine *bandjoin.Engine
	if cl != nil {
		engine = cl.NewEngine(eopts)
	} else {
		engine = bandjoin.NewEngine(eopts)
	}
	defer engine.Close()

	if *metricsAddr != "" {
		regs := []*obs.Registry{engine.Metrics()}
		if cl != nil {
			regs = append(regs, cl.Metrics())
		}
		addr, stop, err := obs.Serve(*metricsAddr, regs...)
		if err != nil {
			fatal(fmt.Errorf("metrics listener on %s: %w", *metricsAddr, err))
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "bandjoin: metrics on http://%s/metrics\n", addr)
	}

	start := time.Now()
	res, err := serveQueries(engine, cl != nil, s, t, band, opts, *repeat, *appendFrac, *trace)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("partitioner        %s\n", res.Partitioner)
	fmt.Printf("workers            %d\n", res.Workers)
	fmt.Printf("partitions         %d\n", res.Partitions)
	fmt.Printf("input |S|+|T|      %d\n", res.InputS+res.InputT)
	fmt.Printf("total input I      %d  (duplication overhead %.2f%%)\n", res.TotalInput, 100*res.DupOverhead)
	fmt.Printf("output             %d\n", res.Output)
	fmt.Printf("max worker Im/Om   %d / %d  (load overhead %.2f%% over the Lemma 1 bound)\n", res.Im, res.Om, 100*res.LoadOverhead)
	fmt.Printf("optimization time  %v\n", res.OptimizationTime.Round(time.Millisecond))
	fmt.Printf("shuffle time       %v\n", res.ShuffleTime.Round(time.Millisecond))
	if res.ShuffleRPCs > 0 {
		fmt.Printf("shuffle wire       %d chunks, %.1f MB\n", res.ShuffleRPCs, float64(res.ShuffleBytes)/(1<<20))
	}
	fmt.Printf("join makespan      %v\n", res.Makespan.Round(time.Millisecond))
	fmt.Printf("wall time          %v\n", elapsed.Round(time.Millisecond))
	if res.Degraded || res.Retries > 0 {
		fmt.Printf("fault tolerance    degraded=%v lost_workers=%d retries=%d\n", res.Degraded, res.LostWorkers, res.Retries)
	}
	if *verbose {
		fmt.Println("per-worker input / output:")
		for w := range res.WorkerInput {
			fmt.Printf("  worker %2d: %10d / %10d\n", w, res.WorkerInput[w], res.WorkerOutput[w])
		}
	}
	if *stats {
		if cl == nil {
			fmt.Fprintln(os.Stderr, "bandjoin: -stats requires -cluster; skipping")
		} else {
			fmt.Print(cl.Stats(context.Background()).String())
		}
	}
}

// serveQueries runs the query n times through the engine, printing per-query
// wall time and shuffle traffic when n > 1, and returns the last result. The
// first query is cold; repeats are served from the engine's caches. With
// appendFrac > 0 the engine is registered with only the leading 1-f fraction
// of each relation and the held-back suffix streams in through Engine.Append
// between queries, so the repeats demonstrate delta absorption instead of pure
// cache hits. With trace set, each query's structured trace is dumped as JSON
// to stderr.
func serveQueries(engine *bandjoin.Engine, onCluster bool, s, t *bandjoin.Relation, band bandjoin.Band, opts bandjoin.Options, n int, appendFrac float64, trace bool) (*bandjoin.Result, error) {
	baseS, baseT := s, t
	var deltaS, deltaT *bandjoin.Relation
	if appendFrac > 0 {
		cutS := int(float64(s.Len()) * (1 - appendFrac))
		cutT := int(float64(t.Len()) * (1 - appendFrac))
		baseS = s.Slice(s.Name(), 0, cutS)
		baseT = t.Slice(t.Name(), 0, cutT)
		deltaS = s.Slice(s.Name(), cutS, s.Len())
		deltaT = t.Slice(t.Name(), cutT, t.Len())
	}
	if err := engine.Register("s", baseS); err != nil {
		return nil, err
	}
	if err := engine.Register("t", baseT); err != nil {
		return nil, err
	}
	ctx := context.Background()
	var res *bandjoin.Result
	var coldWall time.Duration
	for q := 0; q < n; q++ {
		if q > 0 && appendFrac > 0 {
			if err := appendBatch(ctx, engine, deltaS, deltaT, q-1, n-1); err != nil {
				return nil, err
			}
		}
		qStart := time.Now()
		var err error
		res, err = engine.Join(ctx, "s", "t", band, opts)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", q+1, err)
		}
		wall := time.Since(qStart)
		if trace && res.Trace != nil {
			if js, jerr := res.Trace.JSON(); jerr == nil {
				fmt.Fprintf(os.Stderr, "%s\n", js)
			}
		}
		if n == 1 {
			break
		}
		tier := "warm"
		if q == 0 {
			tier, coldWall = "cold", wall
		}
		line := fmt.Sprintf("query %2d (%s): wall %v  opt %v  shuffle %v",
			q+1, tier, wall.Round(time.Millisecond), res.OptimizationTime.Round(time.Millisecond),
			res.ShuffleTime.Round(time.Millisecond))
		if onCluster {
			line += fmt.Sprintf("  wire %d chunks / %.1f MB", res.ShuffleRPCs, float64(res.ShuffleBytes)/(1<<20))
		}
		if q > 0 && wall > 0 {
			line += fmt.Sprintf("  speedup %.2fx", float64(coldWall)/float64(wall))
		}
		fmt.Println(line)
	}
	return res, nil
}

// appendBatch streams batch i (of batches) of the held-back deltas into the
// engine's "s" and "t" datasets and prints the append cost.
func appendBatch(ctx context.Context, engine *bandjoin.Engine, deltaS, deltaT *bandjoin.Relation, i, batches int) error {
	slice := func(r *bandjoin.Relation) *bandjoin.Relation {
		per := (r.Len() + batches - 1) / batches
		lo := i * per
		hi := lo + per
		if hi > r.Len() {
			hi = r.Len()
		}
		if lo >= hi {
			return nil
		}
		return r.Slice(r.Name(), lo, hi)
	}
	bS, bT := slice(deltaS), slice(deltaT)
	aStart := time.Now()
	if bS != nil {
		if err := engine.Append(ctx, "s", bS); err != nil {
			return fmt.Errorf("appending to s: %w", err)
		}
	}
	if bT != nil {
		if err := engine.Append(ctx, "t", bT); err != nil {
			return fmt.Errorf("appending to t: %w", err)
		}
	}
	rows := 0
	if bS != nil {
		rows += bS.Len()
	}
	if bT != nil {
		rows += bT.Len()
	}
	fmt.Printf("append %2d: +%d rows absorbed in %v\n", i+1, rows, time.Since(aStart).Round(time.Millisecond))
	return nil
}

func readRelation(name, path string) (*bandjoin.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	defer f.Close()
	return bandjoin.ReadCSV(name, f)
}

func parseEps(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing band width %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func pickPartitioner(name string, seed int64) (bandjoin.Partitioner, error) {
	switch strings.ToLower(name) {
	case "recpart":
		return bandjoin.RecPartWith(bandjoin.RecPartOptions{Symmetric: true, Seed: seed}), nil
	case "recpart-s":
		return bandjoin.RecPartWith(bandjoin.RecPartOptions{Seed: seed}), nil
	case "1-bucket", "onebucket":
		return bandjoin.OneBucket(), nil
	case "grid", "grid-eps":
		return bandjoin.GridEps(), nil
	case "grid-star", "grid*":
		return bandjoin.GridStar(), nil
	case "csio":
		return bandjoin.CSIO(), nil
	case "iejoin":
		return bandjoin.IEJoin(), nil
	default:
		return nil, fmt.Errorf("unknown partitioner %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bandjoin:", err)
	os.Exit(1)
}
