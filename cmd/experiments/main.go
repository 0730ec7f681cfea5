// Command experiments regenerates the paper's evaluation tables and figures,
// and runs the legacy serving benchmarks.
//
// Usage:
//
//	experiments -list
//	experiments -table 2b
//	experiments -table all -workers 30 -tuples 40000 -csv results.csv
//	experiments -append BENCH_append.json -append-tuples 500000 -append-delta 0.10
//
// Each table identifier corresponds to one paper artifact (see DESIGN.md for
// the full index). Output is an aligned text table; -csv additionally exports
// the raw per-method measurements. -engine, -append, -scaling and -skew run
// the serving-tier, incremental-ingestion, GOMAXPROCS-sweep and point-mass
// benchmarks and write their JSON reports to the given paths; they stay until
// the repository's benchmark (BENCHMARK.json) has their shapes as workloads.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"bandjoin/internal/bench"
)

// parseProcsList parses a comma-separated GOMAXPROCS list ("" → nil).
func parseProcsList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var procs []int
	for _, field := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("invalid procs value %q in %q", field, s)
		}
		procs = append(procs, p)
	}
	return procs, nil
}

func main() {
	var (
		table   = flag.String("table", "", "experiment id to run (e.g. 2a, 3, fig4) or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		workers = flag.Int("workers", 0, "number of simulated workers (default 30)")
		tuples  = flag.Int("tuples", 0, "per-relation input size of the baseline configuration (default 40000)")
		sample  = flag.Int("sample", 0, "optimization-phase input sample size (default 6000)")
		seed    = flag.Int64("seed", 1, "random seed")
		csvPath = flag.String("csv", "", "also export raw measurements to this CSV file")
		quick   = flag.Bool("quick", false, "use a very small configuration (smoke test)")

		enginePath    = flag.String("engine", "", "run the engine-throughput benchmark (cold vs warm-plan vs warm-partitions on the cluster plane) and write the JSON report to this path")
		engineTuples  = flag.Int("engine-tuples", 0, "per-relation input size of the engine benchmark (default 500000)")
		engineWorkers = flag.Int("engine-workers", 0, "number of in-process RPC workers of the engine benchmark (default 2)")
		engineDims    = flag.Int("engine-dims", 0, "number of join attributes of the engine benchmark (default 8)")
		engineEps     = flag.Float64("engine-eps", 0, "symmetric band width of the engine benchmark (default 0.003)")
		engineRounds  = flag.Int("engine-rounds", 0, "rounds per serving tier, fastest kept (default 3)")

		appendPath    = flag.String("append", "", "run the incremental-ingestion benchmark (Engine.Append vs full rebuild, sustained-append query latency, drift re-partition cost) and write the JSON report to this path")
		appendTuples  = flag.Int("append-tuples", 0, "per-relation base size of the append benchmark (default 500000)")
		appendWorkers = flag.Int("append-workers", 0, "number of in-process RPC workers of the append benchmark (default 2)")
		appendDims    = flag.Int("append-dims", 0, "number of join attributes of the append benchmark (default 8)")
		appendEps     = flag.Float64("append-eps", 0, "symmetric band width of the append benchmark (default 0.003)")
		appendDelta   = flag.Float64("append-delta", 0, "appended delta as a fraction of the base (default 0.10)")
		appendBatches = flag.Int("append-batches", 0, "batches the delta is streamed in during the sustained phase (default 5)")
		appendRounds  = flag.Int("append-rounds", 0, "rounds per one-shot phase, fastest kept (default 3)")

		scalingPath    = flag.String("scaling", "", "run the GOMAXPROCS scaling sweep (shuffle, join, planner, engine tiers) and write the JSON report to this path")
		scalingTuples  = flag.Int("scaling-tuples", 0, "per-relation input size of the scaling sweep (default 250000)")
		scalingDims    = flag.Int("scaling-dims", 0, "number of join attributes of the scaling sweep (default 4)")
		scalingWorkers = flag.Int("scaling-workers", 0, "simulated worker count of the scaling sweep (default 8)")
		scalingRounds  = flag.Int("scaling-rounds", 0, "rounds per tier and procs value, fastest kept (default 3)")
		scalingProcs   = flag.String("scaling-procs", "", "GOMAXPROCS sweep: a single value caps the doubling sweep (default NumCPU); a comma list like 1,2,4,8 forces those exact values, even above NumCPU")

		skewPath    = flag.String("skew", "", "run the skewed-workload benchmark (morsel-driven vs per-partition reduce phase on a point-mass workload) and write the JSON report to this path")
		skewTuples  = flag.Int("skew-tuples", 0, "per-relation input size of the skew benchmark (default 150000)")
		skewMass    = flag.Float64("skew-mass", 0, "fraction of S concentrated on a single point (default 0.5)")
		skewWorkers = flag.Int("skew-workers", 0, "simulated worker count of the skew benchmark (default 8)")
		skewRounds  = flag.Int("skew-rounds", 0, "rounds per path and procs value, fastest kept (default 3)")
		skewMorsel  = flag.Int("skew-morsel-rows", 0, "morsel grain of the morsel path (default 0 = auto)")
		skewProcs   = flag.String("skew-procs", "", "comma-separated GOMAXPROCS list to measure at (default: current setting)")
	)
	flag.Parse()

	if *enginePath != "" {
		cfg := bench.DefaultEngineConfig()
		if *engineTuples > 0 {
			cfg.Tuples = *engineTuples
		}
		if *engineWorkers > 0 {
			cfg.Workers = *engineWorkers
		}
		if *engineDims > 0 {
			cfg.Dims = *engineDims
		}
		if *engineEps > 0 {
			cfg.Eps = *engineEps
		}
		if *engineRounds > 0 {
			cfg.Rounds = *engineRounds
		}
		cfg.Seed = *seed
		f, err := os.Create(*enginePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *enginePath, err)
			os.Exit(1)
		}
		defer f.Close()
		fmt.Printf("engine benchmark: %d x %d tuples, %dD, band %g, %d in-process workers...\n",
			cfg.Tuples, cfg.Tuples, cfg.Dims, cfg.Eps, cfg.Workers)
		rep, err := bench.RunEngine(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "engine benchmark failed: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteEngineJSON(f, rep); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *enginePath, err)
			os.Exit(1)
		}
		fmt.Printf("cold %.2fs/query (opt %.2fs + shuffle %.2fs + join %.2fs)\n",
			rep.Cold.WallSeconds, rep.Cold.OptimizationSeconds, rep.Cold.ShuffleSeconds, rep.Cold.JoinSeconds)
		fmt.Printf("warm-plan %.2fs/query (shuffle %.2fs), warm-partitions %.2fs/query (shuffle bytes %d)\n",
			rep.WarmPlan.WallSeconds, rep.WarmPlan.ShuffleSeconds, rep.WarmPartitions.WallSeconds, rep.WarmPartitions.ShuffleBytes)
		fmt.Printf("speedups: warm-plan %.2fx, warm-partitions %.2fx; pairs checked %d identical=%v; report written to %s\n",
			rep.SpeedupWarmPlan, rep.SpeedupWarmPartitions, rep.PairsChecked, rep.PairsIdentical, *enginePath)
		return
	}

	if *appendPath != "" {
		cfg := bench.DefaultAppendConfig()
		if *appendTuples > 0 {
			cfg.Tuples = *appendTuples
		}
		if *appendWorkers > 0 {
			cfg.Workers = *appendWorkers
		}
		if *appendDims > 0 {
			cfg.Dims = *appendDims
		}
		if *appendEps > 0 {
			cfg.Eps = *appendEps
		}
		if *appendDelta > 0 {
			cfg.DeltaFraction = *appendDelta
		}
		if *appendBatches > 0 {
			cfg.Batches = *appendBatches
		}
		if *appendRounds > 0 {
			cfg.Rounds = *appendRounds
		}
		cfg.Seed = *seed
		f, err := os.Create(*appendPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *appendPath, err)
			os.Exit(1)
		}
		defer f.Close()
		fmt.Printf("append benchmark: %d + %.0f%% tuples per relation, %dD, band %g, %d in-process workers...\n",
			cfg.Tuples, 100*cfg.DeltaFraction, cfg.Dims, cfg.Eps, cfg.Workers)
		rep, err := bench.RunAppend(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "append benchmark failed: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteAppendJSON(f, rep); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *appendPath, err)
			os.Exit(1)
		}
		fmt.Printf("full rebuild %.2fs; append %.2fs (%.0f tuples/s) + warm join %.2fs (shuffle bytes %d) = %.2fx speedup\n",
			rep.RebuildSeconds, rep.AppendSeconds, rep.AppendTuplesPerSec, rep.WarmJoinSeconds,
			rep.WarmShuffleBytes, rep.SpeedupVsRebuild)
		fmt.Printf("sustained appends: %d warm queries, mean %.3fs / median %.3fs / max %.3fs\n",
			rep.Sustained.Queries, rep.Sustained.MeanSeconds, rep.Sustained.MedianSeconds, rep.Sustained.MaxSeconds)
		fmt.Printf("drift re-partition %.2fs in background (%d queries served during swap); pairs checked %d identical=%v; report written to %s\n",
			rep.RepartitionSeconds, rep.ServedDuringRepartition, rep.PairsChecked, rep.PairsIdentical, *appendPath)
		return
	}

	if *scalingPath != "" {
		cfg := bench.DefaultScalingConfig()
		if *scalingTuples > 0 {
			cfg.Tuples = *scalingTuples
		}
		if *scalingDims > 0 {
			cfg.Dims = *scalingDims
		}
		if *scalingWorkers > 0 {
			cfg.Workers = *scalingWorkers
		}
		if *scalingRounds > 0 {
			cfg.Rounds = *scalingRounds
		}
		procs, err := parseProcsList(*scalingProcs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-scaling-procs: %v\n", err)
			os.Exit(2)
		}
		switch {
		case len(procs) == 1:
			cfg.MaxProcs = procs[0] // back-compat: a single value caps the doubling sweep
		case len(procs) > 1:
			cfg.Procs = procs
		}
		cfg.Seed = *seed
		f, err := os.Create(*scalingPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *scalingPath, err)
			os.Exit(1)
		}
		defer f.Close()
		if len(cfg.Procs) > 0 {
			fmt.Printf("scaling sweep: %d x %d tuples, %dD, band %g, procs %v (forced)...\n",
				cfg.Tuples, cfg.Tuples, cfg.Dims, cfg.Eps, cfg.Procs)
		} else {
			cap := cfg.MaxProcs
			if cap <= 0 {
				cap = runtime.NumCPU()
			}
			fmt.Printf("scaling sweep: %d x %d tuples, %dD, band %g, procs 1..%d...\n",
				cfg.Tuples, cfg.Tuples, cfg.Dims, cfg.Eps, cap)
		}
		rep, err := bench.RunScaling(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scaling sweep failed: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteScalingJSON(f, rep); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *scalingPath, err)
			os.Exit(1)
		}
		for _, tier := range rep.Tiers {
			fmt.Printf("%-8s", tier.Tier)
			for _, pt := range tier.Points {
				fmt.Printf("  p=%d %.3fs (%.2fx)", pt.Procs, pt.WallSeconds, pt.Speedup)
			}
			fmt.Println()
		}
		fmt.Printf("report written to %s\n", *scalingPath)
		return
	}

	if *skewPath != "" {
		cfg := bench.DefaultSkewConfig()
		if *skewTuples > 0 {
			cfg.Tuples = *skewTuples
		}
		if *skewMass > 0 {
			cfg.MassFraction = *skewMass
		}
		if *skewWorkers > 0 {
			cfg.Workers = *skewWorkers
		}
		if *skewRounds > 0 {
			cfg.Rounds = *skewRounds
		}
		cfg.MorselRows = *skewMorsel
		procs, err := parseProcsList(*skewProcs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-skew-procs: %v\n", err)
			os.Exit(2)
		}
		cfg.Procs = procs
		cfg.Seed = *seed
		f, err := os.Create(*skewPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *skewPath, err)
			os.Exit(1)
		}
		defer f.Close()
		fmt.Printf("skew benchmark: %d x %d tuples, %dD, band %g, %.0f%% point mass, w=%d...\n",
			cfg.Tuples, cfg.Tuples, cfg.Dims, cfg.Eps, 100*cfg.MassFraction, cfg.Workers)
		rep, err := bench.RunSkew(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skew benchmark failed: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteSkewJSON(f, rep); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *skewPath, err)
			os.Exit(1)
		}
		fmt.Printf("straggler ratio %.2f, %d output pairs, pairs identical=%v\n",
			rep.StragglerRatio, rep.Output, rep.PairsIdentical)
		for _, pt := range rep.Points {
			fmt.Printf("p=%d per-partition %.3fs, morsel %.3fs (%.2fx), %d morsels, %d steals\n",
				pt.Procs, pt.PerPartitionSeconds, pt.MorselSeconds, pt.Speedup, pt.Morsels, pt.Steals)
		}
		fmt.Printf("report written to %s\n", *skewPath)
		return
	}

	if *list || *table == "" {
		fmt.Println("Available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *table == "" && !*list {
			fmt.Println("\nrun with -table <id> or -table all")
		}
		return
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *tuples > 0 {
		cfg.BaseTuples = *tuples
	}
	if *sample > 0 {
		cfg.SampleSize = *sample
	}
	cfg.Seed = *seed

	var selected []bench.Experiment
	if *table == "all" {
		selected = bench.All()
	} else {
		e, ok := bench.ByID(*table)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *table)
			os.Exit(2)
		}
		selected = []bench.Experiment{e}
	}

	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *csvPath, err)
			os.Exit(1)
		}
		defer f.Close()
		csvFile = f
	}

	for _, e := range selected {
		tbl, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if err := bench.Render(os.Stdout, tbl); err != nil {
			fmt.Fprintf(os.Stderr, "rendering %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if csvFile != nil {
			if err := bench.WriteCSV(csvFile, tbl); err != nil {
				fmt.Fprintf(os.Stderr, "exporting %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
	}
}
