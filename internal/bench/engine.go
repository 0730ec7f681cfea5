package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"bandjoin"
	"bandjoin/internal/data"
)

// EngineConfig scales the engine-throughput benchmark: the same query served
// three ways on the RPC cluster plane — cold (one-shot path: sample +
// optimize + shuffle + join per query), warm-plan (cached sample and plan,
// reshuffled), and warm-partitions (cached everything; the shuffled
// partitions are retained on the workers and the query moves zero shuffle
// bytes).
type EngineConfig struct {
	// Tuples is the per-relation input size.
	Tuples int
	// Dims is the number of join attributes.
	Dims int
	// Eps is the symmetric per-dimension band width.
	Eps float64
	// Workers is the number of in-process RPC workers.
	Workers int
	// Rounds measures each tier this many times and keeps the fastest.
	Rounds int
	// Seed drives data generation and planning.
	Seed int64
}

// DefaultEngineConfig is an 8D near-duplicate self-match, shuffle-dominated:
// the shape of the benchmark's cold-cluster-ptf8d workload.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Tuples:  500_000,
		Dims:    8,
		Eps:     0.003,
		Workers: 2,
		Rounds:  3,
		Seed:    1,
	}
}

// EngineMeasurement is the timing of one serving tier.
type EngineMeasurement struct {
	// Tier is "cold", "warm_plan", or "warm_partitions".
	Tier string `json:"tier"`
	// WallSeconds is the fastest end-to-end query time over the rounds;
	// the phase columns belong to that round. Cold includes sampling and
	// optimization; the warm tiers serve both from the engine's caches.
	WallSeconds float64 `json:"wall_seconds"`
	// OptimizationSeconds is the query's actual planning cost: the cold tier
	// pays the partitioner's optimization, the warm tiers report the
	// (near-zero) plan-cache lookup — not the cached plan's stored cost.
	OptimizationSeconds float64 `json:"optimization_seconds"`
	ShuffleSeconds      float64 `json:"shuffle_seconds"`
	JoinSeconds         float64 `json:"join_seconds"`
	ShuffleBytes        int64   `json:"shuffle_bytes"`
	ShuffleRPCs         int64   `json:"shuffle_rpcs"`
	QueriesPerSec       float64 `json:"queries_per_sec"`
}

// EngineReport is the machine-readable benchmark artifact
// (BENCH_engine.json).
type EngineReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"gomaxprocs"`

	Tuples      int     `json:"tuples_per_relation"`
	Dims        int     `json:"dims"`
	Eps         float64 `json:"band_width"`
	Workers     int     `json:"workers"`
	Partitioner string  `json:"partitioner"`
	TotalInput  int64   `json:"total_input"`
	Output      int64   `json:"output_pairs"`

	Cold           EngineMeasurement `json:"cold"`
	WarmPlan       EngineMeasurement `json:"warm_plan"`
	WarmPartitions EngineMeasurement `json:"warm_partitions"`

	// Speedups are cold / warm wall-time ratios.
	SpeedupWarmPlan       float64 `json:"speedup_warm_plan"`
	SpeedupWarmPartitions float64 `json:"speedup_warm_partitions"`

	// PairsChecked is the number of result pairs compared bit-for-bit between
	// a cold one-shot run and a warm-partition engine run; PairsIdentical
	// records that they matched (the benchmark fails otherwise).
	PairsChecked   int  `json:"pairs_checked"`
	PairsIdentical bool `json:"pairs_identical"`
}

// engineWorkload generates the benchmark's near-duplicate self-match pair
// (each T tuple within the band of its S counterpart).
func engineWorkload(tuples, dims int, eps float64, seed int64) (*data.Relation, *data.Relation) {
	return selfMatchPair(tuples, dims, eps, seed, -1)
}

// quantizeKeys rounds every key of r to the given number of decimal places in
// place; negative decimals is a no-op.
func quantizeKeys(r *data.Relation, decimals int) {
	if decimals < 0 {
		return
	}
	scale := math.Pow(10, float64(decimals))
	keys := r.KeysRange(0, r.Len())
	for i, k := range keys {
		keys[i] = math.Round(k*scale) / scale
	}
}

// selfMatchPair generates the paper's PTF-style near-duplicate workload: S is
// Pareto-distributed and each T tuple is a jittered copy of its S counterpart
// within the band, guaranteeing an output of at least |S| pairs at any
// dimensionality. It is shared by the engine, append and scaling benchmarks.
// Non-negative decimals quantize both relations to that many decimal places; S
// is quantized before T is derived, so as long as 10^-decimals ≤ eps the
// jitter (≤ eps/2) plus T's own rounding error (≤ 10^-decimals/2) keeps every
// T tuple within the band of its S counterpart and the output floor of |S|
// pairs survives.
func selfMatchPair(tuples, dims int, eps float64, seed int64, decimals int) (*data.Relation, *data.Relation) {
	gen := data.NewPareto(dims, 1.5)
	s := gen.Generate("S", tuples, rand.New(rand.NewSource(seed)))
	quantizeKeys(s, decimals)
	rng := rand.New(rand.NewSource(seed + 1))
	t := data.NewRelationCapacity("T", dims, s.Len())
	key := make([]float64, dims)
	for i := 0; i < s.Len(); i++ {
		k := s.Key(i)
		for d := range key {
			key[d] = k[d] + (rng.Float64()-0.5)*eps
		}
		t.AppendKey(key)
	}
	quantizeKeys(t, decimals)
	return s, t
}

// ratio returns ref/opt, or 0 when opt is not positive.
func ratio(ref, opt float64) float64 {
	if opt <= 0 {
		return 0
	}
	return ref / opt
}

// RunEngine executes the engine-throughput benchmark over in-process RPC
// workers and returns the report.
func RunEngine(cfg EngineConfig) (*EngineReport, error) {
	if cfg.Tuples <= 0 || cfg.Dims <= 0 {
		return nil, fmt.Errorf("bench: invalid engine config %+v", cfg)
	}
	if cfg.Workers < 2 {
		cfg.Workers = 2
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	s, t := engineWorkload(cfg.Tuples, cfg.Dims, cfg.Eps, cfg.Seed)
	band := data.Uniform(cfg.Dims, cfg.Eps)
	opts := bandjoin.Options{
		Partitioner: bandjoin.RecPartS(),
		Seed:        cfg.Seed,
	}

	cl, err := bandjoin.StartLocalCluster(cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("bench: starting workers: %w", err)
	}
	defer cl.Close()
	ctx := context.Background()

	// --- Cold: the one-shot path, everything recomputed per query.
	cold, coldRes, err := measureEngine("cold", cfg.Rounds, func() (*bandjoin.Result, error) {
		return cl.Join(s, t, band, opts)
	})
	if err != nil {
		return nil, err
	}

	// --- Warm-plan: cached sample and plan, but no partition retention; each
	// query reshuffles.
	planEngine := cl.NewEngine(bandjoin.EngineOptions{DisableRetention: true})
	defer planEngine.Close()
	if err := registerPair(planEngine, s, t); err != nil {
		return nil, err
	}
	if _, err := planEngine.Join(ctx, "s", "t", band, opts); err != nil {
		return nil, fmt.Errorf("bench: priming warm-plan engine: %w", err)
	}
	warmPlan, _, err := measureEngine("warm_plan", cfg.Rounds, func() (*bandjoin.Result, error) {
		return planEngine.Join(ctx, "s", "t", band, opts)
	})
	if err != nil {
		return nil, err
	}

	// --- Warm-partitions: full cache stack; the repeat joins worker-resident
	// partitions with zero shuffle.
	partEngine := cl.NewEngine(bandjoin.EngineOptions{})
	defer partEngine.Close()
	if err := registerPair(partEngine, s, t); err != nil {
		return nil, err
	}
	if _, err := partEngine.Join(ctx, "s", "t", band, opts); err != nil {
		return nil, fmt.Errorf("bench: priming warm-partition engine: %w", err)
	}
	warmParts, warmRes, err := measureEngine("warm_partitions", cfg.Rounds, func() (*bandjoin.Result, error) {
		return partEngine.Join(ctx, "s", "t", band, opts)
	})
	if err != nil {
		return nil, err
	}
	if warmParts.ShuffleBytes != 0 || warmParts.ShuffleRPCs != 0 {
		return nil, fmt.Errorf("bench: warm-partition query shuffled (bytes=%d rpcs=%d), want zero",
			warmParts.ShuffleBytes, warmParts.ShuffleRPCs)
	}
	if warmRes.Output != coldRes.Output || warmRes.TotalInput != coldRes.TotalInput {
		return nil, fmt.Errorf("bench: tiers disagree: cold (I=%d out=%d) vs warm (I=%d out=%d)",
			coldRes.TotalInput, coldRes.Output, warmRes.TotalInput, warmRes.Output)
	}

	// --- Pair-level identity between the cold one-shot path and a cached
	// warm-partition run, on a subsample-sized rerun of the same workload so
	// pair collection stays tractable.
	checked, identical, err := enginePairCheck(cl, cfg)
	if err != nil {
		return nil, err
	}
	if !identical {
		return nil, fmt.Errorf("bench: warm-partition pairs differ from the cold one-shot pairs")
	}

	rep := &EngineReport{
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Tuples:         cfg.Tuples,
		Dims:           cfg.Dims,
		Eps:            cfg.Eps,
		Workers:        cfg.Workers,
		Partitioner:    coldRes.Partitioner,
		TotalInput:     coldRes.TotalInput,
		Output:         coldRes.Output,
		Cold:           cold,
		WarmPlan:       warmPlan,
		WarmPartitions: warmParts,
		PairsChecked:   checked,
		PairsIdentical: identical,
	}
	rep.SpeedupWarmPlan = ratio(cold.WallSeconds, warmPlan.WallSeconds)
	rep.SpeedupWarmPartitions = ratio(cold.WallSeconds, warmParts.WallSeconds)
	return rep, nil
}

func registerPair(e *bandjoin.Engine, s, t *data.Relation) error {
	if err := e.Register("s", s); err != nil {
		return fmt.Errorf("bench: registering s: %w", err)
	}
	if err := e.Register("t", t); err != nil {
		return fmt.Errorf("bench: registering t: %w", err)
	}
	return nil
}

// measureEngine runs the query rounds times and keeps the fastest round.
func measureEngine(tier string, rounds int, query func() (*bandjoin.Result, error)) (EngineMeasurement, *bandjoin.Result, error) {
	var best *bandjoin.Result
	var bestWall time.Duration
	for r := 0; r < rounds; r++ {
		// Level the heap across rounds and tiers.
		runtime.GC()
		start := time.Now()
		res, err := query()
		wall := time.Since(start)
		if err != nil {
			return EngineMeasurement{}, nil, fmt.Errorf("bench: %s query: %w", tier, err)
		}
		if best == nil || wall < bestWall {
			best, bestWall = res, wall
		}
	}
	m := EngineMeasurement{
		Tier:                tier,
		WallSeconds:         bestWall.Seconds(),
		OptimizationSeconds: best.OptimizationTime.Seconds(),
		ShuffleSeconds:      best.ShuffleTime.Seconds(),
		JoinSeconds:         best.JoinWallTime.Seconds(),
		ShuffleBytes:        best.ShuffleBytes,
		ShuffleRPCs:         best.ShuffleRPCs,
	}
	if m.WallSeconds > 0 {
		m.QueriesPerSec = 1 / m.WallSeconds
	}
	return m, best, nil
}

// enginePairCheck verifies cold one-shot and warm-partition engine runs agree
// pair for pair on a smaller instance of the same workload (pair collection
// over RPC is quadratic in memory on the full benchmark size).
func enginePairCheck(cl *bandjoin.Cluster, cfg EngineConfig) (int, bool, error) {
	tuples := cfg.Tuples / 10
	if tuples > 50_000 {
		tuples = 50_000
	}
	if tuples < 1_000 {
		tuples = cfg.Tuples
	}
	s, t := engineWorkload(tuples, cfg.Dims, cfg.Eps, cfg.Seed+100)
	band := data.Uniform(cfg.Dims, cfg.Eps)
	opts := bandjoin.Options{
		Partitioner:  bandjoin.RecPartS(),
		Seed:         cfg.Seed,
		CollectPairs: true,
	}
	coldRes, err := cl.Join(s, t, band, opts)
	if err != nil {
		return 0, false, fmt.Errorf("bench: pair-check cold run: %w", err)
	}
	e := cl.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := registerPair(e, s, t); err != nil {
		return 0, false, err
	}
	ctx := context.Background()
	if _, err := e.Join(ctx, "s", "t", band, opts); err != nil {
		return 0, false, fmt.Errorf("bench: pair-check priming run: %w", err)
	}
	warmRes, err := e.Join(ctx, "s", "t", band, opts)
	if err != nil {
		return 0, false, fmt.Errorf("bench: pair-check warm run: %w", err)
	}
	if warmRes.ShuffleBytes != 0 {
		return 0, false, fmt.Errorf("bench: pair-check warm run shuffled %d bytes", warmRes.ShuffleBytes)
	}
	if len(coldRes.Pairs) != len(warmRes.Pairs) {
		return len(coldRes.Pairs), false, nil
	}
	for i := range coldRes.Pairs {
		if coldRes.Pairs[i] != warmRes.Pairs[i] {
			return len(coldRes.Pairs), false, nil
		}
	}
	return len(coldRes.Pairs), true, nil
}

// WriteEngineJSON writes the report as indented JSON.
func WriteEngineJSON(w io.Writer, rep *EngineReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
