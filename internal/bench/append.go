package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"bandjoin"
	"bandjoin/internal/data"
)

// AppendConfig scales the incremental-ingestion benchmark: Engine.Append of a
// small delta versus a full Register + cold-join rebuild, and warm-query
// latency while appends are streaming in — both on the RPC cluster plane.
type AppendConfig struct {
	// Tuples is the per-relation base size; the delta rides on top of it.
	Tuples int
	// Dims is the number of join attributes.
	Dims int
	// Eps is the symmetric per-dimension band width.
	Eps float64
	// Workers is the number of in-process RPC workers.
	Workers int
	// ChunkSize is the number of tuples per Load RPC.
	ChunkSize int
	// Window is the streaming plane's per-worker in-flight RPC bound.
	Window int
	// DeltaFraction sizes the appended delta as a fraction of the base
	// (per relation). The acceptance scenario is 0.10: a ≤10% append must be
	// absorbed without any full-relation reshuffle.
	DeltaFraction float64
	// Batches splits the delta for the sustained-append phase, which measures
	// warm-query latency while appends stream in batch by batch.
	Batches int
	// Rounds measures the one-shot phases this many times, fastest kept.
	Rounds int
	// Seed drives data generation and planning.
	Seed int64
}

// DefaultAppendConfig rides the engine benchmark's acceptance workload (8D
// near-duplicate self-match) with a 10% delta, so the append numbers are
// directly comparable with the serving tiers in BENCH_engine.json.
func DefaultAppendConfig() AppendConfig {
	return AppendConfig{
		Tuples:        500_000,
		Dims:          8,
		Eps:           0.003,
		Workers:       2,
		ChunkSize:     4096,
		Window:        4,
		DeltaFraction: 0.10,
		Batches:       5,
		Rounds:        3,
		Seed:          1,
	}
}

// AppendLatency summarizes the warm-query latencies observed while appends
// were streaming in.
type AppendLatency struct {
	Queries       int     `json:"queries"`
	MeanSeconds   float64 `json:"mean_seconds"`
	MedianSeconds float64 `json:"median_seconds"`
	MaxSeconds    float64 `json:"max_seconds"`
}

// AppendReport is the machine-readable benchmark artifact (BENCH_append.json).
type AppendReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"gomaxprocs"`

	Tuples        int     `json:"tuples_per_relation"`
	DeltaTuples   int     `json:"delta_tuples_per_relation"`
	DeltaFraction float64 `json:"delta_fraction"`
	Dims          int     `json:"dims"`
	Eps           float64 `json:"band_width"`
	Workers       int     `json:"workers"`
	ChunkSize     int     `json:"chunk_size"`
	Window        int     `json:"window"`
	Partitioner   string  `json:"partitioner"`
	Output        int64   `json:"output_pairs"`

	// RebuildSeconds is the baseline: a fresh engine registering the full
	// (base + delta) relations and serving the cold query — sample, optimize,
	// full shuffle, join.
	RebuildSeconds float64 `json:"rebuild_seconds"`
	// AppendSeconds is Engine.Append of both relations' deltas (reservoir
	// merge + delta shuffle into the retained plans); WarmJoinSeconds is the
	// warm query served right after, which must move zero shuffle bytes.
	AppendSeconds       float64 `json:"append_seconds"`
	WarmJoinSeconds     float64 `json:"warm_join_seconds"`
	WarmShuffleBytes    int64   `json:"warm_shuffle_bytes"`
	StaleRebuildSeconds float64 `json:"stale_rebuild_seconds"`
	// AppendTuplesPerSec is both deltas' tuples over AppendSeconds.
	AppendTuplesPerSec float64 `json:"append_tuples_per_sec"`
	// SpeedupVsRebuild is RebuildSeconds / (AppendSeconds + WarmJoinSeconds):
	// how much cheaper absorbing the delta is than rebuilding from scratch.
	SpeedupVsRebuild float64 `json:"speedup_vs_rebuild"`

	// Sustained is the latency profile of warm queries racing batch appends.
	Sustained AppendLatency `json:"sustained_warm_queries"`

	// PairsChecked/PairsIdentical verify Register+Append+Join against a fresh
	// full Register+Join bit for bit on a subsample-sized instance.
	PairsChecked   int  `json:"pairs_checked"`
	PairsIdentical bool `json:"pairs_identical"`
}

// appendWorkload slices one self-match pair into base prefixes and delta
// suffixes so the delta follows the base distribution.
func appendWorkload(cfg AppendConfig) (baseS, baseT, deltaS, deltaT *data.Relation) {
	deltaN := int(float64(cfg.Tuples) * cfg.DeltaFraction)
	if deltaN < 1 {
		deltaN = 1
	}
	fullS, fullT := selfMatchPair(cfg.Tuples+deltaN, cfg.Dims, cfg.Eps, cfg.Seed, -1)
	return fullS.Slice("s", 0, cfg.Tuples), fullT.Slice("t", 0, cfg.Tuples),
		fullS.Slice("ds", cfg.Tuples, fullS.Len()), fullT.Slice("dt", cfg.Tuples, fullT.Len())
}

// RunAppend executes the incremental-ingestion benchmark over in-process RPC
// workers and returns the report.
func RunAppend(cfg AppendConfig) (*AppendReport, error) {
	if cfg.Tuples <= 0 || cfg.Dims <= 0 || cfg.DeltaFraction <= 0 {
		return nil, fmt.Errorf("bench: invalid append config %+v", cfg)
	}
	if cfg.Workers < 2 {
		cfg.Workers = 2
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 1
	}
	baseS, baseT, deltaS, deltaT := appendWorkload(cfg)
	band := data.Uniform(cfg.Dims, cfg.Eps)
	opts := bandjoin.Options{
		Partitioner:      bandjoin.RecPartS(),
		Seed:             cfg.Seed,
		ClusterChunkSize: cfg.ChunkSize,
		ClusterWindow:    cfg.Window,
	}

	cl, err := bandjoin.StartLocalCluster(cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("bench: starting workers: %w", err)
	}
	defer cl.Close()
	ctx := context.Background()

	rep := &AppendReport{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Tuples:        cfg.Tuples,
		DeltaTuples:   deltaS.Len(),
		DeltaFraction: cfg.DeltaFraction,
		Dims:          cfg.Dims,
		Eps:           cfg.Eps,
		Workers:       cfg.Workers,
		ChunkSize:     cfg.ChunkSize,
		Window:        cfg.Window,
	}

	// --- Baseline: register the full relations fresh and serve the cold
	// query; this is what an append avoids.
	fullS := baseS.Clone("s").Extend(deltaS)
	fullT := baseT.Clone("t").Extend(deltaT)
	for r := 0; r < cfg.Rounds; r++ {
		runtime.GC()
		e := cl.NewEngine(bandjoin.EngineOptions{})
		start := time.Now()
		if err := registerPair(e, fullS, fullT); err != nil {
			e.Close()
			return nil, err
		}
		res, err := e.Join(ctx, "s", "t", band, opts)
		wall := time.Since(start).Seconds()
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: rebuild baseline: %w", err)
		}
		if r == 0 || wall < rep.RebuildSeconds {
			rep.RebuildSeconds = wall
		}
		rep.Partitioner = res.Partitioner
		rep.Output = res.Output
	}

	// --- Append + warm join: a primed engine absorbs the delta and serves the
	// next query with zero full-relation reshuffle.
	for r := 0; r < cfg.Rounds; r++ {
		runtime.GC()
		e := cl.NewEngine(bandjoin.EngineOptions{})
		if err := registerPair(e, baseS, baseT); err != nil {
			e.Close()
			return nil, err
		}
		if _, err := e.Join(ctx, "s", "t", band, opts); err != nil {
			e.Close()
			return nil, fmt.Errorf("bench: priming append engine: %w", err)
		}
		start := time.Now()
		if err := e.Append(ctx, "s", deltaS); err != nil {
			e.Close()
			return nil, fmt.Errorf("bench: Append(s): %w", err)
		}
		if err := e.Append(ctx, "t", deltaT); err != nil {
			e.Close()
			return nil, fmt.Errorf("bench: Append(t): %w", err)
		}
		appendWall := time.Since(start).Seconds()
		start = time.Now()
		res, err := e.Join(ctx, "s", "t", band, opts)
		warmWall := time.Since(start).Seconds()
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: warm join after append: %w", err)
		}
		if res.ShuffleBytes != 0 {
			return nil, fmt.Errorf("bench: warm join after append shuffled %d bytes, want 0", res.ShuffleBytes)
		}
		if res.Output != rep.Output {
			return nil, fmt.Errorf("bench: appended output %d != rebuilt output %d", res.Output, rep.Output)
		}
		if r == 0 || appendWall+warmWall < rep.AppendSeconds+rep.WarmJoinSeconds {
			rep.AppendSeconds = appendWall
			rep.WarmJoinSeconds = warmWall
			rep.WarmShuffleBytes = res.ShuffleBytes
			rep.StaleRebuildSeconds = res.StaleRebuildTime.Seconds()
		}
	}
	if rep.AppendSeconds > 0 {
		rep.AppendTuplesPerSec = float64(deltaS.Len()+deltaT.Len()) / rep.AppendSeconds
	}
	rep.SpeedupVsRebuild = ratio(rep.RebuildSeconds, rep.AppendSeconds+rep.WarmJoinSeconds)

	// --- Sustained appends: warm queries racing batch appends.
	lat, err := runSustained(ctx, cl, cfg, baseS, baseT, deltaS, deltaT, band, opts)
	if err != nil {
		return nil, err
	}
	rep.Sustained = lat

	// --- Pair-level identity between append-then-join and a fresh rebuild, on
	// a subsample-sized instance (pair collection over RPC is quadratic).
	checked, identical, err := appendPairCheck(ctx, cl, cfg, band)
	if err != nil {
		return nil, err
	}
	rep.PairsChecked, rep.PairsIdentical = checked, identical
	if !identical {
		return nil, fmt.Errorf("bench: appended pairs differ from the fresh rebuild's")
	}
	return rep, nil
}

// runSustained streams the delta in batches through Engine.Append while a
// concurrent loop serves warm queries, and profiles those query latencies.
func runSustained(ctx context.Context, cl *bandjoin.Cluster, cfg AppendConfig, baseS, baseT, deltaS, deltaT *data.Relation, band data.Band, opts bandjoin.Options) (AppendLatency, error) {
	e := cl.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := registerPair(e, baseS, baseT); err != nil {
		return AppendLatency{}, err
	}
	if _, err := e.Join(ctx, "s", "t", band, opts); err != nil {
		return AppendLatency{}, fmt.Errorf("bench: priming sustained engine: %w", err)
	}

	var (
		wg        sync.WaitGroup
		appendErr error
		done      = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		per := (deltaS.Len() + cfg.Batches - 1) / cfg.Batches
		for lo := 0; lo < deltaS.Len(); lo += per {
			hi := min(lo+per, deltaS.Len())
			if err := e.Append(ctx, "s", deltaS.Slice("ds", lo, hi)); err != nil {
				appendErr = fmt.Errorf("bench: sustained Append(s): %w", err)
				return
			}
			hi = min(lo+per, deltaT.Len())
			if hi > lo {
				if err := e.Append(ctx, "t", deltaT.Slice("dt", lo, hi)); err != nil {
					appendErr = fmt.Errorf("bench: sustained Append(t): %w", err)
					return
				}
			}
		}
	}()

	var latencies []float64
	var queryErr error
	for {
		start := time.Now()
		if _, err := e.Join(ctx, "s", "t", band, opts); err != nil {
			queryErr = fmt.Errorf("bench: warm query during sustained appends: %w", err)
			break
		}
		latencies = append(latencies, time.Since(start).Seconds())
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	wg.Wait()
	if appendErr != nil {
		return AppendLatency{}, appendErr
	}
	if queryErr != nil {
		return AppendLatency{}, queryErr
	}

	lat := AppendLatency{Queries: len(latencies)}
	if len(latencies) > 0 {
		sorted := append([]float64(nil), latencies...)
		sort.Float64s(sorted)
		var sum float64
		for _, v := range sorted {
			sum += v
		}
		lat.MeanSeconds = sum / float64(len(sorted))
		lat.MedianSeconds = sorted[len(sorted)/2]
		lat.MaxSeconds = sorted[len(sorted)-1]
	}
	return lat, nil
}

// appendPairCheck verifies Register+Append+Join equals a fresh full
// Register+Join pair for pair on a smaller instance of the same workload.
func appendPairCheck(ctx context.Context, cl *bandjoin.Cluster, cfg AppendConfig, band data.Band) (int, bool, error) {
	small := cfg
	small.Tuples = cfg.Tuples / 10
	if small.Tuples > 50_000 {
		small.Tuples = 50_000
	}
	if small.Tuples < 1_000 {
		small.Tuples = cfg.Tuples
	}
	small.Seed = cfg.Seed + 100
	baseS, baseT, deltaS, deltaT := appendWorkload(small)
	opts := bandjoin.Options{
		Partitioner:      bandjoin.RecPartS(),
		Seed:             cfg.Seed,
		ClusterChunkSize: cfg.ChunkSize,
		ClusterWindow:    cfg.Window,
		CollectPairs:     true,
	}
	fresh, err := cl.Join(baseS.Clone("s").Extend(deltaS), baseT.Clone("t").Extend(deltaT), band, opts)
	if err != nil {
		return 0, false, fmt.Errorf("bench: pair-check rebuild run: %w", err)
	}
	e := cl.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := registerPair(e, baseS, baseT); err != nil {
		return 0, false, err
	}
	if _, err := e.Join(ctx, "s", "t", band, opts); err != nil {
		return 0, false, fmt.Errorf("bench: pair-check priming run: %w", err)
	}
	if err := e.Append(ctx, "s", deltaS); err != nil {
		return 0, false, fmt.Errorf("bench: pair-check Append(s): %w", err)
	}
	if err := e.Append(ctx, "t", deltaT); err != nil {
		return 0, false, fmt.Errorf("bench: pair-check Append(t): %w", err)
	}
	appended, err := e.Join(ctx, "s", "t", band, opts)
	if err != nil {
		return 0, false, fmt.Errorf("bench: pair-check appended run: %w", err)
	}
	if appended.ShuffleBytes != 0 {
		return 0, false, fmt.Errorf("bench: pair-check appended run shuffled %d bytes", appended.ShuffleBytes)
	}
	if len(fresh.Pairs) != len(appended.Pairs) {
		return len(fresh.Pairs), false, nil
	}
	for i := range fresh.Pairs {
		if fresh.Pairs[i] != appended.Pairs[i] {
			return len(fresh.Pairs), false, nil
		}
	}
	return len(fresh.Pairs), true, nil
}

// WriteAppendJSON writes the report as indented JSON.
func WriteAppendJSON(w io.Writer, rep *AppendReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
