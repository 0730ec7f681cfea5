package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"bandjoin/internal/cluster"
	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// ClusterConfig scales the distributed data-plane benchmark: one band-join
// plan executed over real in-process RPC workers twice — once on the retained
// serial coordinator (tuple-at-a-time routing, one blocking Load call per
// chunk, sequential per-worker joins) and once on the pipelined streaming
// plane (shared parallel two-pass routing, per-worker sender goroutines with
// a bounded window of async Load RPCs, parallel worker joins).
type ClusterConfig struct {
	// Tuples is the per-relation input size.
	Tuples int
	// Dims is the number of join attributes.
	Dims int
	// Eps is the symmetric per-dimension band width.
	Eps float64
	// Workers is the number of in-process RPC workers (the acceptance
	// criterion requires at least 2).
	Workers int
	// ChunkSize is the number of tuples per Load RPC.
	ChunkSize int
	// Window is the streaming plane's per-worker in-flight RPC bound.
	Window int
	// Rounds runs each plane this many times and keeps the fastest, damping
	// scheduler noise.
	Rounds int
	// SelfMatch makes T a jittered copy of S (each T tuple within the band of
	// its S counterpart), the paper's PTF-style near-duplicate workload: it
	// guarantees an output of at least |S| pairs at any dimensionality, so
	// the join phase produces real results without dominating the data-plane
	// comparison. When false, S and T are drawn independently.
	SelfMatch bool
	// KeyDecimals quantizes every generated key to this many decimal places,
	// modelling the fixed-precision coordinates real survey data ships (the
	// paper's PTF workload). Fixed precision is what the columnar wire
	// format bit-packs; full-entropy float64 mantissas ship raw. Negative
	// disables quantization. The
	// self-match guarantee survives quantization as long as 10^-KeyDecimals
	// ≤ Eps (jitter ≤ Eps/2 plus half an ulp of the grid stays in the band).
	KeyDecimals int
	// Seed drives data generation and planning.
	Seed int64
}

// DefaultClusterConfig returns the acceptance-criteria workload: an 8D
// near-duplicate self-match (the paper's highest-dimensional configuration,
// in the style of its PTF astronomy workload) whose shuffle moves ~70 MB
// over the wire and whose join emits one pair per S tuple. High
// dimensionality weights the comparison toward the data plane (routing,
// encoding, transfer, ingest), which is what differs between the planes;
// the join work is identical on both.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Tuples:      500_000,
		Dims:        8,
		Eps:         0.003,
		Workers:     2,
		ChunkSize:   16384,
		Window:      4,
		Rounds:      5,
		SelfMatch:   true,
		KeyDecimals: 3,
		Seed:        1,
	}
}

// ClusterMeasurement is the timing and wire accounting of one data plane.
type ClusterMeasurement struct {
	// Plane identifies the configuration ("serial" or "streaming").
	Plane string `json:"plane"`
	// WallSeconds is the fastest end-to-end execution (shuffle + joins +
	// aggregation) over the configured rounds; ShuffleSeconds and JoinSeconds
	// are the phases of that round.
	WallSeconds    float64 `json:"wall_seconds"`
	ShuffleSeconds float64 `json:"shuffle_seconds"`
	JoinSeconds    float64 `json:"join_seconds"`
	// ShuffleBytes is wire bytes moved during the shuffle (both directions,
	// post-gob); ShuffleRPCs is the number of Load calls. ShuffleRawBytes is
	// the uncompressed row-major footprint of the same tuples — raw/wire is
	// the effective compression ratio of the plane's encoding.
	ShuffleBytes    int64 `json:"shuffle_bytes"`
	ShuffleRawBytes int64 `json:"shuffle_raw_bytes"`
	ShuffleRPCs     int64 `json:"shuffle_rpcs"`
	// ShuffleTuplesPerSec is routed tuples (total input I) per second of
	// shuffle time.
	ShuffleTuplesPerSec float64 `json:"shuffle_tuples_per_sec"`
	// Degraded, LostWorkers, and Retries surface the coordinator's fault
	// accounting; all zero on a healthy benchmark run.
	Degraded    bool `json:"degraded,omitempty"`
	LostWorkers int  `json:"lost_workers,omitempty"`
	Retries     int  `json:"retries,omitempty"`
}

// ClusterReport is the machine-readable benchmark artifact
// (BENCH_cluster.json): the distributed-path counterpart of
// BENCH_pipeline.json.
type ClusterReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"gomaxprocs"`

	Tuples      int     `json:"tuples_per_relation"`
	Dims        int     `json:"dims"`
	Eps         float64 `json:"band_width"`
	Workers     int     `json:"workers"`
	ChunkSize   int     `json:"chunk_size"`
	Window      int     `json:"window"`
	KeyDecimals int     `json:"key_decimals"`
	Partitioner string  `json:"partitioner"`
	Partitions  int     `json:"partitions"`
	TotalInput  int64   `json:"total_input"`
	Output      int64   `json:"output_pairs"`

	// Serial is the v1 tuple-at-a-time oracle plane. StreamingOff is the
	// streaming plane with compression=off (v1 packed chunks) — the wire-size
	// baseline and pair-level reference. Streaming is the default streaming
	// plane (columnar chunks).
	Serial       ClusterMeasurement `json:"serial"`
	StreamingOff ClusterMeasurement `json:"streaming_off"`
	Streaming    ClusterMeasurement `json:"streaming"`

	// CompressionRatio is StreamingOff.ShuffleBytes / Streaming.ShuffleBytes:
	// how much smaller the columnar shuffle is than the packed v1 shuffle for
	// the same tuples.
	CompressionRatio float64 `json:"compression_ratio"`

	// PairsChecked result pairs were compared bit-for-bit between a
	// compression=off run and a columnar run of a subsample-sized rerun of
	// the workload (full-size runs only compare output cardinalities, which
	// the timed planes must also agree on).
	PairsChecked   int  `json:"pairs_checked"`
	PairsIdentical bool `json:"pairs_identical"`

	// Speedups are serial / streaming wall-time ratios.
	SpeedupEndToEnd float64 `json:"speedup_end_to_end"`
	SpeedupShuffle  float64 `json:"speedup_shuffle"`
	SpeedupJoin     float64 `json:"speedup_join"`
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
// dimensionality. It is shared by the cluster data-plane and engine
// benchmarks. Non-negative decimals quantize both relations to that many
// decimal places; S is quantized before T is derived, so as long as
// 10^-decimals ≤ eps the jitter (≤ eps/2) plus T's own rounding error
// (≤ 10^-decimals/2) keeps every T tuple within the band of its S
// counterpart and the output floor of |S| pairs survives.
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

// RunCluster executes the cluster benchmark on in-process RPC workers. The
// plan is computed once and shared by both planes, so the comparison isolates
// the data plane; both planes must agree exactly on I and the output count.
func RunCluster(cfg ClusterConfig) (*ClusterReport, error) {
	if cfg.Tuples <= 0 || cfg.Dims <= 0 {
		return nil, fmt.Errorf("bench: invalid cluster config %+v", cfg)
	}
	if cfg.Workers < 2 {
		cfg.Workers = 2
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	band := data.Uniform(cfg.Dims, cfg.Eps)
	var s, t *data.Relation
	if cfg.SelfMatch {
		s, t = selfMatchPair(cfg.Tuples, cfg.Dims, cfg.Eps, cfg.Seed, cfg.KeyDecimals)
	} else {
		gen := data.NewPareto(cfg.Dims, 1.5)
		s = gen.Generate("S", cfg.Tuples, rand.New(rand.NewSource(cfg.Seed)))
		t = gen.Generate("T", cfg.Tuples, rand.New(rand.NewSource(cfg.Seed+1)))
		quantizeKeys(s, cfg.KeyDecimals)
		quantizeKeys(t, cfg.KeyDecimals)
	}

	lc, err := cluster.StartLocal(cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("bench: starting workers: %w", err)
	}
	defer lc.Stop()
	coord, err := cluster.Dial(lc.Addrs())
	if err != nil {
		return nil, fmt.Errorf("bench: dialing workers: %w", err)
	}
	defer coord.Close()

	pt := core.NewRecPartS()
	smp, err := sample.Draw(s, t, band, sample.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("bench: sampling: %w", err)
	}
	ctx := &partition.Context{Band: band, Workers: cfg.Workers, Sample: smp, Model: costmodel.Default(), Seed: cfg.Seed}
	plan, err := pt.Plan(ctx)
	if err != nil {
		return nil, fmt.Errorf("bench: planning: %w", err)
	}

	serialOpts := cluster.Options{Serial: true, ChunkSize: cfg.ChunkSize}
	offOpts := cluster.Options{ChunkSize: cfg.ChunkSize, Window: cfg.Window, Compression: "off"}
	streamOpts := cluster.Options{ChunkSize: cfg.ChunkSize, Window: cfg.Window}

	serial, serialRes, err := measureCluster(coord, plan, ctx, s, t, band, serialOpts, cfg.Rounds, "serial")
	if err != nil {
		return nil, err
	}
	off, offRes, err := measureCluster(coord, plan, ctx, s, t, band, offOpts, cfg.Rounds, "streaming-off")
	if err != nil {
		return nil, err
	}
	stream, streamRes, err := measureCluster(coord, plan, ctx, s, t, band, streamOpts, cfg.Rounds, "streaming")
	if err != nil {
		return nil, err
	}
	if serialRes.Output != streamRes.Output || serialRes.TotalInput != streamRes.TotalInput ||
		offRes.Output != streamRes.Output || offRes.TotalInput != streamRes.TotalInput {
		return nil, fmt.Errorf("bench: planes disagree: serial (I=%d, out=%d) vs off (I=%d, out=%d) vs streaming (I=%d, out=%d)",
			serialRes.TotalInput, serialRes.Output, offRes.TotalInput, offRes.Output, streamRes.TotalInput, streamRes.Output)
	}

	// Pair-level identity between the compression=off reference and the
	// columnar plane, on a subsample-sized rerun so pair collection stays
	// tractable at benchmark scale.
	checked, identical, err := clusterPairCheck(coord, cfg, band)
	if err != nil {
		return nil, err
	}
	if !identical {
		return nil, fmt.Errorf("bench: columnar pairs differ from the compression=off pairs")
	}

	rep := &ClusterReport{
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		Tuples:         cfg.Tuples,
		Dims:           cfg.Dims,
		Eps:            cfg.Eps,
		Workers:        cfg.Workers,
		ChunkSize:      cfg.ChunkSize,
		Window:         cfg.Window,
		KeyDecimals:    cfg.KeyDecimals,
		Partitioner:    pt.Name(),
		Partitions:     streamRes.Partitions,
		TotalInput:     streamRes.TotalInput,
		Output:         streamRes.Output,
		Serial:         serial,
		StreamingOff:   off,
		Streaming:      stream,
		PairsChecked:   checked,
		PairsIdentical: identical,
	}
	rep.CompressionRatio = ratio(float64(off.ShuffleBytes), float64(stream.ShuffleBytes))
	rep.SpeedupEndToEnd = ratio(serial.WallSeconds, stream.WallSeconds)
	rep.SpeedupShuffle = ratio(serial.ShuffleSeconds, stream.ShuffleSeconds)
	rep.SpeedupJoin = ratio(serial.JoinSeconds, stream.JoinSeconds)
	return rep, nil
}

// clusterPairCheck reruns the workload at a reduced size with pair collection
// on, once under compression=off and once under the default, and compares the result pairs bit-for-bit (as sorted multisets — the parallel
// worker joins do not define a global pair order).
func clusterPairCheck(coord *cluster.Coordinator, cfg ClusterConfig, band data.Band) (int, bool, error) {
	tuples := cfg.Tuples
	if tuples > 50_000 {
		tuples = 50_000
	}
	small := cfg
	small.Tuples = tuples
	var s, t *data.Relation
	if small.SelfMatch {
		s, t = selfMatchPair(small.Tuples, small.Dims, small.Eps, small.Seed, small.KeyDecimals)
	} else {
		gen := data.NewPareto(small.Dims, 1.5)
		s = gen.Generate("S", small.Tuples, rand.New(rand.NewSource(small.Seed)))
		t = gen.Generate("T", small.Tuples, rand.New(rand.NewSource(small.Seed+1)))
		quantizeKeys(s, small.KeyDecimals)
		quantizeKeys(t, small.KeyDecimals)
	}
	run := func(mode string) ([]exec.Pair, error) {
		res, err := coord.Run(context.Background(), core.NewRecPartS(), s, t, band, cluster.Options{
			ChunkSize:    small.ChunkSize,
			Window:       small.Window,
			Compression:  mode,
			CollectPairs: true,
			Seed:         small.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: pair-check run (compression=%q): %w", mode, err)
		}
		pairs := res.Pairs
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].S != pairs[j].S {
				return pairs[i].S < pairs[j].S
			}
			return pairs[i].T < pairs[j].T
		})
		return pairs, nil
	}
	oracle, err := run("off")
	if err != nil {
		return 0, false, err
	}
	got, err := run("")
	if err != nil {
		return 0, false, err
	}
	if len(oracle) != len(got) {
		return len(oracle), false, nil
	}
	for i := range oracle {
		if oracle[i] != got[i] {
			return len(oracle), false, nil
		}
	}
	return len(oracle), true, nil
}

// measureCluster runs RunPlan rounds times and keeps the fastest round by
// end-to-end wall time.
func measureCluster(coord *cluster.Coordinator, plan partition.Plan, ctx *partition.Context, s, t *data.Relation, band data.Band, opts cluster.Options, rounds int, plane string) (ClusterMeasurement, *exec.Result, error) {
	var best *exec.Result
	var bestWall time.Duration
	// Per-phase minima are tracked independently of the fastest end-to-end
	// round: on loaded or single-core machines the scheduler assigns noise to
	// shuffle in one round and join in the next, and reporting the fastest
	// round's coupled split would amplify that noise into the phase ratios.
	var bestShuffle, bestJoin time.Duration
	for r := 0; r < rounds; r++ {
		// Level the heap across rounds and planes: on small machines GC debt
		// from a previous round otherwise bleeds into the next measurement.
		runtime.GC()
		start := time.Now()
		res, err := coord.RunPlan(context.Background(), plan, ctx, s, t, band, opts)
		wall := time.Since(start)
		if err != nil {
			return ClusterMeasurement{}, nil, fmt.Errorf("bench: %s RunPlan: %w", plane, err)
		}
		if best == nil || wall < bestWall {
			best, bestWall = res, wall
		}
		if r == 0 || res.ShuffleTime < bestShuffle {
			bestShuffle = res.ShuffleTime
		}
		if r == 0 || res.JoinWallTime < bestJoin {
			bestJoin = res.JoinWallTime
		}
	}
	m := ClusterMeasurement{
		Plane:           plane,
		WallSeconds:     bestWall.Seconds(),
		ShuffleSeconds:  bestShuffle.Seconds(),
		JoinSeconds:     bestJoin.Seconds(),
		ShuffleBytes:    best.ShuffleBytes,
		ShuffleRawBytes: best.ShuffleRawBytes,
		ShuffleRPCs:     best.ShuffleRPCs,
		Degraded:        best.Degraded,
		LostWorkers:     best.LostWorkers,
		Retries:         best.Retries,
	}
	if m.ShuffleSeconds > 0 {
		m.ShuffleTuplesPerSec = float64(best.TotalInput) / m.ShuffleSeconds
	}
	return m, best, nil
}

// WriteClusterJSON writes the report as indented JSON.
func WriteClusterJSON(w io.Writer, rep *ClusterReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
