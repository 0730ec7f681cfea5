package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/sample"
)

// SkewConfig drives the skewed-workload join benchmark: the morsel-driven
// reduce phase versus the retained per-partition path on a point-mass
// workload, where one partition holds roughly MassFraction of the probe rows
// and a per-partition schedule is bounded by it.
type SkewConfig struct {
	// Tuples is the per-relation input size.
	Tuples int
	// Dims is the number of join attributes.
	Dims int
	// Eps is the symmetric per-dimension band width.
	Eps float64
	// MassFraction is the fraction of S concentrated on a single point inside
	// the Pareto bulk (default 0.5). Every spatial partitioner must route the
	// mass to exactly one partition, so it lower-bounds the straggler ratio.
	MassFraction float64
	// Workers is the simulated worker count the plan targets.
	Workers int
	// Rounds runs each path this many times per procs value and keeps the
	// fastest.
	Rounds int
	// MorselRows is the morsel path's grain (0 = auto).
	MorselRows int
	// Procs is the GOMAXPROCS list to measure at (empty = current setting
	// only). Values above NumCPU are allowed; see ScalingConfig.Procs.
	Procs []int
	// Seed drives data generation and planning.
	Seed int64
}

// DefaultSkewConfig returns a workload whose fat partition dominates the
// per-partition schedule but whose total output stays CI-sized.
func DefaultSkewConfig() SkewConfig {
	return SkewConfig{
		Tuples:       150_000,
		Dims:         2,
		Eps:          0.01,
		MassFraction: 0.5,
		Workers:      8,
		Rounds:       3,
		Seed:         1,
	}
}

// SkewPoint is one GOMAXPROCS measurement: both reduce paths over the same
// shuffled partitions.
type SkewPoint struct {
	Procs               int     `json:"gomaxprocs"`
	PerPartitionSeconds float64 `json:"per_partition_wall_seconds"`
	MorselSeconds       float64 `json:"morsel_wall_seconds"`
	// Speedup is per-partition / morsel wall time (≥ 1 means the morsel path
	// wins; on a single core both schedules do identical work).
	Speedup float64 `json:"speedup_morsel_vs_per_partition"`
	Morsels int64   `json:"morsels"`
	Steals  int64   `json:"steals"`
}

// SkewReport is the machine-readable artifact (BENCH_skew.json).
type SkewReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`

	Tuples       int     `json:"tuples_per_relation"`
	Dims         int     `json:"dims"`
	Eps          float64 `json:"band_width"`
	MassFraction float64 `json:"mass_fraction"`
	Workers      int     `json:"workers"`
	Rounds       int     `json:"rounds"`
	MorselRows   int     `json:"morsel_rows"`

	// StragglerRatio is max/mean partition probe rows of the executed plan —
	// the residual skew the morsel schedule absorbs (≈ partitions ×
	// MassFraction when the point mass lands in one partition).
	StragglerRatio float64 `json:"straggler_ratio"`
	Output         int64   `json:"output_pairs"`
	// PairsIdentical certifies the acceptance criterion: both paths emitted
	// bit-identical pair sequences on this workload.
	PairsChecked   int  `json:"pairs_checked"`
	PairsIdentical bool `json:"pairs_identical"`

	Points []SkewPoint `json:"points"`
}

// pointMassPair builds the skewed workload: S is Pareto with MassFraction of
// its rows replaced by one fixed point inside the distribution's bulk, T is
// plain Pareto. The point sits in T's dense region, so the mass rows carry
// real probe work and output, not just routing weight.
func pointMassPair(tuples, dims int, massFraction float64, seed int64) (*data.Relation, *data.Relation) {
	gen := data.NewPareto(dims, 1.5)
	base := gen.Generate("S", tuples, rand.New(rand.NewSource(seed)))
	t := gen.Generate("T", tuples, rand.New(rand.NewSource(seed+1)))
	point := make([]float64, dims)
	for d := range point {
		point[d] = 1.05
	}
	s := data.NewRelationCapacity("S", dims, tuples)
	rng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < base.Len(); i++ {
		if rng.Float64() < massFraction {
			s.AppendKey(point)
		} else {
			s.AppendKey(base.Key(i))
		}
	}
	return s, t
}

// RunSkew plans and shuffles the point-mass workload once, then measures the
// morsel-driven and per-partition reduce paths over the identical shuffled
// partitions at each GOMAXPROCS value, and verifies the two paths' collected
// pairs are bit-identical. GOMAXPROCS is restored before returning.
func RunSkew(cfg SkewConfig) (*SkewReport, error) {
	if cfg.Tuples <= 0 || cfg.Dims <= 0 {
		return nil, fmt.Errorf("bench: invalid skew config %+v", cfg)
	}
	if cfg.MassFraction <= 0 || cfg.MassFraction >= 1 {
		cfg.MassFraction = 0.5
	}
	if cfg.Workers < 1 {
		cfg.Workers = 8
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	procs := cfg.Procs
	if len(procs) == 0 {
		procs = []int{runtime.GOMAXPROCS(0)}
	}
	for _, p := range procs {
		if p < 1 {
			return nil, fmt.Errorf("bench: invalid procs value %d in %v", p, procs)
		}
	}

	band := data.Uniform(cfg.Dims, cfg.Eps)
	s, t := pointMassPair(cfg.Tuples, cfg.Dims, cfg.MassFraction, cfg.Seed)

	pt := core.NewRecPartS()
	smp, err := sample.Draw(s, t, band, sample.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("bench: sampling: %w", err)
	}
	opts := exec.DefaultOptions(cfg.Workers)
	opts.Seed = cfg.Seed
	opts.MorselRows = cfg.MorselRows
	optsPP := opts
	optsPP.MorselRows = -1
	prep, err := exec.PlanQuery(pt, smp, band, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: planning: %w", err)
	}
	parts, total, err := exec.Shuffle(context.Background(), prep.Plan, s, t, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: shuffle: %w", err)
	}
	run := func(o exec.Options) (*exec.Result, error) {
		return exec.ExecuteShuffledPrepared(context.Background(), prep.Plan, parts, nil, total, s.Len(), t.Len(), band, o)
	}

	// Verification pass: both reduce paths must emit bit-identical pairs.
	collectOpts, collectOptsPP := opts, optsPP
	collectOpts.CollectPairs, collectOptsPP.CollectPairs = true, true
	morselRes, err := run(collectOpts)
	if err != nil {
		return nil, fmt.Errorf("bench: morsel verification run: %w", err)
	}
	ppRes, err := run(collectOptsPP)
	if err != nil {
		return nil, fmt.Errorf("bench: per-partition verification run: %w", err)
	}
	identical := len(morselRes.Pairs) == len(ppRes.Pairs)
	if identical {
		for i := range ppRes.Pairs {
			if morselRes.Pairs[i] != ppRes.Pairs[i] {
				identical = false
				break
			}
		}
	}

	rep := &SkewReport{
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		Tuples:         cfg.Tuples,
		Dims:           cfg.Dims,
		Eps:            cfg.Eps,
		MassFraction:   cfg.MassFraction,
		Workers:        cfg.Workers,
		Rounds:         cfg.Rounds,
		MorselRows:     cfg.MorselRows,
		StragglerRatio: morselRes.StragglerRatio,
		Output:         morselRes.Output,
		PairsChecked:   len(ppRes.Pairs),
		PairsIdentical: identical,
	}

	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		var bestMorsel, bestPP time.Duration
		var morsels, steals int64
		for r := 0; r < cfg.Rounds; r++ {
			runtime.GC()
			start := time.Now()
			res, err := run(opts)
			if err != nil {
				return nil, fmt.Errorf("bench: morsel join at procs=%d: %w", p, err)
			}
			morselWall := time.Since(start)
			start = time.Now()
			if _, err := run(optsPP); err != nil {
				return nil, fmt.Errorf("bench: per-partition join at procs=%d: %w", p, err)
			}
			ppWall := time.Since(start)
			if r == 0 || morselWall < bestMorsel {
				bestMorsel = morselWall
				morsels, steals = res.Morsels, res.MorselSteals
			}
			if r == 0 || ppWall < bestPP {
				bestPP = ppWall
			}
		}
		rep.Points = append(rep.Points, SkewPoint{
			Procs:               p,
			PerPartitionSeconds: bestPP.Seconds(),
			MorselSeconds:       bestMorsel.Seconds(),
			Speedup:             ratio(bestPP.Seconds(), bestMorsel.Seconds()),
			Morsels:             morsels,
			Steals:              steals,
		})
	}
	return rep, nil
}

// WriteSkewJSON writes the report as indented JSON.
func WriteSkewJSON(w io.Writer, rep *SkewReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
