package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"bandjoin"
	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/sample"
)

// ScalingConfig scales the GOMAXPROCS sweep: every pipeline tier is measured
// at 1, 2, 4, … up to NumCPU procs, so the report shows how each tier's
// parallelism actually pays off on the machine it runs on.
type ScalingConfig struct {
	// Tuples is the per-relation input size.
	Tuples int
	// Dims is the number of join attributes.
	Dims int
	// Eps is the symmetric per-dimension band width.
	Eps float64
	// Workers is the simulated worker count the plan targets.
	Workers int
	// Rounds runs each tier this many times per procs value and keeps the
	// fastest.
	Rounds int
	// MaxProcs caps the sweep (0 = NumCPU). The sweep doubles from 1 and
	// always includes the cap itself.
	MaxProcs int
	// Procs, when non-empty, replaces the doubling sweep with this exact
	// GOMAXPROCS list. Values above NumCPU are allowed — GOMAXPROCS can
	// oversubscribe the cores, which is how a 1-CPU CI runner still measures
	// the schedule-level effect of the morsel path (more runnable goroutines
	// sharing one core), even though wall-clock speedups need real cores.
	Procs []int
	// Seed drives data generation and planning.
	Seed int64
}

// DefaultScalingConfig returns a self-match workload big enough that every
// tier's parallel sections dominate their fixed overheads, small enough that
// the full sweep finishes in CI.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{
		Tuples:  250_000,
		Dims:    4,
		Eps:     0.003,
		Workers: 8,
		Rounds:  3,
		Seed:    1,
	}
}

// ScalingPoint is one tier measurement at one GOMAXPROCS value.
type ScalingPoint struct {
	Procs       int     `json:"gomaxprocs"`
	WallSeconds float64 `json:"wall_seconds"`
	// Speedup is this tier's procs=1 wall time divided by this point's;
	// Efficiency is Speedup/Procs (1.0 = perfect linear scaling).
	Speedup    float64 `json:"speedup_vs_1"`
	Efficiency float64 `json:"parallel_efficiency"`
}

// ScalingTier is one pipeline stage's sweep.
type ScalingTier struct {
	// Tier names the stage: "shuffle" (parallel routing and gather), "join"
	// (the morsel-driven reduce phase over pre-shuffled partitions),
	// "join-per-partition" (the retained one-goroutine-per-partition reduce
	// path, the skew baseline the morsel tier is compared against), "planner"
	// (RecPart optimization with parallel best-split evaluation), "engine"
	// (the full in-process query through bandjoin.Join: sample + plan +
	// shuffle + join).
	Tier   string         `json:"tier"`
	Points []ScalingPoint `json:"points"`
}

// ScalingReport is the machine-readable artifact (BENCH_scaling.json).
type ScalingReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`

	Tuples  int     `json:"tuples_per_relation"`
	Dims    int     `json:"dims"`
	Eps     float64 `json:"band_width"`
	Workers int     `json:"workers"`
	Rounds  int     `json:"rounds"`
	Procs   []int   `json:"procs_sweep"`

	Tiers []ScalingTier `json:"tiers"`
}

// procsSweep returns 1, 2, 4, … doubling up to max, always including max.
func procsSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	var procs []int
	for p := 1; p < max; p *= 2 {
		procs = append(procs, p)
	}
	return append(procs, max)
}

// RunScaling sweeps GOMAXPROCS over the pipeline tiers. The plan is computed
// once (plans are bit-identical at any parallelism) and shared by the shuffle
// and join tiers; the planner and engine tiers redo their own work per
// measurement. GOMAXPROCS is restored before returning.
func RunScaling(cfg ScalingConfig) (*ScalingReport, error) {
	if cfg.Tuples <= 0 || cfg.Dims <= 0 {
		return nil, fmt.Errorf("bench: invalid scaling config %+v", cfg)
	}
	if cfg.Workers < 1 {
		cfg.Workers = 8
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	procs := cfg.Procs
	if len(procs) == 0 {
		maxProcs := cfg.MaxProcs
		if maxProcs <= 0 || maxProcs > runtime.NumCPU() {
			maxProcs = runtime.NumCPU()
		}
		procs = procsSweep(maxProcs)
	}
	for _, p := range procs {
		if p < 1 {
			return nil, fmt.Errorf("bench: invalid procs value %d in forced sweep %v", p, procs)
		}
	}

	band := data.Uniform(cfg.Dims, cfg.Eps)
	s, t := selfMatchPair(cfg.Tuples, cfg.Dims, cfg.Eps, cfg.Seed, 3)

	pt := core.NewRecPartS()
	smp, err := sample.Draw(s, t, band, sample.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("bench: sampling: %w", err)
	}
	opts := exec.DefaultOptions(cfg.Workers)
	opts.Seed = cfg.Seed
	prep, err := exec.PlanQuery(pt, smp, band, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: planning: %w", err)
	}

	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	// fastest runs fn cfg.Rounds times and returns the fastest wall time.
	fastest := func(fn func() error) (time.Duration, error) {
		var best time.Duration
		for r := 0; r < cfg.Rounds; r++ {
			runtime.GC()
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			if wall := time.Since(start); r == 0 || wall < best {
				best = wall
			}
		}
		return best, nil
	}

	tiers := []ScalingTier{{Tier: "shuffle"}, {Tier: "join"}, {Tier: "join-per-partition"}, {Tier: "planner"}, {Tier: "engine"}}
	optsPP := opts
	optsPP.MorselRows = -1 // the per-partition baseline
	for _, p := range procs {
		runtime.GOMAXPROCS(p)

		// Shuffle and the two join variants share each round: a fresh shuffle
		// feeds the join measurements so the joins never re-sort partitions a
		// previous round already prepared, and the morsel and per-partition
		// paths see identical partitions. Each phase keeps its own fastest
		// round.
		var bestShuffle, bestJoin, bestJoinPP time.Duration
		for r := 0; r < cfg.Rounds; r++ {
			runtime.GC()
			start := time.Now()
			parts, total, err := exec.Shuffle(context.Background(), prep.Plan, s, t, 0)
			shuffleWall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench: shuffle at procs=%d: %w", p, err)
			}
			start = time.Now()
			if _, err := exec.ExecuteShuffledPrepared(context.Background(), prep.Plan, parts, nil, total, s.Len(), t.Len(), band, opts); err != nil {
				return nil, fmt.Errorf("bench: join at procs=%d: %w", p, err)
			}
			joinWall := time.Since(start)
			start = time.Now()
			if _, err := exec.ExecuteShuffledPrepared(context.Background(), prep.Plan, parts, nil, total, s.Len(), t.Len(), band, optsPP); err != nil {
				return nil, fmt.Errorf("bench: per-partition join at procs=%d: %w", p, err)
			}
			joinPPWall := time.Since(start)
			if r == 0 || shuffleWall < bestShuffle {
				bestShuffle = shuffleWall
			}
			if r == 0 || joinWall < bestJoin {
				bestJoin = joinWall
			}
			if r == 0 || joinPPWall < bestJoinPP {
				bestJoinPP = joinPPWall
			}
		}

		planWall, err := fastest(func() error {
			_, err := exec.PlanQuery(pt, smp, band, opts)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: planner at procs=%d: %w", p, err)
		}

		engineWall, err := fastest(func() error {
			_, err := bandjoin.Join(s, t, band, bandjoin.Options{Workers: cfg.Workers, Partitioner: pt, Seed: cfg.Seed})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: engine at procs=%d: %w", p, err)
		}

		for i, wall := range []time.Duration{bestShuffle, bestJoin, bestJoinPP, planWall, engineWall} {
			tiers[i].Points = append(tiers[i].Points, ScalingPoint{
				Procs:       p,
				WallSeconds: wall.Seconds(),
			})
		}
	}

	for i := range tiers {
		base := tiers[i].Points[0].WallSeconds
		for j := range tiers[i].Points {
			q := &tiers[i].Points[j]
			q.Speedup = ratio(base, q.WallSeconds)
			q.Efficiency = q.Speedup / float64(q.Procs)
		}
	}

	return &ScalingReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Tuples:      cfg.Tuples,
		Dims:        cfg.Dims,
		Eps:         cfg.Eps,
		Workers:     cfg.Workers,
		Rounds:      cfg.Rounds,
		Procs:       procs,
		Tiers:       tiers,
	}, nil
}

// WriteScalingJSON writes the report as indented JSON.
func WriteScalingJSON(w io.Writer, rep *ScalingReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
