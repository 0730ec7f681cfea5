// Package bench regenerates the paper's evaluation: every table and figure of
// Section 6 and Appendix A has a corresponding experiment here that sweeps the
// same parameters (band width, skew, scale, dimensionality, grid size, block
// size, β ratios) over the same set of methods (RecPart, RecPart-S, CSIO,
// 1-Bucket, Grid-ε, Grid*, distributed IEJoin) and reports the same columns
// (runtime split into optimization and join time, and I / Im / Om).
//
// Inputs are scaled down from the paper's hundreds of millions of tuples to
// tens of thousands so that the whole suite runs on one machine; all relative
// measures (duplication overhead, load overhead, who wins and by how much)
// are preserved because every method sees the same scaled input. The band
// widths are likewise rescaled to keep the paper's output-to-input ratios in
// the same regimes; EXPERIMENTS.md records the mapping.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"time"

	"bandjoin"
	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/csio"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/grid"
	"bandjoin/internal/onebucket"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// Config controls the scale of all experiments.
type Config struct {
	// Workers is the default cluster size (the paper's default is 30).
	Workers int
	// BaseTuples is the per-relation input size of the "400 million" paper
	// configuration; other configurations scale relative to it.
	BaseTuples int
	// SampleSize is the optimization-phase input sample size.
	SampleSize int
	// Seed drives all data generation and sampling.
	Seed int64
	// Model supplies β coefficients (β2/β3 ≈ 4 as measured in the paper).
	Model costmodel.Model
	// Quick reduces input sizes further for smoke tests.
	Quick bool
}

// DefaultConfig returns the configuration used by bench_test.go and
// cmd/experiments. The environment variable BANDJOIN_BENCH_TUPLES overrides
// the per-relation input size.
func DefaultConfig() Config {
	cfg := Config{
		Workers:    30,
		BaseTuples: 40000,
		SampleSize: 6000,
		Seed:       1,
		Model:      costmodel.Default(),
	}
	if v := os.Getenv("BANDJOIN_BENCH_TUPLES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			cfg.BaseTuples = n
		}
	}
	return cfg
}

// QuickConfig returns a small configuration used by unit tests of the harness
// itself.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.BaseTuples = 3000
	cfg.SampleSize = 1500
	cfg.Workers = 8
	cfg.Quick = true
	return cfg
}

// tuples returns the input size for a configuration that the paper runs with
// `millions` million tuples per relation (relative to the 200-million
// baseline).
func (c Config) tuples(millions float64) int {
	n := int(float64(c.BaseTuples) * millions / 200.0)
	if n < 500 {
		n = 500
	}
	return n
}

// Cell is the outcome of running one method on one experiment row.
type Cell struct {
	Method string
	// Result carries the full accounting (I, Im, Om, overheads, timings).
	Result *exec.Result
	// Err records a failed configuration, mirroring the paper's "failed"
	// entries (e.g. Grid-ε running out of memory on the largest input).
	Err error
}

// Row is one parameter combination of an experiment.
type Row struct {
	// Labels are the parameter columns, e.g. {"band width": "(2,2,2)"}.
	Labels []Label
	Cells  []Cell
}

// Label is one parameter column of a row.
type Label struct {
	Name  string
	Value string
}

// Table is one regenerated paper table (or figure data series).
type Table struct {
	ID      string
	Title   string
	Paper   string // what the paper's corresponding artifact shows
	Methods []string
	Rows    []Row
	// Elapsed is the wall time spent producing the table.
	Elapsed time.Duration
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Table, error)
}

// methodSpec names a partitioner variant used in an experiment.
type methodSpec struct {
	name string
	pt   partition.Partitioner
	// estimateOnly forces sample-based estimation instead of execution, used
	// where the paper also falls back to the cost model (8-dimensional runs)
	// or where execution would need thousands-fold duplication (Grid-ε at
	// d = 8).
	estimateOnly bool
}

// standardMethods returns the paper's main competitor line-up.
func standardMethods(includeGrid bool) []methodSpec {
	ms := []methodSpec{
		{name: "RecPart-S", pt: core.NewRecPartS()},
		{name: "CSIO", pt: csio.New()},
		{name: "1-Bucket", pt: onebucket.New()},
	}
	if includeGrid {
		ms = append(ms, methodSpec{name: "Grid-eps", pt: grid.New()})
	}
	return ms
}

// run executes (or estimates) one method on one workload.
func (c Config) run(spec methodSpec, s, t *data.Relation, band data.Band, workers int) Cell {
	opts := exec.Options{
		Workers: workers,
		Model:   c.Model,
		Seed:    c.Seed,
		Sampling: sample.Options{
			InputSampleSize:  c.SampleSize,
			OutputSampleSize: c.SampleSize / 2,
			Seed:             c.Seed + 7,
		},
	}
	var (
		res *exec.Result
		err error
	)
	if spec.estimateOnly {
		res, err = exec.Estimate(spec.pt, s, t, band, opts)
	} else {
		res, err = exec.Run(spec.pt, s, t, band, opts)
	}
	return Cell{Method: spec.name, Result: res, Err: err}
}

// runRow runs every method of the row on the same inputs.
func (c Config) runRow(labels []Label, specs []methodSpec, s, t *data.Relation, band data.Band, workers int) Row {
	row := Row{Labels: labels}
	for _, spec := range specs {
		row.Cells = append(row.Cells, c.run(spec, s, t, band, workers))
	}
	return row
}

// methodNames extracts the method column order.
func methodNames(specs []methodSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// labels builds a label list from alternating name/value pairs.
func labels(pairs ...string) []Label {
	out := make([]Label, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return out
}

// bandString formats a band width vector the way the paper's tables do.
func bandString(eps []float64) string {
	if len(eps) == 1 {
		return fmt.Sprintf("%g", eps[0])
	}
	s := "("
	for i, e := range eps {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%g", e)
	}
	return s + ")"
}

// uniformEps returns a d-dimensional symmetric band-width vector.
func uniformEps(d int, eps float64) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = eps
	}
	return v
}

// All returns every experiment keyed by its identifier.
func All() []Experiment {
	return []Experiment{
		{ID: "workloads", Title: "Table 1/10: workload characteristics", Run: Workloads},
		{ID: "2a", Title: "Table 2a: band width, 1D pareto-1.5", Run: Table2a},
		{ID: "2b", Title: "Table 2b: band width, 3D pareto-1.5", Run: Table2b},
		{ID: "2c", Title: "Table 2c: band width, ebird x cloud", Run: Table2c},
		{ID: "3", Title: "Table 3: skew resistance", Run: Table3},
		{ID: "4a", Title: "Table 4a: scale input+workers, pareto-1.5 3D", Run: Table4a},
		{ID: "4b", Title: "Table 4b: scale input+workers, ebird x cloud", Run: Table4b},
		{ID: "4c", Title: "Table 4c: scale input, 8D", Run: Table4c},
		{ID: "4d", Title: "Table 4d: scale workers, 8D", Run: Table4d},
		{ID: "5", Title: "Table 5: Grid-eps grid-size sweep vs Grid*", Run: Table5},
		{ID: "6", Title: "Table 6: Grid* vs RecPart on reverse Pareto", Run: Table6},
		{ID: "7", Title: "Table 7/11: RecPart-S vs distributed IEJoin", Run: Table7},
		{ID: "8", Title: "Table 8/13: impact of the beta2/beta1 ratio", Run: Table8},
		{ID: "9", Title: "Table 9/14: RecPart-S vs RecPart (symmetric splits)", Run: Table9},
		{ID: "12", Title: "Table 12 / Figure 9: running-time model accuracy", Run: Table12},
		{ID: "15", Title: "Table 15: dimensionality sweep", Run: Table15},
		{ID: "16", Title: "Table 16: PTF with theoretical termination", Run: Table16},
		{ID: "fig4", Title: "Figure 4/10: overhead scatter across all settings", Run: Figure4},
	}
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
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
// dimensionality. It is shared by the append and scaling benchmarks.
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

func registerPair(e *bandjoin.Engine, s, t *data.Relation) error {
	if err := e.Register("s", s); err != nil {
		return fmt.Errorf("bench: registering s: %w", err)
	}
	if err := e.Register("t", t); err != nil {
		return fmt.Errorf("bench: registering t: %w", err)
	}
	return nil
}
