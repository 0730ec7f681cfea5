package bench

import (
	"fmt"
	"math"
	"time"

	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/csio"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/grid"
	"bandjoin/internal/iejoin"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/onebucket"
	"bandjoin/internal/sample"
)

// -----------------------------------------------------------------------------
// Workload construction helpers

// pareto1D returns the 1D pareto-1.5 pair with values rounded to 4 decimals so
// that an equi-join (band width 0) has matches, mirroring the paper's Table 2a
// where ε = 0 still produces output.
func (c Config) pareto1D(z float64) (*data.Relation, *data.Relation) {
	s, t := data.ParetoPair(1, z, c.tuples(200), c.Seed)
	roundRelation(s, 4)
	roundRelation(t, 4)
	return s, t
}

func (c Config) pareto(d int, z float64) (*data.Relation, *data.Relation) {
	return data.ParetoPair(d, z, c.tuples(200), c.Seed)
}

func (c Config) paretoSized(d int, z float64, perRelation int) (*data.Relation, *data.Relation) {
	return data.ParetoPair(d, z, perRelation, c.Seed)
}

func (c Config) ebirdCloud() (*data.Relation, *data.Relation) {
	return data.EBirdCloudPair(c.tuples(508), c.tuples(382), c.Seed)
}

func (c Config) ebirdCloudSized(nS, nT int) (*data.Relation, *data.Relation) {
	return data.EBirdCloudPair(nS, nT, c.Seed)
}

func (c Config) reversePareto(d int, z float64) (*data.Relation, *data.Relation) {
	return data.ReverseParetoPair(d, z, c.tuples(200), c.Seed)
}

func (c Config) ptf() (*data.Relation, *data.Relation) {
	return data.PTFPair(c.tuples(599), c.Seed)
}

// roundRelation rounds every join-attribute value to the given number of
// decimal places in place.
func roundRelation(r *data.Relation, decimals int) {
	scale := math.Pow(10, float64(decimals))
	for i := 0; i < r.Len(); i++ {
		k := r.Key(i)
		for d := range k {
			k[d] = math.Round(k[d]*scale) / scale
		}
	}
}

// Band widths used by the scaled-down workloads. The paper's absolute widths
// assume 200-million-tuple Pareto inputs; these values reproduce the same
// output-to-input regimes at the scaled input sizes (see EXPERIMENTS.md).
var (
	widths1D    = []float64{0, 1e-4, 2e-4, 3e-4}
	widths3D    = []float64{0, 0.03, 0.06}
	width3D     = 0.03 // the analogue of the paper's (2,2,2)
	widthsEbird = []float64{0, 1, 2}
	width8D     = 0.2 // the analogue of the paper's 20 per dimension at d=8
)

// -----------------------------------------------------------------------------
// Table 1 / Table 10: workload characteristics

// Workloads regenerates Table 1 / Table 10: the input and output size of every
// (dataset, band width) combination used in the experiments. Output sizes are
// computed exactly with a single-worker run.
func Workloads(cfg Config) (*Table, error) {
	start := time.Now()
	t := &Table{
		ID:      "workloads",
		Title:   "Workload characteristics (input and output sizes)",
		Paper:   "Table 1 / Table 10",
		Methods: []string{"exact"},
	}
	type wl struct {
		name string
		d    int
		eps  []float64
		make func() (*data.Relation, *data.Relation)
	}
	var wls []wl
	for _, e := range widths1D {
		e := e
		wls = append(wls, wl{"pareto-1.5", 1, []float64{e}, func() (*data.Relation, *data.Relation) { return cfg.pareto1D(1.5) }})
	}
	for _, e := range widths3D {
		e := e
		wls = append(wls, wl{"pareto-1.5", 3, uniformEps(3, e), func() (*data.Relation, *data.Relation) { return cfg.pareto(3, 1.5) }})
	}
	for _, z := range []float64{0.5, 1.0, 2.0} {
		z := z
		wls = append(wls, wl{fmt.Sprintf("pareto-%g", z), 3, uniformEps(3, width3D), func() (*data.Relation, *data.Relation) { return cfg.pareto(3, z) }})
	}
	wls = append(wls, wl{"pareto-1.5", 8, uniformEps(8, width8D), func() (*data.Relation, *data.Relation) { return cfg.pareto(8, 1.5) }})
	for _, e := range []float64{2, 1000} {
		e := e
		wls = append(wls, wl{"rv-pareto-1.5", 1, []float64{e}, func() (*data.Relation, *data.Relation) { return cfg.reversePareto(1, 1.5) }})
	}
	for _, e := range []float64{1000, 2000} {
		e := e
		wls = append(wls, wl{"rv-pareto-1.5", 3, uniformEps(3, e), func() (*data.Relation, *data.Relation) { return cfg.reversePareto(3, 1.5) }})
	}
	for _, e := range widthsEbird {
		e := e
		wls = append(wls, wl{"ebird and cloud", 3, uniformEps(3, e), func() (*data.Relation, *data.Relation) { return cfg.ebirdCloud() }})
	}
	for _, e := range []float64{2.78e-4, 8.33e-4} {
		e := e
		wls = append(wls, wl{"ptf_objects", 2, uniformEps(2, e), func() (*data.Relation, *data.Relation) { return cfg.ptf() }})
	}

	for _, w := range wls {
		s, tt := w.make()
		band := data.Symmetric(w.eps...)
		count := localjoin.Join(s, tt, band, nil)
		row := Row{
			Labels: labels(
				"dataset", w.name,
				"d", fmt.Sprint(w.d),
				"band width", bandString(w.eps),
				"input", fmt.Sprint(s.Len()+tt.Len()),
				"output", fmt.Sprint(count),
			),
		}
		t.Rows = append(t.Rows, row)
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Table 2: impact of band width

// Table2a regenerates Table 2a: 1D pareto-1.5, varying band width.
func Table2a(cfg Config) (*Table, error) {
	start := time.Now()
	specs := standardMethods(true)
	t := &Table{ID: "2a", Title: "Impact of band width: pareto-1.5, d=1", Paper: "Table 2a", Methods: methodNames(specs)}
	s, tt := cfg.pareto1D(1.5)
	for _, eps := range widths1D {
		rowSpecs := specs
		if eps == 0 {
			rowSpecs = standardMethods(false) // Grid-ε is undefined at band width 0
		}
		band := data.Symmetric(eps)
		t.Rows = append(t.Rows, cfg.runRow(labels("band width", bandString([]float64{eps})), rowSpecs, s, tt, band, cfg.Workers))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// Table2b regenerates Table 2b: 3D pareto-1.5, varying band width.
func Table2b(cfg Config) (*Table, error) {
	start := time.Now()
	specs := standardMethods(true)
	t := &Table{ID: "2b", Title: "Impact of band width: pareto-1.5, d=3", Paper: "Table 2b", Methods: methodNames(specs)}
	s, tt := cfg.pareto(3, 1.5)
	for _, eps := range widths3D {
		rowSpecs := specs
		if eps == 0 {
			rowSpecs = standardMethods(false)
		}
		band := data.Uniform(3, eps)
		t.Rows = append(t.Rows, cfg.runRow(labels("band width", bandString(uniformEps(3, eps))), rowSpecs, s, tt, band, cfg.Workers))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// Table2c regenerates Table 2c: ebird ⋈ cloud, d=3, varying band width.
func Table2c(cfg Config) (*Table, error) {
	start := time.Now()
	specs := standardMethods(true)
	t := &Table{ID: "2c", Title: "Impact of band width: ebird x cloud, d=3", Paper: "Table 2c", Methods: methodNames(specs)}
	s, tt := cfg.ebirdCloud()
	for _, eps := range widthsEbird {
		rowSpecs := specs
		if eps == 0 {
			rowSpecs = standardMethods(false)
		}
		band := data.Uniform(3, eps)
		t.Rows = append(t.Rows, cfg.runRow(labels("band width", bandString(uniformEps(3, eps))), rowSpecs, s, tt, band, cfg.Workers))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Table 3: skew resistance

// Table3 regenerates Table 3: pareto-z, d=3, fixed band width, increasing skew.
func Table3(cfg Config) (*Table, error) {
	start := time.Now()
	specs := standardMethods(true)
	t := &Table{ID: "3", Title: "Skew resistance: pareto-z, d=3", Paper: "Table 3", Methods: methodNames(specs)}
	for _, z := range []float64{0.5, 1.0, 1.5, 2.0} {
		s, tt := cfg.pareto(3, z)
		band := data.Uniform(3, width3D)
		t.Rows = append(t.Rows, cfg.runRow(labels("dataset", fmt.Sprintf("pareto-%g", z)), specs, s, tt, band, cfg.Workers))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Table 4: scalability

// Table4a regenerates Table 4a: doubling input and workers together on
// pareto-1.5, d=3.
func Table4a(cfg Config) (*Table, error) {
	start := time.Now()
	specs := standardMethods(true)
	t := &Table{ID: "4a", Title: "Scalability: pareto-1.5, d=3, input and workers doubling", Paper: "Table 4a", Methods: methodNames(specs)}
	type step struct {
		totalMillions float64
		workers       int
	}
	for _, st := range []step{{200, cfg.Workers / 2}, {400, cfg.Workers}, {800, cfg.Workers * 2}} {
		if st.workers < 1 {
			st.workers = 1
		}
		s, tt := cfg.paretoSized(3, 1.5, cfg.tuples(st.totalMillions/2))
		band := data.Uniform(3, width3D)
		lbl := labels("scale", fmt.Sprintf("%d tuples / %d workers", s.Len()+tt.Len(), st.workers))
		t.Rows = append(t.Rows, cfg.runRow(lbl, specs, s, tt, band, st.workers))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// Table4b regenerates Table 4b: doubling input and workers on ebird ⋈ cloud.
func Table4b(cfg Config) (*Table, error) {
	start := time.Now()
	specs := standardMethods(true)
	t := &Table{ID: "4b", Title: "Scalability: ebird x cloud, input and workers doubling", Paper: "Table 4b", Methods: methodNames(specs)}
	type step struct {
		frac    float64
		workers int
	}
	for _, st := range []step{{0.25, cfg.Workers / 2}, {0.5, cfg.Workers}, {1.0, cfg.Workers * 2}} {
		if st.workers < 1 {
			st.workers = 1
		}
		s, tt := cfg.ebirdCloudSized(int(float64(cfg.tuples(508))*st.frac), int(float64(cfg.tuples(382))*st.frac))
		band := data.Uniform(3, 2)
		lbl := labels("scale", fmt.Sprintf("%d tuples / %d workers", s.Len()+tt.Len(), st.workers))
		t.Rows = append(t.Rows, cfg.runRow(lbl, specs, s, tt, band, st.workers))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// methods8D returns the method set for the 8-dimensional scalability tables.
// The paper evaluates these with the running-time model rather than cloud
// executions; likewise all methods here use sample-based estimation, and
// Grid-ε — whose duplication factor approaches 3^8 — is estimated in closed
// form.
func methods8D() []methodSpec {
	return []methodSpec{
		{name: "RecPart", pt: core.NewDefault(), estimateOnly: true},
		{name: "CSIO", pt: csio.New(), estimateOnly: true},
		{name: "1-Bucket", pt: onebucket.New(), estimateOnly: true},
	}
}

// Table4c regenerates Table 4c: varying input size at d=8, fixed workers.
func Table4c(cfg Config) (*Table, error) {
	start := time.Now()
	specs := methods8D()
	t := &Table{ID: "4c", Title: "Scalability: pareto-1.5, d=8, varying input", Paper: "Table 4c", Methods: append(methodNames(specs), "Grid-eps")}
	for _, totalM := range []float64{100, 200, 400, 800} {
		s, tt := cfg.paretoSized(8, 1.5, cfg.tuples(totalM/2))
		band := data.Uniform(8, width8D)
		row := cfg.runRow(labels("input", fmt.Sprint(s.Len()+tt.Len())), specs, s, tt, band, cfg.Workers)
		row.Cells = append(row.Cells, cfg.gridAnalytic(s, tt, band, cfg.Workers))
		t.Rows = append(t.Rows, row)
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// Table4d regenerates Table 4d: varying the number of workers at d=8.
func Table4d(cfg Config) (*Table, error) {
	start := time.Now()
	specs := methods8D()
	t := &Table{ID: "4d", Title: "Scalability: pareto-1.5, d=8, varying workers", Paper: "Table 4d", Methods: append(methodNames(specs), "Grid-eps")}
	s, tt := cfg.pareto(8, 1.5)
	band := data.Uniform(8, width8D)
	for _, w := range []int{1, cfg.Workers / 2, cfg.Workers, cfg.Workers * 2} {
		if w < 1 {
			w = 1
		}
		row := cfg.runRow(labels("workers", fmt.Sprint(w)), specs, s, tt, band, w)
		row.Cells = append(row.Cells, cfg.gridAnalytic(s, tt, band, w))
		t.Rows = append(t.Rows, row)
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// gridAnalytic estimates Grid-ε in closed form: total input is |S| plus the
// average ε-range replication of T, and per-worker quantities assume the hash
// placement spreads the (very many) cells evenly — the regime Table 4c/4d's
// Grid-ε columns are in.
func (c Config) gridAnalytic(s, t *data.Relation, band data.Band, workers int) Cell {
	const method = "Grid-eps"
	size, err := grid.CellSize(band, 1)
	if err != nil {
		return Cell{Method: method, Err: err}
	}
	plan := grid.NewPlan(band, size)
	// The sample Config.run's Join draws: bandjoin.Options seeds its sampler
	// with Seed + 1.
	smp, err := sample.Draw(s, t, band, sample.Options{InputSampleSize: c.SampleSize, OutputSampleSize: c.SampleSize / 2, Seed: c.Seed + 1})
	if err != nil {
		return Cell{Method: method, Err: err}
	}
	repl := 0.0
	for i := 0; i < smp.T.Len(); i++ {
		repl += float64(plan.Replication(smp.T.Key(i)))
	}
	if smp.T.Len() > 0 {
		repl /= float64(smp.T.Len())
	}
	totalInput := float64(s.Len()) + repl*float64(t.Len())
	output := smp.EstimatedOutput()
	res := &exec.Result{
		Partitioner:    method,
		Workers:        workers,
		InputS:         s.Len(),
		InputT:         t.Len(),
		TotalInput:     int64(totalInput),
		Output:         int64(output),
		Im:             int64(totalInput / float64(workers)),
		Om:             int64(output / float64(workers)),
		LowerBoundLoad: c.Model.LowerBoundLoad(float64(s.Len()+t.Len()), output, workers),
	}
	res.MaxLoad = c.Model.Load(float64(res.Im), float64(res.Om))
	res.DupOverhead = totalInput/float64(s.Len()+t.Len()) - 1
	if res.LowerBoundLoad > 0 {
		res.LoadOverhead = res.MaxLoad/res.LowerBoundLoad - 1
	}
	res.PredictedTime = c.Model.Predict(totalInput, float64(res.Im), float64(res.Om))
	return Cell{Method: method, Result: res}
}

// -----------------------------------------------------------------------------
// Table 5 and 6: grid size tuning

// Table5 regenerates Table 5: Grid-ε under different grid sizes versus Grid*,
// RecPart-S, CSIO, and 1-Bucket on pareto-1.5, d=3.
func Table5(cfg Config) (*Table, error) {
	start := time.Now()
	t := &Table{ID: "5", Title: "Grid-eps grid-size sweep vs Grid*, RecPart-S, CSIO, 1-Bucket", Paper: "Table 5", Methods: []string{"result"}}
	s, tt := cfg.pareto(3, 1.5)
	band := data.Uniform(3, width3D)

	for _, mult := range []float64{1, 2, 4, 8, 16, 32, 64} {
		spec := methodSpec{name: fmt.Sprintf("Grid-eps x%g", mult), pt: grid.NewWithMultiplier(mult)}
		cell := cfg.run(spec, s, tt, band, cfg.Workers)
		t.Rows = append(t.Rows, Row{Labels: labels("method", spec.name), Cells: []Cell{cell}})
	}
	for _, spec := range []methodSpec{
		{name: "Grid*", pt: grid.NewStar()},
		{name: "RecPart-S", pt: core.NewRecPartS()},
		{name: "CSIO", pt: csio.New()},
		{name: "1-Bucket", pt: onebucket.New()},
	} {
		cell := cfg.run(spec, s, tt, band, cfg.Workers)
		t.Rows = append(t.Rows, Row{Labels: labels("method", spec.name), Cells: []Cell{cell}})
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// Table6 regenerates Table 6: Grid* versus RecPart on skewed and
// reverse-Pareto data, where Lemma 2 predicts grid partitioning must fail.
func Table6(cfg Config) (*Table, error) {
	start := time.Now()
	specs := []methodSpec{
		{name: "RecPart", pt: core.NewDefault()},
		{name: "Grid*", pt: grid.NewStar()},
	}
	t := &Table{ID: "6", Title: "Grid* vs RecPart on skewed and reverse-Pareto data", Paper: "Table 6", Methods: methodNames(specs)}

	s, tt := cfg.pareto(3, 2.0)
	t.Rows = append(t.Rows, cfg.runRow(labels("dataset", "pareto-2.0", "band width", bandString(uniformEps(3, width3D))),
		specs, s, tt, data.Uniform(3, width3D), cfg.Workers))

	s, tt = cfg.reversePareto(3, 1.5)
	for _, eps := range []float64{1000, 2000} {
		t.Rows = append(t.Rows, cfg.runRow(labels("dataset", "rv-pareto-1.5", "band width", bandString(uniformEps(3, eps))),
			specs, s, tt, data.Uniform(3, eps), cfg.Workers))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Table 7 / 11: distributed IEJoin

// Table7 regenerates Table 7 / Table 11: RecPart-S versus distributed IEJoin
// over a sweep of sizePerBlock, its key meta-parameter.
func Table7(cfg Config) (*Table, error) {
	start := time.Now()
	t := &Table{ID: "7", Title: "RecPart-S vs distributed IEJoin (sizePerBlock sweep)", Paper: "Table 7 / Table 11", Methods: []string{"result"}}
	total := 2 * cfg.tuples(200)
	blockSizes := []int{total / 100, total / 50, total / 25, total / 12}

	type workload struct {
		name string
		z    float64
		eps  float64
	}
	for _, w := range []workload{{"pareto-1.5", 1.5, width3D}, {"pareto-1.0", 1.0, width3D}, {"pareto-0.5", 0.5, width3D}} {
		s, tt := cfg.pareto(3, w.z)
		band := data.Uniform(3, w.eps)
		cell := cfg.run(methodSpec{name: "RecPart-S", pt: core.NewRecPartS()}, s, tt, band, cfg.Workers)
		t.Rows = append(t.Rows, Row{Labels: labels("dataset", w.name, "method", "RecPart-S"), Cells: []Cell{cell}})
		for _, bs := range blockSizes {
			name := fmt.Sprintf("IEJoin block=%d", bs)
			cell := cfg.run(methodSpec{name: name, pt: iejoin.NewWithBlockSize(bs)}, s, tt, band, cfg.Workers)
			t.Rows = append(t.Rows, Row{Labels: labels("dataset", w.name, "method", name), Cells: []Cell{cell}})
		}
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Table 8 / 13: local join cost ratio

// Table8 regenerates Table 8 / Table 13: how the ratio β2/β1 (local processing
// cost versus shuffle cost) changes the tradeoff RecPart chooses, while the
// competitors are unaffected.
func Table8(cfg Config) (*Table, error) {
	start := time.Now()
	t := &Table{ID: "8", Title: "Impact of beta2/beta1 on RecPart's chosen tradeoff", Paper: "Table 8 / Table 13", Methods: []string{"RecPart"}}
	s, tt := cfg.ebirdCloud()
	band := data.Uniform(3, 2)

	for _, ratio := range []float64{1e-4, 1e-2, 1, 1e2, 1e4} {
		model := cfg.Model.WithShuffleWeight(ratio)
		c := cfg
		c.Model = model
		cell := c.run(methodSpec{name: "RecPart", pt: core.NewDefault()}, s, tt, band, cfg.Workers)
		t.Rows = append(t.Rows, Row{Labels: labels("beta2/beta1", fmt.Sprintf("%g", ratio)), Cells: []Cell{cell}})
	}
	// Reference rows: the competitors do not depend on the ratio.
	for _, spec := range []methodSpec{
		{name: "CSIO", pt: csio.New()},
		{name: "1-Bucket", pt: onebucket.New()},
		{name: "Grid-eps", pt: grid.New()},
	} {
		cell := cfg.run(spec, s, tt, band, cfg.Workers)
		t.Rows = append(t.Rows, Row{Labels: labels("beta2/beta1", "n/a ("+spec.name+")"), Cells: []Cell{cell}})
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Table 9 / 14: symmetric partitioning

// Table9 regenerates Table 9 / Table 14: RecPart-S versus RecPart. The gap is
// small when dense regions of S and T coincide and large on reverse-Pareto
// data, where only symmetric splits avoid duplicating the dense relation.
func Table9(cfg Config) (*Table, error) {
	start := time.Now()
	specs := []methodSpec{
		{name: "RecPart-S", pt: core.NewRecPartS()},
		{name: "RecPart", pt: core.NewDefault()},
	}
	t := &Table{ID: "9", Title: "RecPart-S vs RecPart (symmetric partitioning)", Paper: "Table 9 / Table 14", Methods: methodNames(specs)}

	s, tt := cfg.pareto(3, 1.0)
	t.Rows = append(t.Rows, cfg.runRow(labels("dataset", "pareto-1.0", "band width", bandString(uniformEps(3, width3D))),
		specs, s, tt, data.Uniform(3, width3D), cfg.Workers))

	s, tt = cfg.ebirdCloud()
	for _, eps := range []float64{0, 2, 4} {
		t.Rows = append(t.Rows, cfg.runRow(labels("dataset", "ebird and cloud", "band width", bandString(uniformEps(3, eps))),
			specs, s, tt, data.Uniform(3, eps), cfg.Workers))
	}

	s, tt = cfg.reversePareto(3, 1.5)
	for _, eps := range []float64{1000, 2000} {
		t.Rows = append(t.Rows, cfg.runRow(labels("dataset", "rv-pareto-1.5", "band width", bandString(uniformEps(3, eps))),
			specs, s, tt, data.Uniform(3, eps), cfg.Workers))
	}
	s, tt = cfg.reversePareto(1, 1.5)
	for _, eps := range []float64{2, 1000} {
		t.Rows = append(t.Rows, cfg.runRow(labels("dataset", "rv-pareto-1.5 (1D)", "band width", bandString([]float64{eps})),
			specs, s, tt, data.Symmetric(eps), cfg.Workers))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Table 12 / Figure 9: running-time model accuracy

// measuredSeconds is the quantity the running-time model predicts in this
// reproduction: shuffle time plus the simulated makespan (max per-worker local
// join time).
func measuredSeconds(r *exec.Result) float64 {
	return r.ShuffleTime.Seconds() + r.Makespan.Seconds()
}

// Table12 regenerates Table 12 and Figure 9. As in the paper, the model is
// first fit offline on a benchmark of training queries (here: half-scale
// workloads executed on the same simulator), then every evaluation
// configuration is both predicted from its (I, Im, Om) and measured, and the
// relative errors form the Figure 9 CDF.
func Table12(cfg Config) (*Table, error) {
	start := time.Now()
	specs := standardMethods(true)
	t := &Table{ID: "12", Title: "Running-time model accuracy (predicted vs measured)", Paper: "Table 12 / Figure 9", Methods: []string{"result"}}

	// --- Offline profiling: training queries at half scale, several methods,
	// regressing measured time on (1, I, Im, Om).
	trainCfg := cfg
	trainCfg.BaseTuples = cfg.BaseTuples / 2
	if trainCfg.BaseTuples < 1000 {
		trainCfg.BaseTuples = 1000
	}
	var features [][]float64
	var times []float64
	trainSpecs := []methodSpec{
		{name: "RecPart-S", pt: core.NewRecPartS()},
		{name: "1-Bucket", pt: onebucket.New()},
		{name: "Grid-eps", pt: grid.New()},
	}
	addTraining := func(s, tt *data.Relation, band data.Band) {
		for _, spec := range trainSpecs {
			if band.IsEquiJoin() && spec.name == "Grid-eps" {
				continue
			}
			cell := trainCfg.run(spec, s, tt, band, cfg.Workers)
			if cell.Err != nil || cell.Result == nil {
				continue
			}
			r := cell.Result
			features = append(features, []float64{1, float64(r.TotalInput), float64(r.Im), float64(r.Om)})
			times = append(times, measuredSeconds(r))
		}
	}
	sTr, tTr := trainCfg.pareto(3, 1.5)
	for _, eps := range []float64{0.02, 0.05} {
		addTraining(sTr, tTr, data.Uniform(3, eps))
	}
	sTr2, tTr2 := trainCfg.pareto(3, 1.0)
	addTraining(sTr2, tTr2, data.Uniform(3, width3D))
	sTr3, tTr3 := trainCfg.pareto(1, 1.5)
	addTraining(sTr3, tTr3, data.Symmetric(widths1D[2]))
	se0, te0 := trainCfg.ebirdCloudSized(trainCfg.tuples(254), trainCfg.tuples(191))
	addTraining(se0, te0, data.Uniform(3, 1))

	coef, err := costmodel.NonNegativeLeastSquares(features, times)
	if err != nil {
		return nil, fmt.Errorf("bench: fitting the running-time model: %w", err)
	}
	predict := func(r *exec.Result) float64 {
		return coef[0] + coef[1]*float64(r.TotalInput) + coef[2]*float64(r.Im) + coef[3]*float64(r.Om)
	}

	// --- Evaluation queries at full scale.
	type wkl struct {
		name string
		s, t *data.Relation
		band data.Band
	}
	var wkls []wkl
	s3, t3 := cfg.pareto(3, 1.5)
	for _, eps := range widths3D[1:] {
		wkls = append(wkls, wkl{fmt.Sprintf("pareto-1.5 %s", bandString(uniformEps(3, eps))), s3, t3, data.Uniform(3, eps)})
	}
	sz, tz := cfg.pareto(3, 2.0)
	wkls = append(wkls, wkl{"pareto-2.0 " + bandString(uniformEps(3, width3D)), sz, tz, data.Uniform(3, width3D)})
	se, te := cfg.ebirdCloud()
	wkls = append(wkls, wkl{"ebird x cloud (1,1,1)", se, te, data.Uniform(3, 1)})

	var errsAbs []float64
	rankAgreements, rankTotal := 0, 0
	for _, w := range wkls {
		bestPredicted, bestMeasured := "", ""
		bestPredVal, bestMeasVal := math.Inf(1), math.Inf(1)
		for _, spec := range specs {
			if w.band.IsEquiJoin() && (spec.name == "Grid-eps" || spec.name == "Grid*") {
				continue
			}
			cell := cfg.run(spec, w.s, w.t, w.band, cfg.Workers)
			if cell.Err != nil {
				t.Rows = append(t.Rows, Row{Labels: labels("workload", w.name, "method", spec.name, "error", "failed"), Cells: []Cell{cell}})
				continue
			}
			measured := measuredSeconds(cell.Result)
			predicted := predict(cell.Result)
			relErr := 0.0
			if measured > 0 {
				relErr = math.Abs(predicted-measured) / measured
			}
			errsAbs = append(errsAbs, relErr)
			if predicted < bestPredVal {
				bestPredVal, bestPredicted = predicted, spec.name
			}
			if measured < bestMeasVal {
				bestMeasVal, bestMeasured = measured, spec.name
			}
			t.Rows = append(t.Rows, Row{
				Labels: labels(
					"workload", w.name,
					"method", spec.name,
					"predicted [s]", fmt.Sprintf("%.4f", predicted),
					"measured [s]", fmt.Sprintf("%.4f", measured),
					"error", fmt.Sprintf("%.1f%%", 100*relErr),
				),
				Cells: []Cell{cell},
			})
		}
		if bestPredicted != "" {
			rankTotal++
			if bestPredicted == bestMeasured {
				rankAgreements++
			}
		}
	}
	// The property RecPart needs from the model (Section 6.9): it must rank
	// partitionings correctly, i.e. identify the fastest method.
	t.Rows = append(t.Rows, Row{Labels: labels("workload", "ranking", "method", "model picks the fastest method",
		"predicted [s]", "", "measured [s]", "", "error", fmt.Sprintf("%d of %d workloads", rankAgreements, rankTotal))})
	// Figure 9: cumulative distribution of the absolute relative error.
	for _, threshold := range []float64{0.2, 0.4, 0.73} {
		within := 0
		for _, e := range errsAbs {
			if e <= threshold {
				within++
			}
		}
		pct := 0.0
		if len(errsAbs) > 0 {
			pct = 100 * float64(within) / float64(len(errsAbs))
		}
		t.Rows = append(t.Rows, Row{Labels: labels("workload", "Figure 9 CDF", "method", fmt.Sprintf("error <= %.2f", threshold),
			"error", fmt.Sprintf("%.0f%% of runs", pct))})
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Table 15: dimensionality

// Table15 regenerates Table 15: pareto-1.5 with the same per-dimension band
// width as the dimensionality grows from 1 to 8.
func Table15(cfg Config) (*Table, error) {
	start := time.Now()
	t := &Table{ID: "15", Title: "Multidimensional joins: pareto-1.5, d = 1..8", Paper: "Table 15", Methods: []string{"RecPart", "CSIO", "1-Bucket", "Grid-eps"}}
	eps := 0.05
	for _, d := range []int{1, 2, 4, 8} {
		s, tt := cfg.pareto(d, 1.5)
		band := data.Uniform(d, eps)
		var row Row
		if d >= 8 {
			specs := []methodSpec{
				{name: "RecPart", pt: core.NewDefault(), estimateOnly: true},
				{name: "CSIO", pt: csio.New(), estimateOnly: true},
				{name: "1-Bucket", pt: onebucket.New(), estimateOnly: true},
			}
			row = cfg.runRow(labels("d", fmt.Sprint(d)), specs, s, tt, band, cfg.Workers)
			row.Cells = append(row.Cells, cfg.gridAnalytic(s, tt, band, cfg.Workers))
		} else {
			specs := []methodSpec{
				{name: "RecPart", pt: core.NewDefault()},
				{name: "CSIO", pt: csio.New()},
				{name: "1-Bucket", pt: onebucket.New()},
				{name: "Grid-eps", pt: grid.New()},
			}
			row = cfg.runRow(labels("d", fmt.Sprint(d)), specs, s, tt, band, cfg.Workers)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Table 16: PTF with the theoretical termination condition

// Table16 regenerates Table 16: the PTF self-join with RecPart using the
// theoretical termination condition (no cost model), against all competitors.
func Table16(cfg Config) (*Table, error) {
	start := time.Now()
	theoretical := core.DefaultOptions()
	theoretical.Termination = core.TerminateTheoretical
	specs := []methodSpec{
		{name: "RecPart", pt: core.New(theoretical)},
		{name: "CSIO", pt: csio.New()},
		{name: "1-Bucket", pt: onebucket.New()},
		{name: "Grid-eps", pt: grid.New()},
	}
	t := &Table{ID: "16", Title: "PTF self-join with theoretical termination", Paper: "Table 16", Methods: methodNames(specs)}
	s, tt := cfg.ptf()
	for _, eps := range []float64{2.78e-4, 8.33e-4} {
		band := data.Uniform(2, eps)
		t.Rows = append(t.Rows, cfg.runRow(labels("band width", bandString(uniformEps(2, eps))), specs, s, tt, band, cfg.Workers))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}

// -----------------------------------------------------------------------------
// Figure 4 / 10: overhead scatter

// Figure4 regenerates the Figure 4 / Figure 10 scatter: for a spread of
// datasets, band widths, and cluster sizes, each method's input-duplication
// overhead (x axis) and max-load overhead (y axis) relative to the Lemma 1
// lower bounds. RecPart's points are expected to stay within roughly 10% of
// both bounds.
func Figure4(cfg Config) (*Table, error) {
	start := time.Now()
	specs := []methodSpec{
		{name: "RecPart", pt: core.NewDefault()},
		{name: "CSIO", pt: csio.New()},
		{name: "1-Bucket", pt: onebucket.New()},
		{name: "Grid-eps", pt: grid.New()},
	}
	t := &Table{ID: "fig4", Title: "Duplication overhead vs max-load overhead (all settings)", Paper: "Figure 4 / Figure 10", Methods: methodNames(specs)}

	type wkl struct {
		name string
		s, t *data.Relation
		band data.Band
		w    int
	}
	var wkls []wkl
	s3, t3 := cfg.pareto(3, 1.5)
	for _, eps := range widths3D[1:] {
		wkls = append(wkls, wkl{"pareto-1.5 " + bandString(uniformEps(3, eps)), s3, t3, data.Uniform(3, eps), cfg.Workers})
	}
	for _, z := range []float64{0.5, 1.0, 2.0} {
		sz, tz := cfg.pareto(3, z)
		wkls = append(wkls, wkl{fmt.Sprintf("pareto-%g %s", z, bandString(uniformEps(3, width3D))), sz, tz, data.Uniform(3, width3D), cfg.Workers})
	}
	s1, t1 := cfg.pareto1D(1.5)
	wkls = append(wkls, wkl{"pareto-1.5 1D", s1, t1, data.Symmetric(widths1D[2]), cfg.Workers})
	se, te := cfg.ebirdCloud()
	wkls = append(wkls, wkl{"ebird x cloud (1,1,1)", se, te, data.Uniform(3, 1), cfg.Workers})
	wkls = append(wkls, wkl{"ebird x cloud (2,2,2)", se, te, data.Uniform(3, 2), cfg.Workers})
	sp, tp := cfg.ptf()
	wkls = append(wkls, wkl{"ptf_objects", sp, tp, data.Uniform(2, 2.78e-4), cfg.Workers})
	if !cfg.Quick {
		wkls = append(wkls, wkl{"pareto-1.5 half cluster", s3, t3, data.Uniform(3, width3D), cfg.Workers / 2})
	}

	for _, w := range wkls {
		t.Rows = append(t.Rows, cfg.runRow(labels("workload", w.name), specs, w.s, w.t, w.band, w.w))
	}
	t.Elapsed = time.Since(start)
	return t, nil
}
