// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each BenchmarkTable*/BenchmarkFigure* corresponds to one paper
// artifact (see DESIGN.md for the index) and prints the regenerated table so
// that `go test -bench=. -benchmem | tee bench_output.txt` leaves a complete
// record; EXPERIMENTS.md discusses paper-vs-measured for each.
//
// The Ablation* benchmarks study the design choices DESIGN.md calls out
// (split-score smoothing, sample size, termination rule, symmetric splits),
// and the Micro* benchmarks measure the building blocks in isolation.
package bandjoin_test

import (
	"fmt"
	"os"
	"testing"

	"bandjoin"
	"bandjoin/internal/bench"
	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// benchmarkExperiment runs one paper experiment and reports RecPart's average
// overheads as custom benchmark metrics.
func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := bench.DefaultConfig()
	cfg.Seed = 1
	var tbl *bench.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run(cfg)
		if err != nil {
			b.Fatalf("experiment %s: %v", id, err)
		}
	}
	b.StopTimer()
	if err := bench.Render(os.Stdout, tbl); err != nil {
		b.Fatalf("rendering %s: %v", id, err)
	}
	sum := bench.Summarize(tbl)
	for _, name := range []string{"RecPart", "RecPart-S"} {
		if s, ok := sum[name]; ok {
			b.ReportMetric(100*s.DupOverhead, "recpart-dup-%")
			b.ReportMetric(100*s.LoadOverhead, "recpart-load-%")
			break
		}
	}
}

func BenchmarkTable1_Workloads(b *testing.B)       { benchmarkExperiment(b, "workloads") }
func BenchmarkTable2a_BandWidth1D(b *testing.B)    { benchmarkExperiment(b, "2a") }
func BenchmarkTable2b_BandWidth3D(b *testing.B)    { benchmarkExperiment(b, "2b") }
func BenchmarkTable2c_BandWidthReal(b *testing.B)  { benchmarkExperiment(b, "2c") }
func BenchmarkTable3_Skew(b *testing.B)            { benchmarkExperiment(b, "3") }
func BenchmarkTable4a_ScaleSynthetic(b *testing.B) { benchmarkExperiment(b, "4a") }
func BenchmarkTable4b_ScaleReal(b *testing.B)      { benchmarkExperiment(b, "4b") }
func BenchmarkTable4c_ScaleInput8D(b *testing.B)   { benchmarkExperiment(b, "4c") }
func BenchmarkTable4d_ScaleWorkers8D(b *testing.B) { benchmarkExperiment(b, "4d") }
func BenchmarkTable5_GridSize(b *testing.B)        { benchmarkExperiment(b, "5") }
func BenchmarkTable6_GridStarReverse(b *testing.B) { benchmarkExperiment(b, "6") }
func BenchmarkTable7_IEJoin(b *testing.B)          { benchmarkExperiment(b, "7") }
func BenchmarkTable8_BetaRatio(b *testing.B)       { benchmarkExperiment(b, "8") }
func BenchmarkTable9_Symmetric(b *testing.B)       { benchmarkExperiment(b, "9") }
func BenchmarkTable12_ModelAccuracy(b *testing.B)  { benchmarkExperiment(b, "12") }
func BenchmarkTable15_Dimensionality(b *testing.B) { benchmarkExperiment(b, "15") }
func BenchmarkTable16_PTF(b *testing.B)            { benchmarkExperiment(b, "16") }
func BenchmarkFigure4_Scatter(b *testing.B)        { benchmarkExperiment(b, "fig4") }

// -----------------------------------------------------------------------------
// Ablations of RecPart's design choices

// ablationWorkload is the shared workload for the ablation benchmarks: skewed
// 3D Pareto data where the dense region must be isolated and 1-Bucket'ed.
func ablationWorkload() (*bandjoin.Relation, *bandjoin.Relation, bandjoin.Band) {
	s, t := bandjoin.Pareto(3, 1.5, 40_000, 3)
	return s, t, bandjoin.Uniform(3, 0.03)
}

// BenchmarkAblationSampleSize studies how the optimization-phase sample size
// affects partitioning quality and optimization time.
func BenchmarkAblationSampleSize(b *testing.B) {
	s, t, band := ablationWorkload()
	for _, size := range []int{500, 2000, 6000, 16000} {
		b.Run(fmt.Sprintf("sample=%d", size), func(b *testing.B) {
			var res *bandjoin.Result
			for i := 0; i < b.N; i++ {
				opts := exec.DefaultOptions(30)
				opts.Sampling = sample.Options{InputSampleSize: size, OutputSampleSize: size / 2, Seed: 9}
				r, err := exec.Run(core.NewRecPartS(), s, t, band, opts)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(100*res.DupOverhead, "dup-%")
			b.ReportMetric(100*res.LoadOverhead, "load-%")
			b.ReportMetric(res.OptimizationTime.Seconds()*1000, "opt-ms")
		})
	}
}

// BenchmarkAblationTermination compares the applied (cost model) and
// theoretical (lower-bound) termination rules.
func BenchmarkAblationTermination(b *testing.B) {
	s, t, band := ablationWorkload()
	for _, mode := range []core.Termination{core.TerminateApplied, core.TerminateTheoretical} {
		b.Run(mode.String(), func(b *testing.B) {
			var res *bandjoin.Result
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.Termination = mode
				r, err := exec.Run(core.New(opts), s, t, band, exec.DefaultOptions(30))
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(100*res.DupOverhead, "dup-%")
			b.ReportMetric(100*res.LoadOverhead, "load-%")
		})
	}
}

// BenchmarkAblationSymmetric compares RecPart against RecPart-S on
// reverse-Pareto data, where symmetric splits are the difference between
// near-perfect and badly imbalanced plans (Table 9 / Table 14).
func BenchmarkAblationSymmetric(b *testing.B) {
	s, t := bandjoin.ReversePareto(3, 1.5, 40_000, 3)
	band := bandjoin.Uniform(3, 1000)
	for _, spec := range []struct {
		name string
		pt   partition.Partitioner
	}{{"RecPart-S", core.NewRecPartS()}, {"RecPart", core.NewDefault()}} {
		b.Run(spec.name, func(b *testing.B) {
			var res *bandjoin.Result
			for i := 0; i < b.N; i++ {
				r, err := exec.Run(spec.pt, s, t, band, exec.DefaultOptions(30))
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(float64(res.Im), "Im-tuples")
			b.ReportMetric(100*res.LoadOverhead, "load-%")
		})
	}
}

// -----------------------------------------------------------------------------
// Micro-benchmarks of the building blocks

// BenchmarkMicroLocalJoin measures the local band-join on one partition-sized
// input.
func BenchmarkMicroLocalJoin(b *testing.B) {
	s, t := data.ParetoPair(3, 1.5, 20_000, 5)
	band := data.Uniform(3, 0.03)
	var out int64
	for i := 0; i < b.N; i++ {
		out = localjoin.Join(s, t, band, nil)
	}
	b.ReportMetric(float64(out), "pairs")
}

// BenchmarkMicroOptimization measures the optimization phase (planning only)
// of every partitioner on the same samples.
func BenchmarkMicroOptimization(b *testing.B) {
	s, t := data.ParetoPair(3, 1.5, 40_000, 5)
	band := data.Uniform(3, 0.03)
	smp, err := sample.Draw(s, t, band, sample.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ctx := &partition.Context{Band: band, Workers: 30, Sample: smp, Model: costmodel.Default(), Seed: 1}
	for _, spec := range []struct {
		name string
		pt   partition.Partitioner
	}{
		{"RecPart", core.NewDefault()},
		{"RecPart-S", core.NewRecPartS()},
		{"CSIO", bandjoinCSIO()},
		{"1-Bucket", bandjoinOneBucket()},
		{"Grid-eps", bandjoinGrid()},
	} {
		b.Run(spec.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spec.pt.Plan(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicroShuffle measures the assignment (map-phase) throughput of a
// RecPart plan.
func BenchmarkMicroShuffle(b *testing.B) {
	s, t := data.ParetoPair(3, 1.5, 40_000, 5)
	band := data.Uniform(3, 0.03)
	smp, err := sample.Draw(s, t, band, sample.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ctx := &partition.Context{Band: band, Workers: 30, Sample: smp, Model: costmodel.Default(), Seed: 1}
	plan, err := core.NewDefault().Plan(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var dst []int
	for i := 0; i < b.N; i++ {
		for j := 0; j < t.Len(); j++ {
			dst = plan.AssignT(int64(j), t.Key(j), dst[:0])
		}
	}
	b.ReportMetric(float64(t.Len()), "tuples/op")
}

// The public partitioner constructors return the partition.Partitioner
// interface; tiny adapters keep the micro-benchmark table uniform.
func bandjoinCSIO() partition.Partitioner      { return bandjoin.CSIO() }
func bandjoinOneBucket() partition.Partitioner { return bandjoin.OneBucket() }
func bandjoinGrid() partition.Partitioner      { return bandjoin.GridEps() }
