// Command benchmark is the repository's one benchmark: four band-join
// workloads driven through the public API with tracing off for the
// end-to-end metrics, and, in a separate traced run, replayed stage by stage
// through the layers' exported functions for the per-layer metrics.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory explains them.
//
// With -workload it makes one run and prints one result line (the form the
// benchmark command of BENCHMARK.json uses). Without, it runs the whole
// suite, each run in a child process of its own; -selfcheck runs the suite
// twice and compares the two sets, -compare judges it against an earlier
// result file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// maxProcs caps GOMAXPROCS so results from a large machine stay comparable
// with the two-core machine the workloads were sized on.
const maxProcs = 4

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is the result line of one run.
type runReport struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// flags are the command line.
type flags struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     string
	procs     int
	outDir    string
	selfcheck bool
	compare   string
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "run this one workload and print its result line (default: the whole suite)")
	flag.Int64Var(&f.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&f.seconds, "seconds", 0, "length of one run's measuring window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&f.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&f.scale, "scale", "full", "full, or smoke: every input at 5000 rows, for tests")
	flag.IntVar(&f.procs, "procs", 0, "force GOMAXPROCS (default min(num_cpu, 4)); more than num_cpu is refused")
	flag.StringVar(&f.outDir, "out", "benchmark/out", "directory for trace-<workload>.json and the suite's result.json")
	flag.BoolVar(&f.selfcheck, "selfcheck", false, "run the suite twice on this binary and compare the two sets")
	flag.StringVar(&f.compare, "compare", "", "run the suite and judge it against this earlier result.json")
	flag.Parse()
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(f flags) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if f.trace != 0 && f.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if f.scale != "full" && f.scale != "smoke" {
		return fmt.Errorf("-scale must be full or smoke")
	}
	if err := honestMachine(f.procs); err != nil {
		return err
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if f.seconds <= 0 {
		f.seconds = float64(sp.RunSeconds)
	}
	if f.workload == "" {
		return runSuite(sp, f)
	}
	w := workloadByName(f.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", f.workload)
	}
	return runOne(sp, runConfig{w: w, seed: f.seed, seconds: f.seconds, trace: f.trace == 1, smoke: f.scale == "smoke", outDir: f.outDir})
}

// honestMachine sets GOMAXPROCS and refuses configurations that claim more
// parallelism than the machine has: such numbers look like scaling results
// and are noise.
func honestMachine(procs int) error {
	cpus := runtime.NumCPU()
	if procs > cpus {
		return fmt.Errorf("-procs %d exceeds num_cpu %d", procs, cpus)
	}
	if clusterWorkers > cpus {
		return fmt.Errorf("the cluster workloads start %d local workers but num_cpu is %d", clusterWorkers, cpus)
	}
	if procs <= 0 {
		procs = min(cpus, maxProcs)
	}
	runtime.GOMAXPROCS(procs)
	return nil
}

// runOne makes one run and prints its detail line, then its result line.
func runOne(sp *spec, cfg runConfig) error {
	measure := runEndToEnd
	if cfg.trace {
		measure = runTraced
	}
	values, c, d := measure(cfg)
	d.Failures = c.failures
	rep, err := report(sp, cfg.trace, values, c)
	if err != nil {
		return err
	}
	detailLine, err := json.Marshal(d)
	if err != nil {
		return err
	}
	resultLine, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n%s\n", detailLine, resultLine)
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", cfg.w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// report lays the measured values out as the spec lists them. A run that
// could not measure (values nil) or lacks a listed metric is an error, not a
// report with holes.
func report(sp *spec, trace bool, values map[string]float64, c *checker) (*runReport, error) {
	if values == nil {
		return nil, fmt.Errorf("the run aborted: %v", c.failures)
	}
	rep := &runReport{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	for _, m := range sp.metrics(trace) {
		v, ok := values[m.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("metric %q of BENCHMARK.json was not measured", m.Name)
		}
		// A layer a workload does not exercise reports 0 for its metrics.
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return rep, nil
}
