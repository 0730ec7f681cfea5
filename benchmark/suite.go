package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// workloadResult is one workload's two runs: end to end with tracing off, and
// traced.
type workloadResult struct {
	Name        string    `json:"name"`
	EndToEnd    runReport `json:"end_to_end"`
	Detail      detail    `json:"detail"`
	PerLayer    runReport `json:"per_layer"`
	TraceDetail detail    `json:"trace_detail"`
}

// suiteResult is the file the suite writes and -compare reads.
type suiteResult struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

func (sr *suiteResult) workload(name string) *workloadResult {
	for i := range sr.Workloads {
		if sr.Workloads[i].Name == name {
			return &sr.Workloads[i]
		}
	}
	return nil
}

// runSuite runs every workload, each run in a child process of its own so
// that peak memory is per workload and no run inherits another's heap.
func runSuite(sp *spec, cfg flags) error {
	var base *suiteResult
	if cfg.compare != "" {
		buf, err := os.ReadFile(cfg.compare)
		if err != nil {
			return err
		}
		base = &suiteResult{}
		if err := json.Unmarshal(buf, base); err != nil {
			return fmt.Errorf("%s: %w", cfg.compare, err)
		}
	}
	cur, err := suiteOnce(sp, cfg)
	if err != nil {
		return err
	}
	printSuite(sp, cur)
	if cfg.selfcheck {
		// The first set is the base, the second the candidate: the same
		// binary must not be able to fail its own comparison.
		base = cur
		if cur, err = suiteOnce(sp, cfg); err != nil {
			return err
		}
		printSuite(sp, cur)
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "result.json"), cur); err != nil {
		return err
	}
	failed := 0
	for _, wr := range cur.Workloads {
		failed += wr.EndToEnd.Failed + wr.PerLayer.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if base != nil {
		return printComparison(sp, base, cur)
	}
	return nil
}

func suiteOnce(sp *spec, cfg flags) (*suiteResult, error) {
	sr := &suiteResult{Seed: cfg.seed, Seconds: cfg.seconds}
	for _, w := range sp.Workloads {
		wr := workloadResult{Name: w.Name}
		var err error
		if wr.EndToEnd, wr.Detail, err = runChild(cfg, w.Name, 0); err != nil {
			return nil, err
		}
		if wr.PerLayer, wr.TraceDetail, err = runChild(cfg, w.Name, 1); err != nil {
			return nil, err
		}
		sr.Workloads = append(sr.Workloads, wr)
	}
	return sr, nil
}

// runChild re-executes this binary for one run and parses the two lines it
// prints. Run waits for the child, so none outlives the suite.
func runChild(cfg flags, workload string, trace int) (runReport, detail, error) {
	var rep runReport
	var d detail
	self, err := os.Executable()
	if err != nil {
		return rep, d, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", fmt.Sprint(trace), "-scale", cfg.scale, "-procs", fmt.Sprint(cfg.procs), "-out", cfg.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	var last string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "detail "); ok {
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return rep, d, fmt.Errorf("%s: detail line: %w", workload, err)
			}
		}
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return rep, d, fmt.Errorf("%s (trace %d): %w", workload, trace, runErr)
		}
		return rep, d, fmt.Errorf("%s: result line: %w", workload, err)
	}
	// A child that printed a result but exited non-zero had failed
	// operations; they are in the report and fail the suite at the end.
	return rep, d, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printSuite prints every metric of every workload by name with its unit.
func printSuite(sp *spec, sr *suiteResult) {
	for _, wr := range sr.Workloads {
		d := wr.Detail
		fmt.Printf("\n%s  seed=%d  tuples/side=%d  ops=%d  op median=%.3fs iqr=%.3fs  num_cpu=%d GOMAXPROCS=%d %s\n",
			wr.Name, sr.Seed, d.Tuples, d.Ops, d.OpMedianS, d.OpIQRS, d.NumCPU, d.GOMAXPROCS, d.GoVersion)
		fmt.Printf("  attempted=%d failed=%d  (traced run: attempted=%d failed=%d, %d ops)\n",
			wr.EndToEnd.Attempted, wr.EndToEnd.Failed, wr.PerLayer.Attempted, wr.PerLayer.Failed, wr.TraceDetail.Ops)
		for _, m := range sp.EndToEnd {
			fmt.Printf("  %-28s %14.6g %s\n", m.Name, wr.EndToEnd.Metrics[m.Name].Value, m.Unit)
		}
		for _, m := range sp.PerLayer {
			fmt.Printf("    %-26s %14.6g %s\n", m.Name, wr.PerLayer.Metrics[m.Name].Value, m.Unit)
		}
		for _, msg := range append(d.Warnings, wr.TraceDetail.Warnings...) {
			fmt.Printf("  WARNING %s\n", msg)
		}
	}
}

// spreadOf estimates a metric's run-to-run noise, as a share of its value,
// from what one run knows: the inter-quartile range of the op times for the
// query timings and throughput, the spread of the cold starts for set-up.
// Metrics that repeat exactly for a seed have none.
func spreadOf(metric string, d detail) float64 {
	switch metric {
	case "query_s.p50", "query_s.p75", "tuples_per_s":
		if d.OpMedianS > 0 {
			return d.OpIQRS / d.OpMedianS
		}
	case "setup_s":
		if m := median(d.ColdStarts); m > 0 {
			return iqr(d.ColdStarts) / m
		}
	}
	return 0
}

// printComparison prints one row per workload and end-to-end metric — base,
// current, the relative difference with its base, the bound, the noise and
// the verdict — and returns an error if anything regressed.
func printComparison(sp *spec, base, cur *suiteResult) error {
	fmt.Printf("\n%-22s %-14s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base", "current", "diff", "bound", "iqr", "verdict")
	regressed := 0
	for _, w := range sp.Workloads {
		b, c := base.workload(w.Name), cur.workload(w.Name)
		if b == nil || c == nil {
			fmt.Printf("%-22s missing from one side\n", w.Name)
			regressed++
			continue
		}
		for _, m := range sp.EndToEnd {
			bv, cv := b.EndToEnd.Metrics[m.Name].Value, c.EndToEnd.Metrics[m.Name].Value
			spread := max(spreadOf(m.Name, b.Detail), spreadOf(m.Name, c.Detail))
			verdict := judge(bv, cv, m.Better, m.Bound, spread)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Printf("%-22s %-14s %14.6g %14.6g %+8.2f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, bv, cv, 100*(cv-bv)/bv, 100*m.Bound, 100*spread, verdict)
		}
		verdict := judgeFailures(b.EndToEnd.Failed, b.EndToEnd.Attempted, c.EndToEnd.Failed, c.EndToEnd.Attempted)
		if verdict == verdictRegressed {
			regressed++
		}
		fmt.Printf("%-22s %-14s %11d/%-3d %11d/%-3d %9s %7s %7s  %s\n",
			w.Name, "failed", b.EndToEnd.Failed, b.EndToEnd.Attempted, c.EndToEnd.Failed, c.EndToEnd.Attempted, "", "0", "", verdict)
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}
