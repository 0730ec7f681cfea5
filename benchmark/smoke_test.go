package main

import (
	"os"
	"path/filepath"
	"testing"
)

// A smoke run of every workload, end to end and traced: nothing may fail,
// every metric BENCHMARK.json lists must be reported, every end-to-end metric
// must be non-zero, and every per-layer metric must be produced by at least
// one workload (a misspelt name would otherwise report 0 for ever).
func TestSmokeAllWorkloads(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := honestMachine(0); err != nil {
		t.Skip(err)
	}
	out := t.TempDir()
	produced := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{w: w, seed: 3, seconds: 0.2, trace: trace, smoke: true, outDir: out}
			measure := runEndToEnd
			if trace {
				measure = runTraced
			}
			values, c, _ := measure(cfg)
			rep, err := report(sp, trace, values, c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 5 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w.name, trace, rep.Correct, rep.Failed, rep.Attempted, c.failures)
			}
			if len(rep.Metrics) != len(sp.metrics(trace)) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d", w.name, trace, len(rep.Metrics), len(sp.metrics(trace)))
			}
			for _, m := range sp.metrics(trace) {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s reported as %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, got.Value)
				}
			}
			for name := range values {
				produced[name] = true
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: the traced run wrote no span file: %v", w.name, err)
		}
	}
	for _, m := range sp.PerLayer {
		if !produced[m.Name] {
			t.Errorf("no workload produces per-layer metric %s", m.Name)
		}
	}
}
