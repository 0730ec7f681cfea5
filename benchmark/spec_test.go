package main

import (
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must name exactly the workloads the program has, and keep
// to the limits of the benchmark contract.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != 4 || len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d, want 4", len(sp.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not made of letters, digits, _ . -", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, sw := range sp.Workloads {
		unique("workload", sw.Name)
		if sw.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, sw.Name, workloads[i].name)
		}
		if sw.Why == "" || len(sw.Why) > 200 || strings.Contains(sw.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", sw.Name)
		}
	}
	if len(sp.EndToEnd) != 7 {
		t.Errorf("%d end-to-end metrics, want 7", len(sp.EndToEnd))
	}
	if len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(sp.PerLayer))
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		unique("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	var setup specMetric
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("metric %s has a larger bound than setup_s", m.Name)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths %v", sp.Paths)
	}
}
