package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the one place that names the workloads and the
// metrics, their units, directions and regression bounds. The program emits
// exactly the metrics it lists.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory when run through the benchmark command, its parent when run from
// the benchmark's own directory.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		buf, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sp spec
		if err := json.Unmarshal(buf, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &sp, nil
	}
	return nil, firstErr
}

func (sp *spec) metrics(trace bool) []specMetric {
	if trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}
