package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer: name, start and end as seconds since the trace began, and the span
// that caused it (-1 for a root). Spans of one operation share its root.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	// Standalone marks a stage measured on its own beside the operation
	// (for example routing, which the cluster plane repeats internally): it
	// explains its parent's time but is not part of the sum.
	Standalone bool `json:"standalone,omitempty"`
}

// tracer keeps spans in memory; they are written out once, when the run ends.
// It is used from the single client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, parent int) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Name: name, Parent: parent, Start: time.Since(tr.t0).Seconds()})
	return len(tr.spans) - 1
}

// end closes the span and returns its duration in seconds.
func (tr *tracer) end(id int) float64 {
	sp := &tr.spans[id]
	sp.End = time.Since(tr.t0).Seconds()
	return sp.End - sp.Start
}

// timed runs fn under a span and returns the span's duration in seconds.
func (tr *tracer) timed(name string, parent int, fn func()) float64 {
	id := tr.begin(name, parent)
	fn()
	return tr.end(id)
}

// child records a span whose duration was reported by the program (a Result
// field) rather than measured around a call; it is laid out from the given
// offset inside its parent.
func (tr *tracer) child(name string, parent int, offset, duration float64) {
	start := tr.spans[parent].Start + offset
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Name: name, Parent: parent, Start: start, End: start + duration})
}

func (tr *tracer) markStandalone(id int) { tr.spans[id].Standalone = true }

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (tr *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}
