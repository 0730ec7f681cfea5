package bandjoin

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bandjoin/internal/exec"
)

// retainedGauge reads the engine's retained-tier gauge of the given family.
func retainedGauge(t *testing.T, e *Engine, family string) float64 {
	t.Helper()
	var prom strings.Builder
	e.Metrics().WritePrometheus(&prom)
	name := family + `{tier="retained"} `
	for _, line := range strings.Split(prom.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name); ok {
			var f float64
			if _, err := fmt.Sscan(v, &f); err != nil {
				t.Fatalf("gauge line %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("engine /metrics has no %s", name)
	return 0
}

// retainedFixture is an in-process engine over datasets "s" and "t", their
// first 400 rows of 500, and the plan entry of each band, filled cold by a
// query each.
func retainedFixture(t *testing.T, bands ...Band) (*Engine, []*planEntry, *Relation, *Relation) {
	t.Helper()
	s, tt := Pareto(2, 1.5, 500, 41)
	e := NewEngine(EngineOptions{})
	t.Cleanup(e.Close)
	for name, r := range map[string]*Relation{"s": s.Slice("s", 0, 400), "t": tt.Slice("t", 0, 400)} {
		if err := e.Register(name, r); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	var entries []*planEntry
	for _, band := range bands {
		if _, err := e.Join(context.Background(), "s", "t", band, Options{Workers: 4}); err != nil {
			t.Fatalf("Join: %v", err)
		}
		key := fmt.Sprintf("%v|%v", band.Low, band.High)
		for k, pe := range e.plans {
			if k.band == key {
				entries = append(entries, pe)
			}
		}
	}
	if len(entries) != len(bands) {
		t.Fatalf("%d plan entries for %d bands", len(entries), len(bands))
	}
	return e, entries, s, tt
}

// TestInProcessFailedFillLeavesNoEntry: a retained execute whose cold fill
// fails (its context is cancelled) leaves the retained tier counting only the
// plan really filled; the next execute of the plan fills it.
func TestInProcessFailedFillLeavesNoEntry(t *testing.T) {
	e, entries, _, _ := retainedFixture(t, Uniform(2, 0.1))
	band := Uniform(2, 0.2)
	if _, err := e.Join(context.Background(), "s", "t", band, Options{Workers: 4, EstimateOnly: true}); err != nil {
		t.Fatalf("planning the second band: %v", err)
	}
	var pe *planEntry
	for k, p := range e.plans {
		if p != entries[0] && k.band == fmt.Sprintf("%v|%v", band.Low, band.High) {
			pe = p
		}
	}
	s, tt := e.datasets["s"].rel, e.datasets["t"].rel
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.plane.execute(cancelled, pe.prep, s, tt, band, resolved{Workers: 4}, pe.planID); err == nil {
		t.Fatal("an execute with a cancelled context succeeded")
	}
	if got := retainedGauge(t, e, "bandjoin_engine_cache_entries"); got != 1 {
		t.Errorf("the retained tier counts %v plans after a failed fill beside 1 filled, want 1", got)
	}
	if _, err := e.plane.execute(context.Background(), pe.prep, s, tt, band, resolved{Workers: 4}, pe.planID); err != nil {
		t.Fatalf("execute after the failed fill: %v", err)
	}
	if got := retainedGauge(t, e, "bandjoin_engine_cache_entries"); got != 2 {
		t.Errorf("the retained tier counts %v plans after the second fill, want 2", got)
	}
}

// TestRetainedBytesMatchPartitions: the engine's retained-bytes gauge is
// exec.Bytes over the partitions its in-process registry holds, after a cold
// fill of two plans, an S append absorbed into both, a T append, and the
// eviction of one plan.
func TestRetainedBytesMatchPartitions(t *testing.T) {
	e, entries, s, tt := retainedFixture(t, Uniform(2, 0.1), Uniform(2, 0.2))
	reg := &e.plane.(*inProcessPlane).reg
	check := func(when string) {
		t.Helper()
		var parts []*exec.Partition
		for _, pe := range entries {
			if entry := reg.Get(pe.planID); entry != nil {
				_, ps := entry.Partitions()
				parts = append(parts, ps...)
			}
		}
		if got, want := retainedGauge(t, e, "bandjoin_engine_cache_bytes"), exec.Bytes(parts); got != float64(want) || want == 0 {
			t.Errorf("%s: the retained-bytes gauge reads %v, the partitions hold %d", when, got, want)
		}
	}
	check("after the cold fills")
	ctx := context.Background()
	if err := e.Append(ctx, "s", s.Slice("delta", 400, 500)); err != nil {
		t.Fatalf("Append(s): %v", err)
	}
	check("after the S append")
	if err := e.Append(ctx, "t", tt.Slice("delta", 400, 500)); err != nil {
		t.Fatalf("Append(t): %v", err)
	}
	check("after the T append")
	e.plane.evict(entries[1].planID)
	check("after the eviction")
}
