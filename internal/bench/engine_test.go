package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunEngineQuick runs the engine benchmark harness on a small workload:
// the warm-partition tier must report zero shuffle traffic, the tiers must
// agree on accounting (enforced inside RunEngine, including the pair-level
// identity check), and the JSON artifact must round-trip.
func TestRunEngineQuick(t *testing.T) {
	cfg := EngineConfig{
		Tuples:  4000,
		Dims:    4,
		Eps:     0.01,
		Workers: 2,
		Rounds:  1,
		Seed:    5,
	}
	rep, err := RunEngine(cfg)
	if err != nil {
		t.Fatalf("RunEngine: %v", err)
	}
	if rep.Output <= 0 {
		t.Error("benchmark workload produced no output pairs")
	}
	if rep.Cold.ShuffleBytes <= 0 || rep.Cold.ShuffleRPCs <= 0 {
		t.Errorf("cold wire accounting missing: %d RPCs, %d bytes", rep.Cold.ShuffleRPCs, rep.Cold.ShuffleBytes)
	}
	if rep.WarmPartitions.ShuffleBytes != 0 || rep.WarmPartitions.ShuffleRPCs != 0 {
		t.Errorf("warm-partition tier shuffled: %d RPCs, %d bytes",
			rep.WarmPartitions.ShuffleRPCs, rep.WarmPartitions.ShuffleBytes)
	}
	if !rep.PairsIdentical || rep.PairsChecked <= 0 {
		t.Errorf("pair check: %d pairs, identical=%v", rep.PairsChecked, rep.PairsIdentical)
	}
	if rep.SpeedupWarmPartitions <= 0 {
		t.Errorf("speedup %g must be positive", rep.SpeedupWarmPartitions)
	}

	var buf bytes.Buffer
	if err := WriteEngineJSON(&buf, rep); err != nil {
		t.Fatalf("WriteEngineJSON: %v", err)
	}
	var back EngineReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Output != rep.Output || back.Workers != rep.Workers {
		t.Error("round-tripped report differs")
	}
}
