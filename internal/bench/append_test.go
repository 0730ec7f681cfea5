package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunAppendQuick runs the append benchmark harness on a small workload:
// the post-append warm query must report zero shuffle traffic (enforced inside
// RunAppend, along with pair-level identity against a fresh rebuild), and the
// JSON artifact must round-trip.
func TestRunAppendQuick(t *testing.T) {
	cfg := AppendConfig{
		Tuples:        4000,
		Dims:          4,
		Eps:           0.01,
		Workers:       2,
		ChunkSize:     256,
		Window:        3,
		DeltaFraction: 0.10,
		Batches:       3,
		Rounds:        1,
		Seed:          5,
	}
	rep, err := RunAppend(cfg)
	if err != nil {
		t.Fatalf("RunAppend: %v", err)
	}
	if rep.Output <= 0 {
		t.Error("benchmark workload produced no output pairs")
	}
	if rep.DeltaTuples != 400 {
		t.Errorf("delta sized %d tuples, want 400 (10%% of 4000)", rep.DeltaTuples)
	}
	if rep.WarmShuffleBytes != 0 {
		t.Errorf("warm query after append shuffled %d bytes", rep.WarmShuffleBytes)
	}
	if rep.AppendSeconds <= 0 || rep.AppendTuplesPerSec <= 0 {
		t.Errorf("append timing missing: %gs, %g tuples/s", rep.AppendSeconds, rep.AppendTuplesPerSec)
	}
	if rep.SpeedupVsRebuild <= 0 {
		t.Errorf("speedup %g must be positive", rep.SpeedupVsRebuild)
	}
	if rep.Sustained.Queries <= 0 || rep.Sustained.MaxSeconds <= 0 {
		t.Errorf("sustained phase served %d queries (max %gs), want > 0",
			rep.Sustained.Queries, rep.Sustained.MaxSeconds)
	}
	if !rep.PairsIdentical || rep.PairsChecked <= 0 {
		t.Errorf("pair check: %d pairs, identical=%v", rep.PairsChecked, rep.PairsIdentical)
	}

	var buf bytes.Buffer
	if err := WriteAppendJSON(&buf, rep); err != nil {
		t.Fatalf("WriteAppendJSON: %v", err)
	}
	var back AppendReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Output != rep.Output || back.DeltaTuples != rep.DeltaTuples {
		t.Error("round-tripped report differs")
	}
}
