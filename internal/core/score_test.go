package core

import "testing"

func TestScoreInvalidWhenNoVarianceReduction(t *testing.T) {
	if newScore(0, 5, 1).valid {
		t.Error("zero variance reduction should be invalid")
	}
	if newScore(-1, 0, 1).valid {
		t.Error("negative variance reduction should be invalid")
	}
	if !newScore(1e-12, 0, 1).valid {
		t.Error("tiny positive variance reduction should be valid")
	}
}

func TestScoreOrdering(t *testing.T) {
	smoothing := 10.0
	free := newScore(100, 0, smoothing)
	cheap := newScore(100, 5, smoothing)
	expensive := newScore(100, 1000, smoothing)
	if !free.better(cheap) || !cheap.better(expensive) {
		t.Error("scores with equal variance reduction must be ordered by duplication")
	}
	bigger := newScore(200, 0, smoothing)
	if !bigger.better(free) {
		t.Error("among zero-duplication splits the larger variance reduction must win")
	}
	// A heavy partition's costly split outranks a near-useless free split.
	heavy := newScore(1e6, 500, smoothing)
	useless := newScore(1e-3, 0, smoothing)
	if !heavy.better(useless) {
		t.Error("heavy-partition split starved by a near-useless free split")
	}
	if invalidScore().better(free) {
		t.Error("invalid score ranked above a valid one")
	}
	if !free.better(invalidScore()) {
		t.Error("valid score not ranked above an invalid one")
	}
}

func TestScoreNegativeDupClamped(t *testing.T) {
	s := newScore(10, -5, 1)
	if s.dup != 0 {
		t.Errorf("negative duplication not clamped: %g", s.dup)
	}
	if !s.zeroDuplication() {
		t.Error("clamped score should report zero duplication")
	}
}

func TestScoreSmoothingFloor(t *testing.T) {
	a := newScore(10, 0, 0.0001) // smoothing below 1 is clamped to 1
	b := newScore(10, 0, 1)
	if a.ratio != b.ratio {
		t.Errorf("smoothing floor not applied: %g vs %g", a.ratio, b.ratio)
	}
}

func TestScoreTieBreak(t *testing.T) {
	// Equal ratios: larger variance reduction wins deterministically.
	a := newScore(20, 19, 1) // ratio 1
	b := newScore(10, 9, 1)  // ratio 1
	if !a.better(b) || b.better(a) {
		t.Error("tie-break by variance reduction failed")
	}
}

func TestTerminationString(t *testing.T) {
	if TerminateApplied.String() != "applied" || TerminateTheoretical.String() != "theoretical" {
		t.Error("Termination.String wrong")
	}
	if Termination(99).String() == "" {
		t.Error("unknown termination mode has empty string")
	}
}

func TestPartitionerNames(t *testing.T) {
	if NewDefault().Name() != "RecPart" || NewRecPartS().Name() != "RecPart-S" {
		t.Error("partitioner names wrong")
	}
}
