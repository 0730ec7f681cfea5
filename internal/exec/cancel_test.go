package exec

import (
	"context"
	"errors"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
)

// TestExecutePlanHonorsCancellation: a cancelled context must stop the
// in-process pipeline between its stages — shuffle passes and per-partition
// joins — and surface the context's error.
func TestExecutePlanHonorsCancellation(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.4, 400, 3)
	band := data.Symmetric(0.3, 0.3)
	plan := planFor(t, core.NewRecPartS(), s, tt, band, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := ExecutePlan(ctx, plan, s, tt, band, DefaultOptions(3)); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecutePlan with cancelled ctx: got %v, want context.Canceled", err)
	}
	if _, _, err := Shuffle(ctx, plan, s, tt, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("Shuffle with cancelled ctx: got %v, want context.Canceled", err)
	}

	// A live context changes nothing: the same plan must still execute.
	if _, err := ExecutePlan(context.Background(), plan, s, tt, band, DefaultOptions(3)); err != nil {
		t.Fatalf("ExecutePlan with live ctx: %v", err)
	}
}
