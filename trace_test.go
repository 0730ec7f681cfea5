package bandjoin_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"bandjoin"
	"bandjoin/internal/exec"
)

func spanNames(tr *exec.QueryTrace) map[string]bool {
	names := make(map[string]bool)
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestQueryTraceColdWarm pins the per-query trace contract on both planes:
// every Join carries a trace, the cold query reports misses on all three
// cache tiers, and the warm repeat reports hits — with zero shuffle bytes on
// the cluster plane — and the trace round-trips through JSON.
func TestQueryTraceColdWarm(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.4, 600, 17)
	band := bandjoin.Uniform(2, 0.15)
	opts := bandjoin.Options{Workers: 2, Seed: 5}

	for planeName, newEngine := range enginePlanes(t, 2) {
		t.Run(planeName, func(t *testing.T) {
			e := newEngine(bandjoin.EngineOptions{})
			defer e.Close()
			if err := e.Register("s", s); err != nil {
				t.Fatalf("Register: %v", err)
			}
			if err := e.Register("t", tt); err != nil {
				t.Fatalf("Register: %v", err)
			}
			cold, err := e.Join(context.Background(), "s", "t", band, opts)
			if err != nil {
				t.Fatalf("cold Join: %v", err)
			}
			warm, err := e.Join(context.Background(), "s", "t", band, opts)
			if err != nil {
				t.Fatalf("warm Join: %v", err)
			}

			ctr, wtr := cold.Trace, warm.Trace
			if ctr == nil || wtr == nil {
				t.Fatalf("missing traces: cold=%v warm=%v", ctr, wtr)
			}
			if ctr.SampleTier != exec.TierMiss || ctr.PlanTier != exec.TierMiss || ctr.RetainedTier != exec.TierMiss {
				t.Errorf("cold tiers = sample:%s plan:%s retained:%s, want all miss",
					ctr.SampleTier, ctr.PlanTier, ctr.RetainedTier)
			}
			if wtr.SampleTier != exec.TierHit || wtr.PlanTier != exec.TierHit || wtr.RetainedTier != exec.TierHit {
				t.Errorf("warm tiers = sample:%s plan:%s retained:%s, want all hit",
					wtr.SampleTier, wtr.PlanTier, wtr.RetainedTier)
			}
			for _, name := range []string{"sample", "plan", "join"} {
				if !spanNames(ctr)[name] {
					t.Errorf("cold trace missing span %q (have %v)", name, ctr.Spans)
				}
			}
			// A plan-cache miss reports the optimizer's exact work; a hit did none.
			for _, sp := range ctr.Spans {
				if sp.Name != "plan" {
					continue
				}
				var cands, scored, advances, iters, chosen int64
				if _, err := fmt.Sscanf(sp.Detail, "miss candidates=%d scored=%d advances=%d iterations=%d chosen=%d",
					&cands, &scored, &advances, &iters, &chosen); err != nil {
					t.Fatalf("cold plan span detail %q: %v", sp.Detail, err)
				}
				if cands <= 0 || scored > cands || advances <= 0 || iters <= 0 || chosen < 0 || chosen > iters {
					t.Errorf("cold plan span detail %q: implausible work counts", sp.Detail)
				}
			}
			for _, sp := range wtr.Spans {
				if sp.Name == "plan" && sp.Detail != exec.TierHit {
					t.Errorf("warm plan span detail %q, want %q", sp.Detail, exec.TierHit)
				}
			}
			if ctr.Output != cold.Output || ctr.WallMicros <= 0 {
				t.Errorf("cold trace accounting: output=%d wall_us=%d", ctr.Output, ctr.WallMicros)
			}
			if planeName == "cluster" {
				if ctr.ShuffleBytes == 0 || !spanNames(ctr)["shuffle"] {
					t.Errorf("cold cluster trace has no shuffle (bytes=%d spans=%v)", ctr.ShuffleBytes, ctr.Spans)
				}
				// The shuffle span says where its time and bytes went.
				for _, sp := range ctr.Spans {
					if sp.Name != "shuffle" {
						continue
					}
					var bytes, raw, rpcs, encodeUS, decodeUS int64
					if _, err := fmt.Sscanf(sp.Detail, "bytes=%d raw_bytes=%d rpcs=%d encode_busy_us=%d decode_busy_us=%d",
						&bytes, &raw, &rpcs, &encodeUS, &decodeUS); err != nil {
						t.Fatalf("shuffle span detail %q: %v", sp.Detail, err)
					}
					if bytes != ctr.ShuffleBytes || raw != cold.ShuffleRawBytes || encodeUS <= 0 || decodeUS <= 0 {
						t.Errorf("shuffle span detail %q disagrees with the result (bytes=%d raw=%d)", sp.Detail, ctr.ShuffleBytes, cold.ShuffleRawBytes)
					}
				}
				if wtr.ShuffleBytes != 0 || wtr.ShuffleRPCs != 0 {
					t.Errorf("warm cluster trace shuffled: bytes=%d rpcs=%d", wtr.ShuffleBytes, wtr.ShuffleRPCs)
				}
			}

			js, err := wtr.JSON()
			if err != nil {
				t.Fatalf("trace JSON: %v", err)
			}
			var decoded exec.QueryTrace
			if err := json.Unmarshal(js, &decoded); err != nil {
				t.Fatalf("trace JSON does not round-trip: %v", err)
			}
			if decoded.RetainedTier != exec.TierHit || len(decoded.Spans) != len(wtr.Spans) {
				t.Errorf("decoded trace differs: tier=%s spans=%d/%d", decoded.RetainedTier, len(decoded.Spans), len(wtr.Spans))
			}
		})
	}
}

// TestQueryTraceRetentionOff pins the TierOff marker: an engine with
// retention disabled reports the retained tier as off, not miss.
func TestQueryTraceRetentionOff(t *testing.T) {
	s, tt := bandjoin.Pareto(1, 1.5, 300, 3)
	e := bandjoin.NewEngine(bandjoin.EngineOptions{DisableRetention: true})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := e.Join(context.Background(), "s", "t", bandjoin.Uniform(1, 0.2), bandjoin.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if res.Trace == nil || res.Trace.RetainedTier != exec.TierOff {
		t.Errorf("retained tier = %v, want off", res.Trace)
	}
}
