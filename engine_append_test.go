package bandjoin_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bandjoin"
)

// appendSplit cuts a full relation into a base prefix and successive delta
// slices at the given boundaries.
func appendSplit(r *bandjoin.Relation, cuts ...int) []*bandjoin.Relation {
	parts := make([]*bandjoin.Relation, 0, len(cuts)+1)
	lo := 0
	for _, hi := range append(cuts, r.Len()) {
		parts = append(parts, r.Slice(r.Name(), lo, hi))
		lo = hi
	}
	return parts
}

// TestEngineAppendEquivalence is the append-vs-rebuild guarantee: for every
// partitioner family on both planes, Register(base) + Append(deltas) + Join
// must produce pairs bit-identical to a fresh engine serving the full
// relations — at every intermediate prefix, not just the final state — and a
// warm query after appends must not reshuffle the base (zero shuffle bytes on
// the cluster plane: the deltas were absorbed by Append itself).
func TestEngineAppendEquivalence(t *testing.T) {
	fullS, fullT := bandjoin.Pareto(2, 1.4, 900, 23)
	band := bandjoin.Uniform(2, 0.12)
	partitioners := map[string]bandjoin.Partitioner{
		"RecPart":   bandjoin.RecPart(),
		"RecPart-S": bandjoin.RecPartS(),
		"1-Bucket":  bandjoin.OneBucket(),
		"Grid-eps":  bandjoin.GridEps(),
	}
	sParts := appendSplit(fullS, 600, 750) // base, delta1, delta2
	tParts := appendSplit(fullT, 700, 800)

	for ptName, pt := range partitioners {
		opts := bandjoin.Options{Workers: 3, Partitioner: pt, CollectPairs: true, Seed: 3}
		// Fresh-build oracles at each prefix the appended engine will serve.
		mid, err := bandjoin.Join(fullS.Slice("s", 0, 750), fullT.Slice("t", 0, 800), band, opts)
		if err != nil {
			t.Fatalf("%s: mid oracle: %v", ptName, err)
		}
		full, err := bandjoin.Join(fullS, fullT, band, opts)
		if err != nil {
			t.Fatalf("%s: full oracle: %v", ptName, err)
		}

		for planeName, newEngine := range enginePlanes(t, 3) {
			t.Run(planeName+"/"+ptName, func(t *testing.T) {
				e := newEngine(bandjoin.EngineOptions{})
				defer e.Close()
				ctx := context.Background()
				if err := e.Register("s", sParts[0]); err != nil {
					t.Fatalf("Register: %v", err)
				}
				if err := e.Register("t", tParts[0]); err != nil {
					t.Fatalf("Register: %v", err)
				}
				if _, err := e.Join(ctx, "s", "t", band, opts); err != nil {
					t.Fatalf("cold Join: %v", err)
				}

				if err := e.Append(ctx, "s", sParts[1]); err != nil {
					t.Fatalf("Append(s): %v", err)
				}
				if err := e.Append(ctx, "t", tParts[1]); err != nil {
					t.Fatalf("Append(t): %v", err)
				}
				res, err := e.Join(ctx, "s", "t", band, opts)
				if err != nil {
					t.Fatalf("Join after first appends: %v", err)
				}
				if res.InputS != 750 || res.InputT != 800 {
					t.Fatalf("query after appends saw |S|=%d |T|=%d, want 750/800", res.InputS, res.InputT)
				}
				if res.Output != mid.Output {
					t.Errorf("output after appends = %d, fresh rebuild = %d", res.Output, mid.Output)
				}
				pairsEqual(t, "append vs rebuild (mid)", res.Pairs, mid.Pairs)

				if err := e.Append(ctx, "s", sParts[2]); err != nil {
					t.Fatalf("Append(s) 2: %v", err)
				}
				if err := e.Append(ctx, "t", tParts[2]); err != nil {
					t.Fatalf("Append(t) 2: %v", err)
				}
				res, err = e.Join(ctx, "s", "t", band, opts)
				if err != nil {
					t.Fatalf("Join after second appends: %v", err)
				}
				if res.Output != full.Output {
					t.Errorf("final output = %d, fresh rebuild = %d", res.Output, full.Output)
				}
				pairsEqual(t, "append vs rebuild (full)", res.Pairs, full.Pairs)
				if planeName == "cluster" && res.ShuffleBytes != 0 {
					t.Errorf("warm query after appends shuffled %d bytes; the base must never reshuffle", res.ShuffleBytes)
				}

				st := e.Stats()
				if st.CachedSamples != 1 || st.CachedPlans != 1 {
					t.Errorf("appends fragmented the caches: %d samples, %d plans, want 1/1",
						st.CachedSamples, st.CachedPlans)
				}
				if st.Appends != 4 {
					t.Errorf("Appends = %d, want 4", st.Appends)
				}
				if st.PlanHits != 2 {
					t.Errorf("PlanHits = %d, want 2 (appends must not invalidate the plan)", st.PlanHits)
				}
			})
		}
	}
}

// TestEngineAppendValidation: Append's error surface — and that zero-row
// appends are free no-ops.
func TestEngineAppendValidation(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 200, 1)
	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx := context.Background()

	if err := e.Append(ctx, "nope", s.Slice("d", 0, 1)); err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Errorf("append to unknown dataset: err = %v", err)
	}
	bad := bandjoin.NewRelation("d", 3)
	bad.Append(1, 2, 3)
	if err := e.Append(ctx, "s", bad); err == nil {
		t.Error("append of wrong dimensionality accepted")
	}
	if err := e.Append(ctx, "", s.Slice("d", 0, 1)); err == nil {
		t.Error("append to empty name accepted")
	}
	if err := e.Append(ctx, "s", nil); err != nil {
		t.Errorf("nil append: %v", err)
	}
	if err := e.Append(ctx, "s", bandjoin.NewRelation("d", 2)); err != nil {
		t.Errorf("empty append: %v", err)
	}
	if got := e.Stats().Appends; got != 0 {
		t.Errorf("no-op appends counted: Appends = %d, want 0", got)
	}

	if err := e.Append(ctx, "s", s.Slice("d", 0, 5)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := e.Stats().Appends; got != 1 {
		t.Errorf("Appends = %d, want 1", got)
	}

	e.Close()
	if err := e.Append(ctx, "s", s.Slice("d", 0, 1)); err == nil {
		t.Error("closed engine accepted an append")
	}
}

// TestEngineAppendTraceShowsLazyRebuild: an Append to T defers re-sorting and
// prepared structure rebuilds to the next probe; that query's result must
// account the rebuild (StaleRebuildTime) and carry a delta_absorb span in its
// trace.
func TestEngineAppendTraceShowsLazyRebuild(t *testing.T) {
	fullS, fullT := bandjoin.Pareto(2, 1.5, 800, 29)
	band := bandjoin.Uniform(2, 0.1)
	opts := bandjoin.Options{Workers: 3, Seed: 5}

	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	ctx := context.Background()
	if err := e.Register("s", fullS); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", fullT.Slice("t", 0, 600)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := e.Join(ctx, "s", "t", band, opts); err != nil {
		t.Fatalf("cold Join: %v", err)
	}
	if err := e.Append(ctx, "t", fullT.Slice("d", 600, 800)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	warm, err := e.Join(ctx, "s", "t", band, opts)
	if err != nil {
		t.Fatalf("warm Join: %v", err)
	}
	if warm.StaleRebuildTime <= 0 {
		t.Errorf("warm query after append reports StaleRebuildTime = %v, want > 0 (lazy rebuild ran here)", warm.StaleRebuildTime)
	}
	if warm.Trace == nil {
		t.Fatal("warm query has no trace")
	}
	found := false
	for _, sp := range warm.Trace.Spans {
		if sp.Name == "delta_absorb" {
			found = true
		}
	}
	if !found {
		t.Errorf("trace spans %+v lack a delta_absorb span", warm.Trace.Spans)
	}
}

// TestEngineAppendToSKeepsPreparedStructures: rows appended to S alone leave
// every partition's T side, and the join structure built over it, as they
// were, so the next query rebuilds nothing — on either plane — and still
// answers like a fresh engine over the grown relation. The two appends (13 %,
// then 18 % of S) each outgrow the fold threshold: the queries after them must
// report a fold, which is not a stale rebuild.
func TestEngineAppendToSKeepsPreparedStructures(t *testing.T) {
	fullS, fullT := bandjoin.Pareto(2, 1.5, 4000, 29)
	band := bandjoin.Uniform(2, 0.05)
	opts := bandjoin.Options{Workers: 2, Seed: 5, CollectPairs: true}
	staleRebuilds := func(cl *bandjoin.Cluster) (n int64) {
		for _, ws := range cl.Stats(context.Background()).Workers {
			n += ws.Stats.StaleRebuilds
		}
		return n
	}

	cl, err := bandjoin.StartLocalCluster(2)
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	defer cl.Close()
	planes := map[string]func(bandjoin.EngineOptions) *bandjoin.Engine{"in-process": bandjoin.NewEngine, "cluster": cl.NewEngine}
	for planeName, newEngine := range planes {
		t.Run(planeName, func(t *testing.T) {
			e := newEngine(bandjoin.EngineOptions{})
			defer e.Close()
			ctx := context.Background()
			for name, rel := range map[string]*bandjoin.Relation{"s": fullS.Slice("s", 0, 3000), "t": fullT} {
				if err := e.Register(name, rel); err != nil {
					t.Fatalf("Register: %v", err)
				}
			}
			if _, err := e.Join(ctx, "s", "t", band, opts); err != nil {
				t.Fatalf("cold Join: %v", err)
			}
			before := staleRebuilds(cl)
			var warm *bandjoin.Result
			folds := 0
			for _, cut := range [][2]int{{3000, 3400}, {3400, 4000}} {
				if err := e.Append(ctx, "s", fullS.Slice("d", cut[0], cut[1])); err != nil {
					t.Fatalf("Append: %v", err)
				}
				var err error
				if warm, err = e.Join(ctx, "s", "t", band, opts); err != nil {
					t.Fatalf("warm Join: %v", err)
				}
				if !warm.WarmPartitions {
					t.Errorf("query after append to S did not run on the retained partitions")
				}
				if warm.StaleRebuildTime != 0 {
					t.Errorf("query after append to S reports StaleRebuildTime = %v, want 0 (T did not change)", warm.StaleRebuildTime)
				}
				if after := staleRebuilds(cl); after != before {
					t.Errorf("workers rebuilt %d prepared structures after an append to S, want 0", after-before)
				}
				if (warm.Folds > 0) != (warm.FoldTime > 0) {
					t.Errorf("query reports %d folds taking %v", warm.Folds, warm.FoldTime)
				}
				folds += warm.Folds
			}
			if folds == 0 {
				t.Errorf("no fold reported after appending a third of S")
			}

			fresh := newEngine(bandjoin.EngineOptions{})
			defer fresh.Close()
			for name, rel := range map[string]*bandjoin.Relation{"s": fullS, "t": fullT} {
				if err := fresh.Register(name, rel); err != nil {
					t.Fatalf("Register: %v", err)
				}
			}
			want, err := fresh.Join(ctx, "s", "t", band, opts)
			if err != nil {
				t.Fatalf("fresh Join: %v", err)
			}
			pairsEqual(t, "appended vs fresh engine", warm.Pairs, want.Pairs)
		})
	}
}

// TestEngineAppendRacingWarmJoins hammers one engine with appends racing warm
// joins on both planes (run under -race as CI does). Every join must succeed,
// and once the appends settle the result must be bit-identical to a fresh
// engine over the full relations.
func TestEngineAppendRacingWarmJoins(t *testing.T) {
	fullS, fullT := bandjoin.Pareto(2, 1.4, 1200, 37)
	band := bandjoin.Uniform(2, 0.1)
	opts := bandjoin.Options{Workers: 3, CollectPairs: true, Seed: 2}
	full, err := bandjoin.Join(fullS, fullT, band, opts)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	const deltas = 8
	sParts := appendSplit(fullS, 400, 500, 600, 700, 800, 900, 1000, 1100)
	tParts := appendSplit(fullT, 400, 500, 600, 700, 800, 900, 1000, 1100)

	for planeName, newEngine := range enginePlanes(t, 3) {
		t.Run(planeName, func(t *testing.T) {
			e := newEngine(bandjoin.EngineOptions{})
			defer e.Close()
			ctx := context.Background()
			if err := e.Register("s", sParts[0]); err != nil {
				t.Fatalf("Register: %v", err)
			}
			if err := e.Register("t", tParts[0]); err != nil {
				t.Fatalf("Register: %v", err)
			}
			if _, err := e.Join(ctx, "s", "t", band, opts); err != nil {
				t.Fatalf("cold Join: %v", err)
			}

			var wg sync.WaitGroup
			errCh := make(chan error, deltas+2*6)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= deltas; i++ {
					if err := e.Append(ctx, "s", sParts[i]); err != nil {
						errCh <- fmt.Errorf("append s %d: %w", i, err)
						return
					}
					if err := e.Append(ctx, "t", tParts[i]); err != nil {
						errCh <- fmt.Errorf("append t %d: %w", i, err)
						return
					}
				}
			}()
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 6; round++ {
						res, err := e.Join(ctx, "s", "t", band, opts)
						if err != nil {
							errCh <- fmt.Errorf("goroutine %d round %d: %w", g, round, err)
							return
						}
						if res.InputS < 400 || res.InputS > 1200 {
							errCh <- fmt.Errorf("goroutine %d round %d: |S| = %d outside any append prefix", g, round, res.InputS)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}

			res, err := e.Join(ctx, "s", "t", band, opts)
			if err != nil {
				t.Fatalf("settled Join: %v", err)
			}
			if res.InputS != fullS.Len() || res.InputT != fullT.Len() {
				t.Fatalf("settled query saw |S|=%d |T|=%d, want %d/%d", res.InputS, res.InputT, fullS.Len(), fullT.Len())
			}
			if res.Output != full.Output {
				t.Errorf("settled output = %d, fresh rebuild = %d", res.Output, full.Output)
			}
			pairsEqual(t, "settled append vs rebuild", res.Pairs, full.Pairs)
		})
	}
}

// TestEngineAppendReplansFromMergedSample: the planner reads the input sample
// through sorted columns cached with it, built by the first plan. An append
// merges the delta into a new sample; a plan made afterwards must read that
// one's rows, never the views of the sample it replaced. The oracle is what
// the serial reference grower — which read the row-major sample and cached
// nothing — planned for the same history on the last commit that had it: the
// recorded accounting of both plans' runs.
func TestEngineAppendReplansFromMergedSample(t *testing.T) {
	fullS, fullT := bandjoin.Pareto(3, 1.5, 30000, 17)
	baseS, deltaS := fullS.Slice("s", 0, 20000), fullS.Slice("d", 20000, 30000)
	baseT, deltaT := fullT.Slice("t", 0, 20000), fullT.Slice("d", 20000, 30000)
	before, after := bandjoin.Uniform(3, 0.03), bandjoin.Uniform(3, 0.04)

	run := func() (*bandjoin.Result, *bandjoin.Result) {
		e := bandjoin.NewEngine(bandjoin.EngineOptions{})
		defer e.Close()
		ctx := context.Background()
		opts := bandjoin.Options{Workers: 6, Seed: 5, InputSampleSize: 4000, OutputSampleSize: 1000,
			Partitioner: bandjoin.RecPartWith(bandjoin.RecPartOptions{Symmetric: true})}
		for name, r := range map[string]*bandjoin.Relation{"s": baseS, "t": baseT} {
			if err := e.Register(name, r); err != nil {
				t.Fatalf("Register: %v", err)
			}
		}
		first, err := e.Join(ctx, "s", "t", before, opts) // plans: the grower's columns now exist
		if err != nil {
			t.Fatalf("Join before append: %v", err)
		}
		// The resident-sample gauge counts those columns beside the keys: 20
		// bytes (8 key, 8 column, 4 order) for each of 4000 rows × 3 dimensions.
		var prom strings.Builder
		e.Metrics().WritePrometheus(&prom)
		if want := `bandjoin_engine_cache_bytes{tier="sample"} 240000`; !strings.Contains(prom.String(), want+"\n") {
			t.Errorf("engine /metrics missing %q", want)
		}
		if err := e.Append(ctx, "s", deltaS); err != nil {
			t.Fatalf("Append(s): %v", err)
		}
		if err := e.Append(ctx, "t", deltaT); err != nil {
			t.Fatalf("Append(t): %v", err)
		}
		second, err := e.Join(ctx, "s", "t", after, opts) // a new band: plans again, from the merged sample
		if err != nil {
			t.Fatalf("Join after append: %v", err)
		}
		if st := e.Stats(); st.CachedSamples != 1 || st.SampleHits != 1 || st.PlanHits != 0 {
			t.Fatalf("%d cached samples, %d sample hits, %d plan hits; want one sample merged in place and two plans",
				st.CachedSamples, st.SampleHits, st.PlanHits)
		}
		return first, second
	}
	first, second := run()
	for _, c := range []struct {
		when string
		got  *bandjoin.Result
		want string // partitions, I, O, Im, Om, per-worker input and output
	}{
		{"before", first, "24 42145 13485 7593 931 [6892 6845 7102 6648 7065 7593] [1344 3832 972 3885 2521 931]"},
		{"after", second, "18 63659 70810 10053 16689 [10053 9572 9063 9975 12400 12596] [16689 15441 16692 12566 5066 4356]"},
	} {
		g := c.got
		if got := fmt.Sprint(g.Partitions, g.TotalInput, g.Output, g.Im, g.Om, g.WorkerInput, g.WorkerOutput); got != c.want {
			t.Errorf("%s the append the plan ran as partitions, I, O, Im, Om, worker inputs and outputs\n%s, the serial grower's as\n%s", c.when, got, c.want)
		}
	}
}
