package bandjoin_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bandjoin"
)

// enginePlanes enumerates the two execution planes behind one test body. The
// cleanup funcs stop local clusters.
func enginePlanes(t *testing.T, workers int) map[string]func(bandjoin.EngineOptions) *bandjoin.Engine {
	t.Helper()
	cl, err := bandjoin.StartLocalCluster(workers)
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	t.Cleanup(cl.Close)
	return map[string]func(bandjoin.EngineOptions) *bandjoin.Engine{
		"in-process": bandjoin.NewEngine,
		"cluster":    cl.NewEngine,
	}
}

func pairsEqual(t *testing.T, label string, a, b []bandjoin.Pair) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: pair counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: pair %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func TestEngineRegisterAndJoin(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 800, 5)
	band := bandjoin.Uniform(2, 0.1)
	opts := bandjoin.Options{Workers: 4, CollectPairs: true, Seed: 9}

	oracle, err := bandjoin.Join(s, tt, band, opts)
	if err != nil {
		t.Fatalf("one-shot Join: %v", err)
	}

	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res, err := e.Join(context.Background(), "s", "t", band, opts)
	if err != nil {
		t.Fatalf("Engine.Join: %v", err)
	}
	if res.Output != oracle.Output || res.TotalInput != oracle.TotalInput {
		t.Errorf("engine (I=%d out=%d) disagrees with one-shot Join (I=%d out=%d)",
			res.TotalInput, res.Output, oracle.TotalInput, oracle.Output)
	}
	pairsEqual(t, "engine vs one-shot", res.Pairs, oracle.Pairs)

	if _, err := e.Join(context.Background(), "s", "nope", band, opts); err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Errorf("join of unknown dataset: err = %v", err)
	}
	if _, err := e.Join(context.Background(), "s", "t", bandjoin.Uniform(3, 0.1), opts); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// TestEngineWarmCacheEquivalence is the plan/sample-cache equivalence
// guarantee: a warm-cache rerun must report identical Result accounting
// (I, Im, Om, pairs) to the cold run, across partitioner families and both
// planes; on the cluster plane the warm rerun must additionally move zero
// shuffle bytes.
func TestEngineWarmCacheEquivalence(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.4, 700, 21)
	band := bandjoin.Uniform(2, 0.15)
	partitioners := map[string]bandjoin.Partitioner{
		"RecPart":   bandjoin.RecPart(),
		"RecPart-S": bandjoin.RecPartS(),
		"1-Bucket":  bandjoin.OneBucket(),
		"Grid-eps":  bandjoin.GridEps(),
	}

	for planeName, newEngine := range enginePlanes(t, 3) {
		e := newEngine(bandjoin.EngineOptions{})
		defer e.Close()
		if err := e.Register("s", s); err != nil {
			t.Fatalf("Register: %v", err)
		}
		if err := e.Register("t", tt); err != nil {
			t.Fatalf("Register: %v", err)
		}
		for ptName, pt := range partitioners {
			t.Run(planeName+"/"+ptName, func(t *testing.T) {
				opts := bandjoin.Options{Workers: 3, Partitioner: pt, CollectPairs: true, Seed: 3}
				cold, err := e.Join(context.Background(), "s", "t", band, opts)
				if err != nil {
					t.Fatalf("cold Join: %v", err)
				}
				warm, err := e.Join(context.Background(), "s", "t", band, opts)
				if err != nil {
					t.Fatalf("warm Join: %v", err)
				}
				if warm.TotalInput != cold.TotalInput || warm.Output != cold.Output ||
					warm.Im != cold.Im || warm.Om != cold.Om {
					t.Errorf("warm accounting differs: cold (I=%d Im=%d Om=%d out=%d), warm (I=%d Im=%d Om=%d out=%d)",
						cold.TotalInput, cold.Im, cold.Om, cold.Output,
						warm.TotalInput, warm.Im, warm.Om, warm.Output)
				}
				pairsEqual(t, "cold vs warm", cold.Pairs, warm.Pairs)
				if planeName == "cluster" {
					if cold.ShuffleBytes == 0 {
						t.Error("cold cluster run reports zero shuffle bytes")
					}
					if warm.ShuffleBytes != 0 || warm.ShuffleRPCs != 0 {
						t.Errorf("warm cluster run shuffled: bytes=%d rpcs=%d, want 0/0", warm.ShuffleBytes, warm.ShuffleRPCs)
					}
				}
			})
		}
		st := e.Stats()
		if st.PlanHits < int64(len(partitioners)) {
			t.Errorf("%s: plan hits = %d, want >= %d (one per warm rerun)", planeName, st.PlanHits, len(partitioners))
		}
		if st.CachedSamples != 1 {
			t.Errorf("%s: %d cached samples, want 1 (shared across partitioners)", planeName, st.CachedSamples)
		}
	}
}

// TestEngineSampleReuseAcrossBands: replanning the same pair for a new ε is a
// sample-cache hit (no input rescan) but a plan-cache miss.
func TestEngineSampleReuseAcrossBands(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 600, 8)
	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	opts := bandjoin.Options{Workers: 4}
	for i, eps := range []float64{0.05, 0.1, 0.2} {
		if _, err := e.Join(context.Background(), "s", "t", bandjoin.Uniform(2, eps), opts); err != nil {
			t.Fatalf("Join(eps=%g): %v", eps, err)
		}
		st := e.Stats()
		if st.CachedSamples != 1 {
			t.Fatalf("after %d bands: %d cached samples, want 1", i+1, st.CachedSamples)
		}
		if st.CachedPlans != i+1 {
			t.Fatalf("after %d bands: %d cached plans, want %d", i+1, st.CachedPlans, i+1)
		}
		if st.SampleHits != int64(i) {
			t.Fatalf("after %d bands: %d sample hits, want %d", i+1, st.SampleHits, i)
		}
	}
}

// TestEngineSampleGaugeCountsRungs: a second band of one input sample is
// filtered from a rung's cached pair list, which the resident-sample gauge
// counts; a third band under the same rung adds nothing.
func TestEngineSampleGaugeCountsRungs(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 600, 8)
	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	gauge := func() float64 {
		var prom strings.Builder
		e.Metrics().WritePrometheus(&prom)
		const name = `bandjoin_engine_cache_bytes{tier="sample"} `
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
	// 0.102 and 0.104 round up onto the same rung, 2^(-13/4) ≈ 0.1051.
	var got []float64
	for _, eps := range []float64{0.1, 0.102, 0.104} {
		if _, err := e.Join(context.Background(), "s", "t", bandjoin.Uniform(2, eps), bandjoin.Options{EstimateOnly: true}); err != nil {
			t.Fatalf("Join(eps=%g): %v", eps, err)
		}
		got = append(got, gauge())
	}
	if !(got[1] > got[0]) || got[2] != got[1] {
		t.Errorf("sample gauge after bands 0.1, 0.102, 0.104 = %v; want a rise at the second band and none at the third", got)
	}
}

// TestEngineConcurrentJoins hammers one engine with concurrent queries of
// several shapes on both planes; run under -race (as CI does) it verifies the
// cache and registry locking, and every result must be bit-identical to the
// serial one-shot oracle.
func TestEngineConcurrentJoins(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.4, 500, 31)
	queries := []struct {
		band bandjoin.Band
		opts bandjoin.Options
	}{
		{bandjoin.Uniform(2, 0.1), bandjoin.Options{Workers: 3, CollectPairs: true, Seed: 2}},
		{bandjoin.Uniform(2, 0.25), bandjoin.Options{Workers: 3, CollectPairs: true, Seed: 2}},
		{bandjoin.Uniform(2, 0.1), bandjoin.Options{Workers: 3, Partitioner: bandjoin.OneBucket(), CollectPairs: true, Seed: 2}},
		{bandjoin.Uniform(2, 0.25), bandjoin.Options{Workers: 3, Partitioner: bandjoin.GridEps(), CollectPairs: true, Seed: 2}},
	}
	// The serial one-shot path is the oracle.
	oracles := make([]*bandjoin.Result, len(queries))
	for i, q := range queries {
		res, err := bandjoin.Join(s, tt, q.band, q.opts)
		if err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
		oracles[i] = res
	}

	for planeName, newEngine := range enginePlanes(t, 3) {
		t.Run(planeName, func(t *testing.T) {
			e := newEngine(bandjoin.EngineOptions{})
			defer e.Close()
			if err := e.Register("s", s); err != nil {
				t.Fatalf("Register: %v", err)
			}
			if err := e.Register("t", tt); err != nil {
				t.Fatalf("Register: %v", err)
			}
			const goroutines = 8
			const rounds = 3
			var wg sync.WaitGroup
			errCh := make(chan error, goroutines*rounds)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						qi := (g + round) % len(queries)
						res, err := e.Join(context.Background(), "s", "t", queries[qi].band, queries[qi].opts)
						if err != nil {
							errCh <- fmt.Errorf("goroutine %d round %d: %w", g, round, err)
							return
						}
						want := oracles[qi]
						if res.Output != want.Output || res.TotalInput != want.TotalInput {
							errCh <- fmt.Errorf("goroutine %d round %d: (I=%d out=%d), oracle (I=%d out=%d)",
								g, round, res.TotalInput, res.Output, want.TotalInput, want.Output)
							return
						}
						if len(res.Pairs) != len(want.Pairs) {
							errCh <- fmt.Errorf("goroutine %d round %d: %d pairs, oracle %d", g, round, len(res.Pairs), len(want.Pairs))
							return
						}
						for i := range res.Pairs {
							if res.Pairs[i] != want.Pairs[i] {
								errCh <- fmt.Errorf("goroutine %d round %d: pair %d = %v, oracle %v", g, round, i, res.Pairs[i], want.Pairs[i])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentFirstQueriesFillOnce: on both planes, eight concurrent first
// queries of one plan give the one-shot oracle's pairs, and exactly one of them
// fills (in process) or ships (on the cluster) the retained partitions — the
// entry's Fill lock makes the others wait and join warm. On the cluster the
// queries' chunk frames sum to one cold shipment's, which an engine of its own
// measures on the same workers.
func TestConcurrentFirstQueriesFillOnce(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.4, 600, 37)
	band := bandjoin.Uniform(2, 0.15)
	opts := bandjoin.Options{Workers: 3, CollectPairs: true, Seed: 5}
	oracle, err := bandjoin.Join(s, tt, band, opts)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	engine := func(t *testing.T, newEngine func(bandjoin.EngineOptions) *bandjoin.Engine) *bandjoin.Engine {
		t.Helper()
		e := newEngine(bandjoin.EngineOptions{})
		t.Cleanup(e.Close)
		for name, r := range map[string]*bandjoin.Relation{"s": s, "t": tt} {
			if err := e.Register(name, r); err != nil {
				t.Fatalf("Register: %v", err)
			}
		}
		return e
	}

	for planeName, newEngine := range enginePlanes(t, 3) {
		t.Run(planeName, func(t *testing.T) {
			cold, err := engine(t, newEngine).Join(context.Background(), "s", "t", band, opts)
			if err != nil {
				t.Fatalf("reference cold Join: %v", err)
			}
			e := engine(t, newEngine)
			const goroutines = 8
			results := make([]*bandjoin.Result, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[g], errs[g] = e.Join(context.Background(), "s", "t", band, opts)
				}()
			}
			wg.Wait()
			coldRuns, rpcs := 0, int64(0)
			for g, res := range results {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				pairsEqual(t, fmt.Sprintf("goroutine %d vs one-shot", g), res.Pairs, oracle.Pairs)
				if !res.WarmPartitions {
					coldRuns++
				}
				rpcs += res.ShuffleRPCs
			}
			if coldRuns != 1 {
				t.Errorf("%d of %d first queries ran cold, want exactly 1", coldRuns, goroutines)
			}
			if planeName == "cluster" && (rpcs != cold.ShuffleRPCs || rpcs == 0) {
				t.Errorf("the first queries shipped %d chunk frames in all, one cold shipment ships %d", rpcs, cold.ShuffleRPCs)
			}
		})
	}
}

// TestEngineUnregisterInvalidates: replacing or removing a dataset must
// invalidate cached samples and plans so no query ever serves stale data.
func TestEngineUnregisterInvalidates(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 400, 3)
	band := bandjoin.Uniform(2, 0.2)
	opts := bandjoin.Options{Workers: 2, CollectPairs: true}

	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	res1, err := e.Join(context.Background(), "s", "t", band, opts)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}

	// Replace T with a half-sized relation; the same query must see it.
	smaller := bandjoin.NewRelation("t2", 2)
	for i := 0; i < tt.Len()/2; i++ {
		smaller.AppendKey(tt.Key(i))
	}
	if err := e.Register("t", smaller); err != nil {
		t.Fatalf("re-Register: %v", err)
	}
	res2, err := e.Join(context.Background(), "s", "t", band, opts)
	if err != nil {
		t.Fatalf("Join after re-Register: %v", err)
	}
	if res2.InputT != smaller.Len() {
		t.Errorf("query after re-Register saw |T| = %d, want %d", res2.InputT, smaller.Len())
	}
	want, err := bandjoin.Join(s, smaller, band, opts)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if res2.Output != want.Output {
		t.Errorf("output after re-Register = %d, want %d (stale cache?)", res2.Output, want.Output)
	}
	if res2.Output == res1.Output && len(res1.Pairs) != len(res2.Pairs) {
		t.Errorf("inconsistent pair accounting after re-Register")
	}

	if err := e.Unregister("t"); err != nil {
		t.Fatalf("Unregister: %v", err)
	}
	if _, err := e.Join(context.Background(), "s", "t", band, opts); err == nil {
		t.Error("join of unregistered dataset accepted")
	}
	if err := e.Unregister("t"); err == nil {
		t.Error("double Unregister accepted")
	}
	if got := len(e.Datasets()); got != 1 {
		t.Errorf("%d datasets registered, want 1", got)
	}
}

// TestEngineEstimateOnly: EstimateOnly queries run the optimizer but not the
// data plane, on both planes, and benefit from the same caches.
func TestEngineEstimateOnly(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 900, 4)
	band := bandjoin.Uniform(2, 0.1)
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
			res, err := e.Join(context.Background(), "s", "t", band, bandjoin.Options{EstimateOnly: true})
			if err != nil {
				t.Fatalf("EstimateOnly Join: %v", err)
			}
			if res.TotalInput <= 0 || res.Output <= 0 {
				t.Errorf("estimate reports I=%d out=%d, want positive", res.TotalInput, res.Output)
			}
			if res.ShuffleBytes != 0 {
				t.Errorf("estimate moved %d bytes", res.ShuffleBytes)
			}
		})
	}
}

// TestOptionsValidation: nonsensical knobs must be rejected by every entry
// point sharing the resolver, not silently defaulted.
func TestOptionsValidation(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 100, 1)
	band := bandjoin.Uniform(2, 0.5)
	bad := []bandjoin.Options{
		{Workers: -1},
		{InputSampleSize: -100},
	}
	for i, opts := range bad {
		if _, err := bandjoin.Join(s, tt, band, opts); err == nil {
			t.Errorf("Join accepted bad options %d: %+v", i, opts)
		}
	}

	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i, opts := range bad {
		if _, err := e.Join(context.Background(), "s", "t", band, opts); err == nil {
			t.Errorf("Engine.Join accepted bad options %d: %+v", i, opts)
		}
	}
	if err := e.Register("", s); err == nil {
		t.Error("empty dataset name accepted")
	}
	if err := e.Register("x", nil); err == nil {
		t.Error("nil relation accepted")
	}

	cl, err := bandjoin.StartLocalCluster(2)
	if err != nil {
		t.Fatalf("StartLocalCluster: %v", err)
	}
	defer cl.Close()
	for i, opts := range bad {
		if _, err := cl.Join(s, tt, band, opts); err == nil {
			t.Errorf("Cluster.Join accepted bad options %d: %+v", i, opts)
		}
	}
}

// TestEngineClosedRejectsQueries: a closed engine fails loudly instead of
// serving from released caches.
func TestEngineClosedRejectsQueries(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 100, 1)
	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Join(context.Background(), "s", "t", bandjoin.Uniform(2, 0.5), bandjoin.Options{}); err == nil {
		t.Error("closed engine served a query")
	}
	if err := e.Register("u", s); err == nil {
		t.Error("closed engine accepted a registration")
	}
}

// TestEngineContextCancellation: an already-cancelled context aborts the
// query at a stage boundary.
func TestEngineContextCancellation(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 300, 2)
	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Join(ctx, "s", "t", bandjoin.Uniform(2, 0.5), bandjoin.Options{}); err == nil {
		t.Error("cancelled context did not abort the query")
	}
}

// TestEngineWarmOptimizationTimeIsPerQuery: Result.OptimizationTime reports
// the query's actual planning cost, not the cached plan's stored cost — a
// plan-cache hit must report (approximately) zero, while the cold query that
// populated the cache reports the real optimization time.
func TestEngineWarmOptimizationTimeIsPerQuery(t *testing.T) {
	s, tt := bandjoin.Pareto(3, 1.5, 30_000, 31)
	band := bandjoin.Uniform(3, 0.03)
	opts := bandjoin.Options{Workers: 4, Seed: 5, InputSampleSize: 8000, OutputSampleSize: 4000}

	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
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
	if cold.OptimizationTime <= 0 {
		t.Errorf("cold query reports optimization time %v, want > 0", cold.OptimizationTime)
	}
	warm, err := e.Join(context.Background(), "s", "t", band, opts)
	if err != nil {
		t.Fatalf("warm Join: %v", err)
	}
	// The warm query only hashes a cache key; anything close to the cold
	// query's planning cost means the stored value leaked through again.
	if warm.OptimizationTime > cold.OptimizationTime/2 {
		t.Errorf("warm query reports optimization time %v (cold %v), want ~0 on a plan-cache hit",
			warm.OptimizationTime, cold.OptimizationTime)
	}
}

// TestEngineRetainedWarmMatchesCold: on both planes, the warm queries of a
// retained plan — probing the structures prebuilt when it was sealed — give
// the cold query's pairs, which are the definition's, on every band shape.
func TestEngineRetainedWarmMatchesCold(t *testing.T) {
	planes := enginePlanes(t, 2)
	for shape, in := range bandShapes(900, 41) {
		want := definitionPairs(in.s, in.t, in.band)
		for planeName, newEngine := range planes {
			e := newEngine(bandjoin.EngineOptions{})
			if err := e.Register("s", in.s); err != nil {
				t.Fatalf("Register: %v", err)
			}
			if err := e.Register("t", in.t); err != nil {
				t.Fatalf("Register: %v", err)
			}
			for _, step := range []string{"cold", "warm", "warm again"} {
				res, err := e.Join(context.Background(), "s", "t", in.band, bandjoin.Options{Workers: 3, Seed: 7, CollectPairs: true})
				if err != nil {
					t.Fatalf("%s/%s, %s Join: %v", shape, planeName, step, err)
				}
				pairsEqual(t, fmt.Sprintf("%s/%s, %s: engine vs nested loop", shape, planeName, step), res.Pairs, want)
			}
			e.Close()
		}
	}
}

// TestEnginePlanCacheIgnoresPlannerKnobs: a query with the default
// partitioner and one with an explicit RecPartWith of the same configuration
// produce bit-identical plans, so they must share one cached plan and one
// retained partition set rather than re-optimizing and re-shuffling.
func TestEnginePlanCacheIgnoresPlannerKnobs(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 800, 51)
	band := bandjoin.Uniform(2, 0.1)

	e := bandjoin.NewEngine(bandjoin.EngineOptions{})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.Register("t", tt); err != nil {
		t.Fatalf("Register: %v", err)
	}

	variants := []bandjoin.Options{
		{Workers: 3, Seed: 4},
		{Workers: 3, Seed: 4, Partitioner: bandjoin.RecPartWith(bandjoin.RecPartOptions{Symmetric: true, Seed: 1})},
	}
	for i, opts := range variants {
		if _, err := e.Join(context.Background(), "s", "t", band, opts); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.CachedPlans != 1 {
		t.Errorf("%d cached plans, want 1 (planner knobs must not fragment the plan cache)", st.CachedPlans)
	}
	if st.PlanHits != int64(len(variants)-1) {
		t.Errorf("%d plan hits, want %d", st.PlanHits, len(variants)-1)
	}
}
