package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

// skewedInputs builds a point-mass workload: roughly half of S sits on one
// point, so any spatial partitioner routes it to a single partition — the
// dominant-partition shape the morsel scheduler is for.
func skewedInputs(n int, seed int64) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(2, 1.5, n, seed)
	sk := data.NewRelation("S", 2)
	for i := 0; i < s.Len(); i++ {
		if i%2 == 0 {
			sk.Append(0.5, 0.5)
		} else {
			sk.Append(s.Key(i)...)
		}
	}
	return sk, t, data.Symmetric(0.2, 0.2)
}

// TestMorselMatchesPerPartitionOracle: for every morsel granularity — auto,
// pathological 1-row morsels, and fixed sizes — the morsel-driven reduce phase
// produces output bit-identical to the per-partition schedule (MorselRows < 0,
// every partition one morsel), whose pairs are the band-join definition's, on
// uniform and point-mass skewed inputs, and on the band shapes of
// bandShapeInputs.
func TestMorselMatchesPerPartitionOracle(t *testing.T) {
	cases := bandShapeInputs(600, 11)
	{
		s, tt, band := testInputs(600, 11)
		cases["pareto"] = joinInputs{s, tt, band}
		s, tt, band = skewedInputs(700, 17)
		cases["skewed"] = joinInputs{s, tt, band}
	}
	for caseName, in := range cases {
		t.Run(caseName, func(t *testing.T) {
			opts := DefaultOptions(4)
			opts.CollectPairs = true
			opts.Seed = 3
			opts.MorselRows = -1 // the per-partition oracle
			oracle, err := runQuery(core.NewRecPartS(), in.s, in.t, in.band, opts)
			if err != nil {
				t.Fatalf("oracle Run: %v", err)
			}
			if oracle.Output == 0 {
				t.Fatal("oracle produced no pairs; widen the band")
			}
			var want []Pair
			localjoin.NestedLoop{}.Join(in.s, in.t, in.band, func(si, ti int, _, _ []float64) {
				want = append(want, Pair{S: int64(si), T: int64(ti)})
			})
			if !slices.Equal(oracle.Pairs, want) {
				t.Fatalf("per-partition schedule: %d pairs, the definition has %d (or they differ)", len(oracle.Pairs), len(want))
			}
			// One morsel per partition with S rows.
			if oracle.Morsels == 0 || oracle.Morsels > int64(oracle.Partitions) {
				t.Errorf("per-partition schedule ran %d morsels over %d partitions", oracle.Morsels, oracle.Partitions)
			}
			for _, rows := range []int{0, 1, 7, 64} {
				opts.MorselRows = rows
				got, err := runQuery(core.NewRecPartS(), in.s, in.t, in.band, opts)
				if err != nil {
					t.Fatalf("morsel Run (rows=%d): %v", rows, err)
				}
				if got.Output != oracle.Output || got.TotalInput != oracle.TotalInput ||
					got.Im != oracle.Im || got.Om != oracle.Om {
					t.Fatalf("rows=%d: accounting (out=%d I=%d Im=%d Om=%d) differs from oracle (out=%d I=%d Im=%d Om=%d)",
						rows, got.Output, got.TotalInput, got.Im, got.Om,
						oracle.Output, oracle.TotalInput, oracle.Im, oracle.Om)
				}
				if len(got.Pairs) != len(oracle.Pairs) {
					t.Fatalf("rows=%d: %d pairs, oracle %d", rows, len(got.Pairs), len(oracle.Pairs))
				}
				for i := range oracle.Pairs {
					if got.Pairs[i] != oracle.Pairs[i] {
						t.Fatalf("rows=%d: pair %d = %v, oracle %v", rows, i, got.Pairs[i], oracle.Pairs[i])
					}
				}
				if rows >= 0 && got.Morsels == 0 {
					t.Errorf("rows=%d: morsel path reported zero morsels", rows)
				}
				if got.StragglerRatio < 1.0 {
					t.Errorf("rows=%d: straggler ratio %f < 1", rows, got.StragglerRatio)
				}
			}
		})
	}
}

// TestResolveMorselRows pins the knob convention and the auto-sizing bounds.
func TestResolveMorselRows(t *testing.T) {
	if got := ResolveMorselRows(128, 8, 1_000_000); got != 128 {
		t.Errorf("explicit size not honored: got %d", got)
	}
	// One worker: striping cannot help, auto collapses to whole partitions.
	if got := ResolveMorselRows(0, 1, 50_000); got != 50_000 {
		t.Errorf("parallelism 1 should yield whole-partition morsels, got %d", got)
	}
	// Auto is clamped to [autoMorselMin, autoMorselMax].
	if got := ResolveMorselRows(0, 4, 2_000); got != autoMorselMin {
		t.Errorf("small partitions should clamp to %d, got %d", autoMorselMin, got)
	}
	if got := ResolveMorselRows(0, 2, 100_000_000); got != autoMorselMax {
		t.Errorf("huge partitions should clamp to %d, got %d", autoMorselMax, got)
	}
	// The largest partition alone should split into ~8 morsels per worker.
	if got := ResolveMorselRows(0, 4, 1_000_000); got != 1_000_000/(autoMorselPerWorker*4) {
		t.Errorf("auto sizing off: got %d", got)
	}
	if got := ResolveMorselRows(0, 4, 0); got < 1 {
		t.Errorf("empty input must still yield a positive size, got %d", got)
	}
}

// TestRunMorselsStealAccounting forces a deterministic steal: one job split
// into two morsels where the first claimer blocks until the second morsel has
// run, so the second morsel is necessarily executed by the other worker.
func TestRunMorselsStealAccounting(t *testing.T) {
	release := make(chan struct{})
	jobs := []MorselJob{{
		Rows: 2,
		Run: func(lo, hi int, emit localjoin.Emit) int64 {
			if lo == 0 {
				<-release // hold the first morsel until the second finishes
			} else {
				close(release)
			}
			return int64(hi - lo)
		},
	}}
	res, stats, err := RunMorsels(context.Background(), jobs, 1, 2, false)
	if err != nil {
		t.Fatalf("RunMorsels: %v", err)
	}
	if res[0].Count != 2 {
		t.Errorf("count = %d, want 2", res[0].Count)
	}
	if stats.Morsels != 2 {
		t.Errorf("morsels = %d, want 2", stats.Morsels)
	}
	if stats.Steals != 1 {
		t.Errorf("steals = %d, want exactly 1 (two workers had to share the job)", stats.Steals)
	}
	if stats.StragglerRatio != 1.0 {
		t.Errorf("single-job straggler ratio = %f, want 1", stats.StragglerRatio)
	}
}

// TestRunMorselsStragglerRatio checks the skew gauge: one 300-row job among
// three 100-row jobs gives max/mean = 300/150 = 2.
func TestRunMorselsStragglerRatio(t *testing.T) {
	run := func(lo, hi int, _ localjoin.Emit) int64 { return int64(hi - lo) }
	jobs := []MorselJob{{Rows: 300, Run: run}, {Rows: 100, Run: run}, {Rows: 100, Run: run}, {Rows: 100, Run: run}, {Rows: 0, Run: run}}
	_, stats, err := RunMorsels(context.Background(), jobs, 50, 2, false)
	if err != nil {
		t.Fatalf("RunMorsels: %v", err)
	}
	if stats.StragglerRatio != 2.0 {
		t.Errorf("straggler ratio = %f, want 2 (empty jobs excluded from the mean)", stats.StragglerRatio)
	}
	if stats.Morsels != 12 {
		t.Errorf("morsels = %d, want 12", stats.Morsels)
	}
}

// TestRunMorselsOversizedParallelism: Worker.Join passes a parallelism that
// arrives over the network. One far beyond the row count must run exactly the
// morsels of one worker per row — the most that can help — instead of
// overflowing the build-slot count (math.MaxInt) or the auto morsel size's
// divisor (math.MaxInt/2+1, whose product with autoMorselPerWorker wraps to 0).
func TestRunMorselsOversizedParallelism(t *testing.T) {
	run := func(lo, hi int, _ localjoin.Emit) int64 { return int64(hi - lo) }
	build := func() (RangeRun, func()) { return run, nil }
	jobs := []MorselJob{{Rows: 3000, Build: build}, {Rows: 40, Run: run}, {Rows: 0, Build: build}, {Rows: 7, Build: build}}
	const totalRows = 3047
	for _, rows := range []int{0, 16, -1} {
		_, want, err := RunMorsels(context.Background(), jobs, rows, totalRows, false)
		if err != nil {
			t.Fatalf("MorselRows=%d, parallelism %d: %v", rows, totalRows, err)
		}
		for _, parallelism := range []int{math.MaxInt, math.MaxInt/2 + 1} {
			res, stats, err := RunMorsels(context.Background(), jobs, rows, parallelism, false)
			if err != nil {
				t.Fatalf("MorselRows=%d, parallelism %d: %v", rows, parallelism, err)
			}
			for j := range jobs {
				if res[j].Count != int64(jobs[j].Rows) {
					t.Errorf("MorselRows=%d, parallelism %d: job %d counted %d of %d rows", rows, parallelism, j, res[j].Count, jobs[j].Rows)
				}
			}
			if stats.Morsels != want.Morsels {
				t.Errorf("MorselRows=%d, parallelism %d: %d morsels, one worker per row runs %d", rows, parallelism, stats.Morsels, want.Morsels)
			}
		}
	}
}

// TestRunMorselsCancel: a canceled context stops the schedule at the next
// claim and surfaces the context error.
func TestRunMorselsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []MorselJob{{Rows: 1000, Run: func(lo, hi int, _ localjoin.Emit) int64 { return 0 }}}
	if _, _, err := RunMorsels(ctx, jobs, 10, 2, false); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMorselSteadyStateAllocs asserts the CI allocation criterion for the
// morsel hot path: after the prepared structure's scratch pools are warm, the
// per-morsel cost of a count-only schedule is allocation-free — the fixed
// per-RunMorsels setup (queue, slots, worker goroutines) amortizes to ~0 over
// the morsels of a realistic partition.
func TestMorselSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady state not observable")
	}
	s, tt := data.ParetoPair(3, 1.5, 20_000, 42)
	band := data.Uniform(3, 0.001)
	prep := localjoin.Prepare(s, tt, band)
	jobs := []MorselJob{{
		Rows: s.Len(),
		Run:  func(lo, hi int, emit localjoin.Emit) int64 { return prep.ProbeRange(s, lo, hi, emit) },
	}}
	const rows = 64
	nMorsels := (s.Len() + rows - 1) / rows
	run := func() {
		if _, _, err := RunMorsels(context.Background(), jobs, rows, 4, false); err != nil {
			t.Fatalf("RunMorsels: %v", err)
		}
	}
	run() // warm the scratch pools
	perRun := testing.AllocsPerRun(5, run)
	perMorsel := perRun / float64(nMorsels)
	if perMorsel > 0.1 {
		t.Errorf("morsel hot path allocates %.3f per morsel (%.0f per run over %d morsels), want ~0",
			perMorsel, perRun, nMorsels)
	}
}

// TestRunMorselsLazyBuild pins the lazy-build contract on jobs of uneven sizes
// whose builds take uneven times: every job with rows is built exactly once
// and released exactly once, after its last morsel, and nothing of it runs
// after the release; zero-row jobs are never built; the jobs built and not
// yet released never exceed buildsPerWorker × parallelism. Once a context is
// cancelled no worker that has seen it starts a Build — only one that checked
// just before may still enter its Build, so with one worker none does — and
// RunMorsels releases what was built and leaves no goroutine behind.
func TestRunMorselsLazyBuild(t *testing.T) {
	const morselRows = 4
	sizes := []int{37, 0, 5, 64, 1, 0, 23, 9, 16, 3, 41, 2, 8, 12, 30, 7, 50, 19}
	type record struct {
		builds, releases, ran atomic.Int64
		released              atomic.Bool
	}
	// jobsFor returns the jobs over sizes and their records; Build counts in
	// late the builds it enters with ctx already cancelled, then calls hook.
	jobsFor := func(t *testing.T, ctx context.Context, late *atomic.Int64, hook func(j int)) ([]MorselJob, []record, *atomic.Int64, *atomic.Int64) {
		recs := make([]record, len(sizes))
		var inflight, maxInflight atomic.Int64
		jobs := make([]MorselJob, len(sizes))
		for j, rows := range sizes {
			r := &recs[j]
			morsels := int64((rows + morselRows - 1) / morselRows)
			jobs[j] = MorselJob{Rows: rows, Build: func() (RangeRun, func()) {
				if ctx.Err() != nil {
					late.Add(1)
				}
				hook(j)
				r.builds.Add(1)
				n := inflight.Add(1)
				for m := maxInflight.Load(); n > m && !maxInflight.CompareAndSwap(m, n); m = maxInflight.Load() {
				}
				time.Sleep(time.Duration(j%3) * 200 * time.Microsecond)
				run := func(lo, hi int, _ localjoin.Emit) int64 {
					if r.released.Load() {
						t.Errorf("job %d: a morsel ran after the release", j)
					}
					r.ran.Add(1)
					return int64(hi - lo)
				}
				return run, func() {
					if got := r.ran.Load(); got != morsels && ctx.Err() == nil {
						t.Errorf("job %d released after %d of its %d morsels", j, got, morsels)
					}
					r.released.Store(true)
					r.releases.Add(1)
					inflight.Add(-1)
				}
			}}
		}
		return jobs, recs, &inflight, &maxInflight
	}
	for _, p := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			var late atomic.Int64
			jobs, recs, inflight, maxInflight := jobsFor(t, context.Background(), &late, func(int) {})
			res, _, err := RunMorsels(context.Background(), jobs, morselRows, p, false)
			if err != nil {
				t.Fatalf("RunMorsels: %v", err)
			}
			for j, rows := range sizes {
				want := int64(0)
				if rows > 0 {
					want = 1
				}
				if b, r := recs[j].builds.Load(), recs[j].releases.Load(); b != want || r != want {
					t.Errorf("job %d (%d rows): %d builds and %d releases, want %d of each", j, rows, b, r, want)
				}
				if res[j].Count != int64(rows) {
					t.Errorf("job %d: count %d, want %d", j, res[j].Count, rows)
				}
			}
			if inflight.Load() != 0 {
				t.Errorf("%d jobs left unreleased", inflight.Load())
			}
			if m := maxInflight.Load(); m > int64(buildsPerWorker*p) {
				t.Errorf("%d jobs built and unfinished at once, the bound is %d", m, buildsPerWorker*p)
			}
		})
		t.Run(fmt.Sprintf("parallelism=%d/cancelled", p), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started, late atomic.Int64
			jobs, recs, inflight, _ := jobsFor(t, ctx, &late, func(int) {
				if started.Add(1) == 3 {
					cancel()
				}
			})
			if _, _, err := RunMorsels(ctx, jobs, morselRows, p, false); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			var builds int64
			for j := range recs {
				if b, r := recs[j].builds.Load(), recs[j].releases.Load(); b != r || b > 1 {
					t.Errorf("job %d: %d builds, %d releases", j, b, r)
				}
				builds += recs[j].builds.Load()
			}
			if builds == 0 || builds > int64(min(len(sizes), 2+p)) {
				t.Errorf("%d builds around a cancellation in the third", builds)
			}
			if inflight.Load() != 0 {
				t.Errorf("%d built jobs left unreleased", inflight.Load())
			}
			if n := late.Load(); n > int64(p-1) {
				t.Errorf("%d builds started after the cancellation; at most the %d other workers may have checked just before", n, p-1)
			}
			// Pre-cancelled: nothing is built at all.
			jobs, recs, _, _ = jobsFor(t, ctx, &late, func(int) {})
			if _, _, err := RunMorsels(ctx, jobs, morselRows, p, false); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
			}
			for j := range recs {
				if recs[j].builds.Load() != 0 {
					t.Errorf("pre-cancelled: job %d built", j)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the cancelled runs, %d before", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

// TestRunMorselsCountsBuildTime: a job's busy time includes its build, so a
// partition prepared inside the scheduler is charged for it like one joined
// whole.
func TestRunMorselsCountsBuildTime(t *testing.T) {
	const sleep = 20 * time.Millisecond
	jobs := []MorselJob{{Rows: 100, Build: func() (RangeRun, func()) {
		time.Sleep(sleep)
		return func(lo, hi int, _ localjoin.Emit) int64 { return int64(hi - lo) }, nil
	}}}
	for _, rows := range []int{0, 10, -1} {
		res, _, err := RunMorsels(context.Background(), jobs, rows, 2, false)
		if err != nil {
			t.Fatalf("RunMorsels: %v", err)
		}
		if res[0].Nanos < sleep.Nanoseconds() || res[0].Count != 100 {
			t.Errorf("morselRows=%d: %v busy and %d pairs, want at least the %v build and 100", rows, time.Duration(res[0].Nanos), res[0].Count, sleep)
		}
	}
}
