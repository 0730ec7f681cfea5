package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// The plan-equivalence regression suite: the fast grower (sort inheritance,
// arena scratch, parallel best-split) must make exactly the decisions of the
// serial reference grower — bit-identical action logs, histories, and plans —
// across partitioner variants, dimensionalities, band shapes, and seeds, and
// regardless of the parallelism level. The serial grower itself is gone: what
// it decided on these workloads was recorded, as hashes, on the last commit
// that had it (where the fast grower produced the same values), beside
// TestPlanGolden's. Run with -race the suite also exercises the worker pool
// and the pooled scratch under concurrency.

// equivCase is one workload configuration of the suite.
type equivCase struct {
	name      string
	dims      int
	symmetric bool
	band      data.Band
	seed      int64
	workers   int
}

// serialOracle holds, per case name, what the serial grower produced:
// hashGrowth of its action log and history, hashAssignments of its plan.
var serialOracle = map[string]struct{ growth, plan uint64 }{
	"d=1/sym=false/seed=1": {0x280ae5d8cba85966, 0x3a24fcfeebee8c63},
	"d=1/sym=false/seed=7": {0xa6029cb40e9d8466, 0x1bffe663e889ea93},
	"d=1/sym=true/seed=1":  {0xf6fb363c332ebe61, 0x5221f4cae1faf6f9},
	"d=1/sym=true/seed=7":  {0x57128e692f0b4d29, 0xf514006d9fc940e6},
	"d=2/sym=false/seed=1": {0xf0777dd6b04f9c46, 0x86577cf738339dc2},
	"d=2/sym=false/seed=7": {0xfc341a46d920169b, 0x555c2c89bcd43eb},
	"d=2/sym=true/seed=1":  {0x4d48d314c46271bd, 0x612947e631e04343},
	"d=2/sym=true/seed=7":  {0xccfcaf087a44bb95, 0xcc8df7d6ba6f2fc6},
	"d=8/sym=false/seed=1": {0x1819b38639e4b7e4, 0x5fb6785d5f63ffe8},
	"d=8/sym=false/seed=7": {0xa13fbedf74e2ab81, 0x5b9b12188e995f21},
	"d=8/sym=true/seed=1":  {0x30ae9f931f59652, 0xc9d80e56b16d96},
	"d=8/sym=true/seed=7":  {0xb3f96f8f95ca0bbd, 0x8a1b686338007e8f},
	"asym/d=2/recpart-s":   {0x66fba760cdf96aa2, 0x14830c084875845f},
	"asym/d=2/recpart":     {0x1571a6a36c7ab9a5, 0xc2dfe33782e321b4},
}

func equivCases() []equivCase {
	var cases []equivCase
	for _, dims := range []int{1, 2, 8} {
		for _, symmetric := range []bool{false, true} {
			for _, seed := range []int64{1, 7} {
				cases = append(cases, equivCase{
					name:      fmt.Sprintf("d=%d/sym=%v/seed=%d", dims, symmetric, seed),
					dims:      dims,
					symmetric: symmetric,
					band:      data.Uniform(dims, 0.05),
					seed:      seed,
					workers:   8,
				})
			}
		}
	}
	// Asymmetric bands exercise the low/high threshold asymmetry of both
	// distribute and the sweep.
	asym2 := data.Asymmetric([]float64{0.0, 0.08}, []float64{0.1, 0.01})
	cases = append(cases,
		equivCase{name: "asym/d=2/recpart-s", dims: 2, symmetric: false, band: asym2, seed: 3, workers: 12},
		equivCase{name: "asym/d=2/recpart", dims: 2, symmetric: true, band: asym2, seed: 3, workers: 12},
	)
	return cases
}

func equivContext(t testing.TB, c equivCase) *partition.Context {
	t.Helper()
	s, tt := data.ParetoPair(c.dims, 1.5, 4000, c.seed)
	smp, err := sample.Draw(s, tt, c.band, sample.Options{InputSampleSize: 1500, OutputSampleSize: 800, Seed: c.seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return &partition.Context{Band: c.band, Workers: c.workers, Sample: smp, Model: costmodel.Default(), Seed: 1}
}

// put64 folds one 64-bit value into h, little-endian.
func put64(h hash.Hash64, bits uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], bits)
	h.Write(buf[:])
}

// hashGrowth folds hashPlan (action log, winning iteration, leaf regions) and
// every field of every history entry into one FNV-1a hash.
func hashGrowth(t *testing.T, env growEnv, chosen int) uint64 {
	t.Helper()
	h := fnv.New64a()
	put64(h, hashPlan(t, env, chosen))
	put64(h, uint64(len(env.history)))
	for _, st := range env.history {
		put64(h, uint64(st.Iteration))
		put64(h, uint64(st.Partitions))
		for _, v := range []float64{st.EstTotalInput, st.DupOverhead, st.EstMaxLoad, st.EstIm, st.EstOm, st.LoadOverhead, st.PredictedTime} {
			put64(h, math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// hashAssignments folds a plan's public outcome — its shape and the partitions
// it routes every sample tuple to — into one FNV-1a hash.
func hashAssignments(p *Plan, smp *sample.Sample) uint64 {
	h := fnv.New64a()
	put64(h, uint64(p.NumPartitions()))
	put64(h, uint64(p.Leaves))
	put64(h, uint64(p.Chosen))
	var dst []int
	fold := func(r *data.Relation, assign func(int64, []float64, []int) []int) {
		for i := 0; i < r.Len(); i++ {
			dst = assign(int64(i), r.Key(i), dst[:0])
			put64(h, uint64(len(dst)))
			for _, pid := range dst {
				put64(h, uint64(pid))
			}
		}
	}
	fold(smp.S, p.AssignS)
	fold(smp.T, p.AssignT)
	return h.Sum64()
}

// TestFastGrowerMatchesSerialOracle pins the fast grower's action logs and
// histories, at two planner pool sizes (GOMAXPROCS), to the serial grower's
// recording.
func TestFastGrowerMatchesSerialOracle(t *testing.T) {
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			ctx := equivContext(t, c)
			for _, par := range []int{1, 4} {
				setGOMAXPROCS(t, par)
				opts := DefaultOptions()
				opts.Symmetric = c.symmetric
				env, chosen := growTree(ctx, opts)
				if got, want := hashGrowth(t, env, chosen), serialOracle[c.name].growth; got != want {
					t.Fatalf("par=%d: %d actions, chosen %d, %d history entries, hash %#x; the serial grower recorded %#x",
						par, len(env.actions), chosen, len(env.history), got, want)
				}
			}
		})
	}
}

// TestFastPlanMatchesSerialPlan pins the public outcome: the Plan assigns
// every sample tuple to the partitions the serial grower's plan sent it to.
func TestFastPlanMatchesSerialPlan(t *testing.T) {
	for _, c := range equivCases() {
		t.Run(c.name, func(t *testing.T) {
			ctx := equivContext(t, c)
			opts := DefaultOptions()
			opts.Symmetric = c.symmetric
			plan, err := New(opts).PlanDetailed(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := hashAssignments(plan, ctx.Sample), serialOracle[c.name].plan; got != want {
				t.Fatalf("%d partitions, %d leaves, chosen %d, assignment hash %#x; the serial grower's plan recorded %#x",
					plan.NumPartitions(), plan.Leaves, plan.Chosen, got, want)
			}
		})
	}
}

// TestConcurrentPlanningMatchesOracle plans the same contexts from many
// goroutines at once — sharing the planner scratch pool and each using a
// parallel best-split pool of GOMAXPROCS 3 — and checks every result against
// the recording.
// Run under -race this is the concurrency regression test for the planner.
func TestConcurrentPlanningMatchesOracle(t *testing.T) {
	cases := equivCases()
	ctxs := make([]*partition.Context, len(cases))
	for i, c := range cases {
		ctxs[i] = equivContext(t, c)
	}

	setGOMAXPROCS(t, 3)
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(cases))
	for r := 0; r < rounds; r++ {
		for i, c := range cases {
			wg.Add(1)
			go func(i int, c equivCase) {
				defer wg.Done()
				opts := DefaultOptions()
				opts.Symmetric = c.symmetric
				plan, err := New(opts).PlanDetailed(ctxs[i])
				if err != nil {
					errs <- err
					return
				}
				if got, want := hashAssignments(plan, ctxs[i].Sample), serialOracle[c.name].plan; got != want {
					errs <- fmt.Errorf("%s: concurrent plan hashes to %#x, recorded %#x", c.name, got, want)
				}
			}(i, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// setGOMAXPROCS sets GOMAXPROCS, and so the planner pool's size, to n until
// the test ends.
func setGOMAXPROCS(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
