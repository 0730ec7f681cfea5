package exec

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/csio"
	"bandjoin/internal/data"
	"bandjoin/internal/grid"
	"bandjoin/internal/iejoin"
	"bandjoin/internal/onebucket"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// bruteForce computes the reference result set.
func bruteForce(s, t *data.Relation, band data.Band) map[Pair]int {
	out := make(map[Pair]int)
	for i := 0; i < s.Len(); i++ {
		for j := 0; j < t.Len(); j++ {
			if band.Matches(s.Key(i), t.Key(j)) {
				out[Pair{S: int64(i), T: int64(j)}]++
			}
		}
	}
	return out
}

// checkExactlyOnce verifies that the distributed execution produced every
// reference pair exactly once and nothing else (Definition 1 of the paper).
func checkExactlyOnce(t *testing.T, res *Result, want map[Pair]int) {
	t.Helper()
	got := make(map[Pair]int)
	for _, p := range res.Pairs {
		got[p]++
	}
	for p, n := range got {
		if n > 1 {
			t.Fatalf("pair %v produced %d times, want exactly once", p, n)
		}
		if want[p] == 0 {
			t.Fatalf("pair %v produced but does not satisfy the band condition", p)
		}
	}
	for p := range want {
		if got[p] == 0 {
			t.Fatalf("pair %v missing from the distributed result", p)
		}
	}
	if int64(len(want)) != res.Output {
		t.Fatalf("output count = %d, want %d", res.Output, len(want))
	}
}

// testInputs builds a small skewed 2D workload.
func testInputs(n int, seed int64) (*data.Relation, *data.Relation, data.Band) {
	s, t := data.ParetoPair(2, 1.5, n, seed)
	band := data.Symmetric(0.5, 0.5)
	return s, t, band
}

func allPartitioners() []partition.Partitioner {
	return []partition.Partitioner{
		core.NewDefault(),
		core.NewRecPartS(),
		onebucket.New(),
		grid.New(),
		grid.NewStar(),
		csio.New(),
		iejoin.New(),
	}
}

// runQuery is one whole query over the stages the planes compose —
// sample.Draw with the default sampling, PlanQuery, ExecutePlan — for the
// tests of this package that need one; bandjoin.Join is the product's.
func runQuery(pt partition.Partitioner, s, t *data.Relation, band data.Band, opts Options) (*Result, error) {
	smp, err := sample.Draw(s, t, band, sample.DefaultOptions())
	if err != nil {
		return nil, err
	}
	prep, err := PlanQuery(pt, smp, band, opts)
	if err != nil {
		return nil, err
	}
	return ExecutePlan(context.Background(), prep.Plan, s, t, band, opts)
}

func TestAllPartitionersProduceExactResult(t *testing.T) {
	s, tt, band := testInputs(600, 11)
	want := bruteForce(s, tt, band)
	if len(want) == 0 {
		t.Fatal("test workload produced no join results; widen the band")
	}
	for _, pt := range allPartitioners() {
		pt := pt
		t.Run(pt.Name(), func(t *testing.T) {
			opts := DefaultOptions(5)
			opts.CollectPairs = true
			opts.Seed = 3
			res, err := runQuery(pt, s, tt, band, opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			checkExactlyOnce(t, res, want)
			if res.TotalInput < int64(s.Len()+tt.Len()) {
				t.Errorf("total input %d below lower bound %d", res.TotalInput, s.Len()+tt.Len())
			}
		})
	}
}

func TestAllPartitionersEquiJoin(t *testing.T) {
	// Equi-join (band width 0) with integer keys so matches exist. Grid-ε is
	// undefined for band width zero (as in the paper), so it is skipped.
	rng := rand.New(rand.NewSource(5))
	s := data.NewRelation("S", 1)
	tt := data.NewRelation("T", 1)
	for i := 0; i < 500; i++ {
		s.Append(float64(rng.Intn(40)))
		tt.Append(float64(rng.Intn(40)))
	}
	band := data.Symmetric(0)
	want := bruteForce(s, tt, band)
	for _, pt := range allPartitioners() {
		if pt.Name() == "Grid-eps" || pt.Name() == "Grid*" {
			continue
		}
		pt := pt
		t.Run(pt.Name(), func(t *testing.T) {
			opts := DefaultOptions(4)
			opts.CollectPairs = true
			res, err := runQuery(pt, s, tt, band, opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			checkExactlyOnce(t, res, want)
		})
	}
}

func TestGridRejectsEquiJoin(t *testing.T) {
	s, tt, _ := testInputs(200, 3)
	band := data.Symmetric(0, 0)
	_, err := runQuery(grid.New(), s, tt, band, DefaultOptions(4))
	if err == nil {
		t.Fatal("Grid-ε accepted a zero band width; the paper states it is undefined for equi-joins")
	}
}

func TestRunAccountingConsistency(t *testing.T) {
	s, tt, band := testInputs(800, 21)
	res, err := runQuery(core.NewDefault(), s, tt, band, DefaultOptions(6))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var wi, wo int64
	for w := range res.WorkerInput {
		wi += res.WorkerInput[w]
		wo += res.WorkerOutput[w]
	}
	if wi != res.TotalInput {
		t.Errorf("sum of worker inputs %d != total input %d", wi, res.TotalInput)
	}
	if wo != res.Output {
		t.Errorf("sum of worker outputs %d != total output %d", wo, res.Output)
	}
	if res.Im > res.TotalInput || res.Om > res.Output {
		t.Errorf("max-worker input/output exceed totals: Im=%d Om=%d", res.Im, res.Om)
	}
	if res.MaxLoad < res.LowerBoundLoad/float64(res.Workers) {
		t.Errorf("max load %f implausibly small vs lower bound %f", res.MaxLoad, res.LowerBoundLoad)
	}
	if res.LoadOverhead < 0 || res.DupOverhead < 0 {
		t.Errorf("overheads must be non-negative: dup=%f load=%f", res.DupOverhead, res.LoadOverhead)
	}
}

func TestEstimateAgreesRoughlyWithExecution(t *testing.T) {
	s, tt, band := testInputs(2000, 31)
	opts := DefaultOptions(8)
	opts.Seed = 1
	smp, err := sample.Draw(s, tt, band, sample.DefaultOptions())
	if err != nil {
		t.Fatalf("Draw: %v", err)
	}
	for _, pt := range []partition.Partitioner{core.NewRecPartS(), onebucket.New()} {
		prep, err := PlanQuery(pt, smp, band, opts)
		if err != nil {
			t.Fatalf("PlanQuery(%s): %v", pt.Name(), err)
		}
		run, err := ExecutePlan(context.Background(), prep.Plan, s, tt, band, opts)
		if err != nil {
			t.Fatalf("ExecutePlan(%s): %v", pt.Name(), err)
		}
		est := EstimatePlan(prep.Plan, prep.Ctx)
		ratio := float64(est.TotalInput) / float64(run.TotalInput)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: estimated total input %d is far from executed %d", pt.Name(), est.TotalInput, run.TotalInput)
		}
	}
}

// joinInputs is one join's relations and band.
type joinInputs struct {
	s, t *data.Relation
	band data.Band
}

// bandShapeInputs are the band shapes the local ε-grid took over from two
// deleted kernels: one dimension, a zero width on dimension 0, and an
// equi-join on every dimension, over keys on an integer lattice wherever a
// width is zero, so that there are pairs to find.
func bandShapeInputs(n int, seed int64) map[string]joinInputs {
	lattice := func(d, latticeDims int, scale float64) (*data.Relation, *data.Relation) {
		s, t := data.ParetoPair(d, 1.5, n, seed)
		for _, r := range []*data.Relation{s, t} {
			for i := 0; i < r.Len(); i++ {
				for j := 0; j < latticeDims; j++ {
					r.Key(i)[j] = math.Floor(scale * r.Key(i)[j])
				}
			}
		}
		return s, t
	}
	s1, t1 := data.ParetoPair(1, 1.5, n, seed)
	s3, t3 := lattice(3, 1, 4)
	s2, t2 := lattice(2, 2, 2)
	return map[string]joinInputs{
		"1d":        {s1, t1, data.Symmetric(0.01)},
		"zero-dim0": {s3, t3, data.Symmetric(0, 0.3, 0.3)},
		"all-zero":  {s2, t2, data.Symmetric(0, 0)},
	}
}

// TestExecutePlanOnEveryBandShape runs every partitioner over the band shapes
// of bandShapeInputs and checks the pairs against the definition.
func TestExecutePlanOnEveryBandShape(t *testing.T) {
	for shape, in := range bandShapeInputs(300, 41) {
		want := bruteForce(in.s, in.t, in.band)
		if len(want) == 0 {
			t.Fatalf("%s: the definition has no pairs; the inputs exercise nothing", shape)
		}
		for _, pt := range allPartitioners() {
			opts := DefaultOptions(3)
			opts.CollectPairs = true
			res, err := runQuery(pt, in.s, in.t, in.band, opts)
			if err != nil {
				// Grid-ε and Grid* are undefined for a zero width
				// (TestGridRejectsEquiJoin); nothing else may fail.
				if !strings.HasPrefix(pt.Name(), "Grid") || in.band.MaxWidth(0) != 0 {
					t.Errorf("%s/%s: %v", shape, pt.Name(), err)
				}
				continue
			}
			checkExactlyOnce(t, res, want)
		}
	}
}

// TestExecuteShuffledMatchesExecutePlan: running the reduce phase over
// pre-shuffled retained partitions must match the shuffle-included path.
func TestExecuteShuffledMatchesExecutePlan(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.4, 600, 13)
	band := data.Symmetric(0.3, 0.3)
	plan := planFor(t, core.NewRecPartS(), s, tt, band, 3)
	opts := DefaultOptions(3)
	opts.CollectPairs = true

	full, err := ExecutePlan(context.Background(), plan, s, tt, band, opts)
	if err != nil {
		t.Fatalf("ExecutePlan: %v", err)
	}
	parts, total, err := Shuffle(context.Background(), plan, s, tt, 0)
	if err != nil {
		t.Fatalf("Shuffle: %v", err)
	}
	for round := 0; round < 2; round++ {
		warm, err := ExecuteShuffledPrepared(context.Background(), plan, parts, nil, total, s.Len(), tt.Len(), band, opts)
		if err != nil {
			t.Fatalf("ExecuteShuffledPrepared round %d: %v", round, err)
		}
		if warm.TotalInput != full.TotalInput || warm.Output != full.Output ||
			warm.Im != full.Im || warm.Om != full.Om {
			t.Errorf("round %d: warm (I=%d out=%d Im=%d Om=%d) differs from full (I=%d out=%d Im=%d Om=%d)",
				round, warm.TotalInput, warm.Output, warm.Im, warm.Om,
				full.TotalInput, full.Output, full.Im, full.Om)
		}
		if len(warm.Pairs) != len(full.Pairs) {
			t.Fatalf("round %d: pair counts differ: %d vs %d", round, len(warm.Pairs), len(full.Pairs))
		}
		for i := range warm.Pairs {
			if warm.Pairs[i] != full.Pairs[i] {
				t.Fatalf("round %d: pair %d differs", round, i)
			}
		}
	}
}

// TestAggregate pins the one aggregation of both planes: fixed records and a
// fixed placement give the partition count, the output, the per-worker input
// and output, the most loaded worker's Im and Om, the makespan, the refresh
// times and the pairs in order.
func TestAggregate(t *testing.T) {
	recs := []PartitionStats{
		{Partition: 0, InputS: 3, InputT: 2, Output: 3, JoinNanos: 100, PairS: []int64{7, 1, 1}, PairT: []int64{0, 9, 2}},
		{Partition: 1, InputS: 10, InputT: 5, Output: 7, JoinNanos: 300, RebuildNanos: 50},
		{Partition: 2}, // no input: no partition, wherever it is placed
		{Partition: 3, InputS: 1, InputT: 1, JoinNanos: 20, FoldNanos: 30, RebuildNanos: 5},
		{Partition: 4, InputS: 4, Output: 1, JoinNanos: 60, FoldNanos: 10, PairS: []int64{0}, PairT: []int64{4}},
	}
	for _, tc := range []struct {
		name           string
		workers        int
		place          []int // worker of each record's partition
		recs           []PartitionStats
		parts          int
		output         int64
		wIn, wOut      []int64
		im, om         int64
		makespan       time.Duration
		rebuild, foldT time.Duration
		folds          int
		pairs          []Pair
	}{
		{name: "two workers", workers: 2, place: []int{0, 1, 0, 0, 1}, recs: recs,
			parts: 4, output: 11, wIn: []int64{7, 19}, wOut: []int64{3, 8}, im: 19, om: 8,
			makespan: 360, rebuild: 55, foldT: 40, folds: 2,
			pairs: []Pair{{0, 4}, {1, 2}, {1, 9}, {7, 0}}},
		{name: "one busy worker of three", workers: 3, place: []int{2, 2, 2, 2, 2}, recs: recs,
			parts: 4, output: 11, wIn: []int64{0, 0, 26}, wOut: []int64{0, 0, 11}, im: 26, om: 11,
			makespan: 480, rebuild: 55, foldT: 40, folds: 2,
			pairs: []Pair{{0, 4}, {1, 2}, {1, 9}, {7, 0}}},
		{name: "no records", workers: 2, wIn: []int64{0, 0}, wOut: []int64{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := &Result{Workers: tc.workers, InputS: 20, InputT: 10, TotalInput: 26}
			res.Aggregate(slices.Clone(tc.recs), func(pid int) int { return tc.place[pid] }, costmodel.Default())
			if res.Partitions != tc.parts || res.Output != tc.output {
				t.Errorf("%d partitions, output %d; want %d and %d", res.Partitions, res.Output, tc.parts, tc.output)
			}
			if !slices.Equal(res.WorkerInput, tc.wIn) || !slices.Equal(res.WorkerOutput, tc.wOut) {
				t.Errorf("worker input %v, output %v; want %v and %v", res.WorkerInput, res.WorkerOutput, tc.wIn, tc.wOut)
			}
			if res.Im != tc.im || res.Om != tc.om {
				t.Errorf("Im=%d Om=%d, want %d and %d", res.Im, res.Om, tc.im, tc.om)
			}
			if res.Makespan != tc.makespan || res.StaleRebuildTime != tc.rebuild || res.Folds != tc.folds || res.FoldTime != tc.foldT {
				t.Errorf("makespan %v, rebuild %v, %d folds in %v; want %v, %v, %d in %v",
					res.Makespan, res.StaleRebuildTime, res.Folds, res.FoldTime, tc.makespan, tc.rebuild, tc.folds, tc.foldT)
			}
			if !slices.Equal(res.Pairs, tc.pairs) {
				t.Errorf("pairs %v, want %v", res.Pairs, tc.pairs)
			}
			if math.Abs(res.DupOverhead-(26.0/30-1)) > 1e-12 {
				t.Errorf("dup overhead %g, want %g", res.DupOverhead, 26.0/30-1)
			}
		})
	}
}
