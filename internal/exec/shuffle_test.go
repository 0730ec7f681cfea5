package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/grid"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/onebucket"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// planFor runs one partitioner's optimization phase on the given workload.
func planFor(t *testing.T, pt partition.Partitioner, s, tt *data.Relation, band data.Band, workers int) partition.Plan {
	t.Helper()
	smp, err := sample.Draw(s, tt, band, sample.DefaultOptions())
	if err != nil {
		t.Fatalf("sampling: %v", err)
	}
	ctx := &partition.Context{Band: band, Workers: workers, Sample: smp, Model: costmodel.Default(), Seed: 3}
	plan, err := pt.Plan(ctx)
	if err != nil {
		t.Fatalf("%s optimization: %v", pt.Name(), err)
	}
	return plan
}

// shuffleByDefinition is what a shuffle means: one pass over S then T, every
// tuple appended, with its index as ID, to each partition its Assign call
// names. Partitions that received nothing stay nil.
func shuffleByDefinition(plan partition.Plan, s, tt *data.Relation) (parts []*PartitionInput, total int64) {
	part := func(pid int) *PartitionInput {
		for pid >= len(parts) {
			parts = append(parts, nil)
		}
		if parts[pid] == nil {
			parts[pid] = &PartitionInput{S: data.NewRelation("S", s.Dims()), T: data.NewRelation("T", tt.Dims())}
		}
		return parts[pid]
	}
	var dst []int
	for i := 0; i < s.Len(); i++ {
		dst = plan.AssignS(int64(i), s.Key(i), dst[:0])
		total += int64(len(dst))
		for _, pid := range dst {
			p := part(pid)
			p.S.AppendKey(s.Key(i))
			p.SIDs = append(p.SIDs, int64(i))
		}
	}
	for i := 0; i < tt.Len(); i++ {
		dst = plan.AssignT(int64(i), tt.Key(i), dst[:0])
		total += int64(len(dst))
		for _, pid := range dst {
			p := part(pid)
			p.T.AppendKey(tt.Key(i))
			p.TIDs = append(p.TIDs, int64(i))
		}
	}
	for len(parts) < plan.NumPartitions() {
		parts = append(parts, nil)
	}
	return parts, total
}

// equalParts verifies a shuffle outcome against the definition's: same number
// of partitions, same per-partition sizes, and the same keys and tuple IDs in
// the same order.
func equalParts(t *testing.T, want, got []*PartitionInput) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("partition count: definition %d, Shuffle %d", len(want), len(got))
	}
	sameSide := func(pid int, side string, wr, gr *data.Relation, wids, gids []int64) {
		if wr.Len() != gr.Len() {
			t.Fatalf("partition %d %s size: definition %d, Shuffle %d", pid, side, wr.Len(), gr.Len())
		}
		for i := 0; i < wr.Len(); i++ {
			if wids[i] != gids[i] {
				t.Fatalf("partition %d %s row %d: definition id %d, Shuffle id %d", pid, side, i, wids[i], gids[i])
			}
			for d := 0; d < wr.Dims(); d++ {
				if wr.KeyAt(i, d) != gr.KeyAt(i, d) {
					t.Fatalf("partition %d %s row %d dim %d: keys differ", pid, side, i, d)
				}
			}
		}
	}
	for pid := range want {
		wp, gp := want[pid], got[pid]
		if (wp == nil) != (gp == nil) {
			t.Fatalf("partition %d: definition nil=%v, Shuffle nil=%v", pid, wp == nil, gp == nil)
		}
		if wp == nil {
			continue
		}
		sameSide(pid, "S", wp.S, gp.S, wp.SIDs, gp.SIDs)
		sameSide(pid, "T", wp.T, gp.T, wp.TIDs, gp.TIDs)
	}
}

func equivalencePartitioners() []partition.Partitioner {
	return []partition.Partitioner{core.NewRecPartS(), onebucket.New(), grid.New()}
}

func equivalenceBands() map[string]data.Band {
	return map[string]data.Band{
		"symmetric":  data.Symmetric(0.4, 0.4),
		"asymmetric": data.Asymmetric([]float64{0.5, 0.15}, []float64{0.1, 0.35}),
	}
}

// TestShuffleEquivalence checks that the shuffle produces exactly the
// partitions of the definition for every partitioner and both symmetric and
// asymmetric bands, at several shard counts. The definition's pass runs first
// so that lazily-discovering plans (Grid-ε) number their partitions
// deterministically before the sharded runs replay them.
func TestShuffleEquivalence(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 900, 17)
	for bandName, band := range equivalenceBands() {
		for _, pt := range equivalencePartitioners() {
			plan := planFor(t, pt, s, tt, band, 6)
			wantParts, wantTotal := shuffleByDefinition(plan, s, tt)
			for _, shards := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/shards=%d", pt.Name(), bandName, shards), func(t *testing.T) {
					parts, total, err := Shuffle(context.Background(), plan, s, tt, shards)
					if err != nil {
						t.Fatalf("Shuffle: %v", err)
					}
					if total != wantTotal {
						t.Fatalf("total input: definition %d, Shuffle %d", wantTotal, total)
					}
					equalParts(t, wantParts, parts)
				})
			}
		}
	}
}

// TestExecutePlanSerialVsParallel checks the end-to-end accounting: a run at
// GOMAXPROCS 1 (one shuffle shard, one local join at a time) and a run at
// GOMAXPROCS 7 must agree on every quantity the paper evaluates, and both must
// return exactly the pairs of the band-join definition.
func TestExecutePlanSerialVsParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s, tt := data.ParetoPair(2, 1.5, 700, 29)
	for bandName, band := range equivalenceBands() {
		var want []Pair
		localjoin.NestedLoop{}.Join(s, tt, band, func(si, ti int, _, _ []float64) {
			want = append(want, Pair{S: int64(si), T: int64(ti)})
		})
		for _, pt := range equivalencePartitioners() {
			t.Run(pt.Name()+"/"+bandName, func(t *testing.T) {
				plan := planFor(t, pt, s, tt, band, 5)
				run := func(parallelism int) *Result {
					runtime.GOMAXPROCS(parallelism)
					opts := DefaultOptions(5)
					opts.CollectPairs = true
					res, err := ExecutePlan(context.Background(), plan, s, tt, band, opts)
					if err != nil {
						t.Fatalf("ExecutePlan(parallelism=%d): %v", parallelism, err)
					}
					if !slices.Equal(res.Pairs, want) {
						t.Fatalf("parallelism=%d: %d pairs, the definition has %d (or they differ)", parallelism, len(res.Pairs), len(want))
					}
					return res
				}
				serialRes, parRes := run(1), run(7)
				if serialRes.TotalInput != parRes.TotalInput {
					t.Errorf("TotalInput: serial %d, parallel %d", serialRes.TotalInput, parRes.TotalInput)
				}
				if serialRes.Output != parRes.Output {
					t.Errorf("Output: serial %d, parallel %d", serialRes.Output, parRes.Output)
				}
				if serialRes.Partitions != parRes.Partitions {
					t.Errorf("Partitions: serial %d, parallel %d", serialRes.Partitions, parRes.Partitions)
				}
				if serialRes.Im != parRes.Im || serialRes.Om != parRes.Om {
					t.Errorf("max-worker accounting: serial (Im=%d,Om=%d), parallel (Im=%d,Om=%d)",
						serialRes.Im, serialRes.Om, parRes.Im, parRes.Om)
				}
			})
		}
	}
}

// idGridPlan routes by tuple ID, as 1-Bucket does, over rows × cols
// partitions: S tuple i to every partition of row i%rows, T tuple j to the
// partition of column j%(cols-1) in every row. Each pair meets in exactly one
// partition, and the last column's partitions receive no T row.
type idGridPlan struct{ rows, cols int }

func (p idGridPlan) NumPartitions() int { return p.rows * p.cols }

func (p idGridPlan) AssignS(id int64, _ []float64, dst []int) []int {
	for c := range p.cols {
		dst = append(dst, int(id)%p.rows*p.cols+c)
	}
	return dst
}

func (p idGridPlan) AssignT(id int64, _ []float64, dst []int) []int {
	for r := range p.rows {
		dst = append(dst, r*p.cols+int(id)%(p.cols-1))
	}
	return dst
}

// TestExecutePlanPooledPartitionsAcrossDims: ExecutePlan fills pooled
// partitions, so a partition one query handed back is the next one's to fill,
// whatever its dimensionality. With the collector off, so the pool keeps what
// it is given, one-shot joins of 3-d, 1-d, 8-d and again 3-d inputs — more
// partitions than are in flight at once, some holding NaN keys, some with no T
// row — must each return exactly the nested loop's pairs.
func TestExecutePlanPooledPartitionsAcrossDims(t *testing.T) {
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	rng := rand.New(rand.NewSource(43))
	lattice := func(dims, n int) *data.Relation {
		r := data.NewRelationCapacity("r", dims, n)
		key := make([]float64, dims)
		for range n {
			for d := range key {
				key[d] = float64(rng.Intn(4))
			}
			r.AppendKey(key)
		}
		return r
	}
	plan := idGridPlan{rows: 3, cols: 4}
	for _, dims := range []int{3, 1, 8, 3} {
		s, tt := lattice(dims, 300), lattice(dims, 300)
		nanKey := slices.Repeat([]float64{math.NaN()}, dims)
		s.SetKey(7, nanKey)
		tt.SetKey(11, nanKey)
		band := data.Uniform(dims, 1)
		var want []Pair
		localjoin.NestedLoop{}.Join(s, tt, band, func(si, ti int, _, _ []float64) {
			want = append(want, Pair{S: int64(si), T: int64(ti)})
		})
		opts := DefaultOptions(4)
		opts.CollectPairs = true
		res, err := ExecutePlan(context.Background(), plan, s, tt, band, opts)
		if err != nil {
			t.Fatalf("%d-d: %v", dims, err)
		}
		if len(want) == 0 || !slices.Equal(res.Pairs, want) {
			t.Fatalf("%d-d: %d pairs, the nested loop has %d (or they differ)", dims, len(res.Pairs), len(want))
		}
	}
}

// TestParallelShuffleRace hammers the shuffle with many shards; run
// under -race (as CI does) it verifies the concurrent routing pass, the
// lock-free gather, and Grid-ε's synchronized lazy cell discovery.
func TestParallelShuffleRace(t *testing.T) {
	s, tt := data.ParetoPair(3, 1.2, 1500, 41)
	band := data.Uniform(3, 0.3)
	for _, pt := range equivalencePartitioners() {
		t.Run(pt.Name(), func(t *testing.T) {
			plan := planFor(t, pt, s, tt, band, 8)
			var wantTotal int64 = -1
			for round := 0; round < 3; round++ {
				parts, total, err := Shuffle(context.Background(), plan, s, tt, 16)
				if err != nil {
					t.Fatalf("Shuffle: %v", err)
				}
				if wantTotal == -1 {
					wantTotal = total
				} else if total != wantTotal {
					t.Fatalf("round %d total input %d, want %d", round, total, wantTotal)
				}
				if !slices.ContainsFunc(parts, func(p *PartitionInput) bool { return p != nil }) {
					t.Fatal("shuffle produced no partitions")
				}
			}
		})
	}
}

// TestRouteMatchesAssign checks the routing stage against what it means: every
// partition's list — rows in ascending order, IDs row plus base — equals a
// loop over plan.AssignS/AssignT, whatever the shard count; and Gather returns
// those rows' keys for any window, including one that spans shards' lists.
// Grid-ε discovers its partitions while it routes, so the first sharded run
// finds a partition count that has grown mid-pass; the loop then runs over the
// numbering that run left.
func TestRouteMatchesAssign(t *testing.T) {
	bands := equivalenceBands()
	bands["one-sided"] = data.Asymmetric([]float64{0, 0.3}, []float64{0.4, 0})
	sizes := map[string][2]int{"full": {700, 650}, "emptyS": {0, 300}, "emptyT": {300, 0}, "oneRow": {1, 1}}
	partitioners := append(equivalencePartitioners(), core.NewDefault())
	const sBase, tBase = 1000, 5
	for bandName, band := range bands {
		for sizeName, size := range sizes {
			fullS, fullT := data.ParetoPair(2, 1.5, 700, 23)
			s, tt := fullS.Slice("S", 0, size[0]), fullT.Slice("T", 0, size[1])
			for _, pt := range partitioners {
				plan := planFor(t, pt, fullS, fullT, band, 6)
				for _, shards := range []int{8, 1, 2, 3} {
					name := fmt.Sprintf("%s/%s/%s/shards=%d", pt.Name(), bandName, sizeName, shards)
					r, err := Route(context.Background(), plan, s, tt, sBase, tBase, shards)
					if err != nil {
						t.Fatalf("%s: Route: %v", name, err)
					}
					wantTotal := checkSide(t, name+"/S", &r.S, r.NumPartitions, plan.AssignS)
					wantTotal += checkSide(t, name+"/T", &r.T, r.NumPartitions, plan.AssignT)
					if r.TotalInput != wantTotal {
						t.Errorf("%s: TotalInput %d, the assignments name %d", name, r.TotalInput, wantTotal)
					}
					if r.NumPartitions < plan.NumPartitions() {
						t.Errorf("%s: %d partitions routed, the plan has %d", name, r.NumPartitions, plan.NumPartitions())
					}
					for _, pid := range r.NonEmpty() {
						if r.S.Rows(pid)+r.T.Rows(pid) == 0 {
							t.Errorf("%s: NonEmpty lists empty partition %d", name, pid)
						}
					}
				}
			}
		}
	}
}

// checkSide compares one routed side with a loop over assign and returns the
// number of assignments the loop made.
func checkSide(t *testing.T, name string, rs *RoutedSide, numParts int, assign func(int64, []float64, []int) []int) (total int64) {
	t.Helper()
	want := make([][]int64, numParts)
	var dst []int
	for i := 0; i < rs.Rel.Len(); i++ {
		dst = assign(int64(i)+rs.Base, rs.Rel.Key(i), dst[:0])
		total += int64(len(dst))
		for _, pid := range dst {
			if pid >= numParts {
				t.Fatalf("%s: the assignment names partition %d, Route covered %d", name, pid, numParts)
			}
			want[pid] = append(want[pid], int64(i)+rs.Base)
		}
	}
	dims := rs.Rel.Dims()
	for pid, ids := range want {
		n := rs.Rows(pid)
		if n != len(ids) {
			t.Fatalf("%s: partition %d has %d rows, the assignments name %d", name, pid, n, len(ids))
		}
		// The whole list, then every window of a third of it: some start and
		// end inside a shard's list, some span two.
		step := max(1, n/3)
		windows := [][2]int{{0, n}}
		for lo := 0; lo < n; lo += step - step/2 {
			windows = append(windows, [2]int{lo, min(n, lo+step)})
		}
		for _, w := range windows {
			keys := make([]float64, (w[1]-w[0])*dims)
			got := make([]int64, w[1]-w[0])
			rs.Gather(pid, w[0], w[1], keys, got)
			if !slices.Equal(got, ids[w[0]:w[1]]) {
				t.Fatalf("%s: partition %d rows [%d,%d): ids %v, want %v", name, pid, w[0], w[1], got, ids[w[0]:w[1]])
			}
			for i, id := range got {
				if !slices.Equal(keys[i*dims:(i+1)*dims], rs.Rel.Key(int(id-rs.Base))) {
					t.Fatalf("%s: partition %d row %d: gathered keys are not tuple %d's", name, pid, w[0]+i, id)
				}
			}
		}
	}
	return total
}

// TestRouteRefusesWhatItCannotNumber: row numbers are 32 bits wide, so a
// relation past math.MaxInt32 rows is an error, not a wrapped row number; and
// a cancelled context stops Route before and after its pass.
func TestRouteRefusesWhatItCannotNumber(t *testing.T) {
	if err := checkRows("S", math.MaxInt32); err != nil {
		t.Errorf("%d rows refused: %v", math.MaxInt32, err)
	}
	if math.MaxInt > math.MaxInt32 {
		big := math.MaxInt32
		big++
		if err := checkRows("S", big); err == nil {
			t.Errorf("%d rows accepted, want an error", big)
		}
	}
	s, tt := data.ParetoPair(2, 1.4, 400, 3)
	band := data.Symmetric(0.3, 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Route(ctx, planFor(t, core.NewRecPartS(), s, tt, band, 3), s, tt, 0, 0, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("Route with cancelled ctx: got %v, want context.Canceled", err)
	}
	// Cancelled during the pass: the plan's first assignment pulls the plug.
	ctx, cancel = context.WithCancel(context.Background())
	plan := &cancellingPlan{Plan: planFor(t, onebucket.New(), s, tt, band, 3), cancel: cancel}
	if _, err := Route(ctx, plan, s, tt, 0, 0, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Route cancelled mid-pass: got %v, want context.Canceled", err)
	}
}

// cancellingPlan cancels a context the first time it routes an S tuple.
type cancellingPlan struct {
	partition.Plan
	cancel context.CancelFunc
}

func (p *cancellingPlan) AssignS(id int64, key []float64, dst []int) []int {
	p.cancel()
	return p.Plan.AssignS(id, key, dst)
}

// selfMatch8d is the shape of the benchmark's cold cluster workload: repeat
// observations of clustered objects in 8 attributes, T a jittered copy of S,
// three decimals.
func selfMatch8d(n int, eps float64) (s, t *data.Relation) {
	rng := rand.New(rand.NewSource(1))
	s, t = data.NewRelationCapacity("s", 8, n), data.NewRelationCapacity("t", 8, n)
	var center, sk, tk [8]float64
	for i := 0; i < n; i++ {
		for d := range center {
			if i%3 == 0 {
				center[d] = rng.Float64() * 100
			}
			sk[d] = math.Round((center[d]+rng.NormFloat64()*0.05)*1e3) / 1e3
			tk[d] = math.Round((sk[d]+(rng.Float64()-0.5)*eps)*1e3) / 1e3
		}
		s.AppendKey(sk[:])
		t.AppendKey(tk[:])
	}
	return s, t
}

// BenchmarkShuffle times the map phase on the two shapes of the repository's
// cold workloads — 3-d Pareto planned for 30 workers, the 8-d self-match
// planned by RecPart-S for 2 — materialised (Shuffle, what the in-process
// plane runs) and routed only (Route, what the coordinator runs before it
// ships from the source relations).
func BenchmarkShuffle(b *testing.B) {
	shapes := []struct {
		name    string
		pt      partition.Partitioner
		workers int
		band    data.Band
		gen     func() (*data.Relation, *data.Relation)
	}{
		{"pareto3d-w30", core.NewDefault(), 30, data.Uniform(3, 0.03),
			func() (*data.Relation, *data.Relation) { return data.ParetoPair(3, 1.5, 320_000, 1) }},
		{"selfmatch8d-w2", core.NewRecPartS(), 2, data.Uniform(8, 0.003),
			func() (*data.Relation, *data.Relation) { return selfMatch8d(450_000, 0.003) }},
	}
	for _, sh := range shapes {
		s, t := sh.gen()
		smp, err := sample.Draw(s, t, sh.band, sample.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		plan, err := sh.pt.Plan(&partition.Context{Band: sh.band, Workers: sh.workers, Sample: smp, Model: costmodel.Default(), Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		var sink int64
		b.Run(sh.name+"/shuffle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, total, err := Shuffle(context.Background(), plan, s, t, 0)
				if err != nil {
					b.Fatal(err)
				}
				sink += total
			}
		})
		b.Run(sh.name+"/route", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Route(context.Background(), plan, s, t, 0, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				sink += r.TotalInput
			}
		})
	}
}

// pareto3dPlan is the in-process cold workload's shape: 3-d Pareto, 320k × 320k,
// planned by RecPart for 30 workers.
func pareto3dPlan(tb testing.TB) (s, t *data.Relation, band data.Band, plan partition.Plan) {
	tb.Helper()
	s, t = data.ParetoPair(3, 1.5, 320_000, 1)
	band = data.Uniform(3, 0.03)
	smp, err := sample.Draw(s, t, band, sample.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	plan, err = core.NewDefault().Plan(&partition.Context{Band: band, Workers: 30, Sample: smp, Model: costmodel.Default(), Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return s, t, band, plan
}

// TestExecutePlanSteadyStateAllocs: a warm one-shot join holds only the
// partitions in flight and builds them in the buffers earlier ones handed
// back, so it allocates less than the input's keys occupy — the routed lists,
// no copy of the input — and sets off no garbage collection.
func TestExecutePlanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; steady state not observable")
	}
	s, tt, band, plan := pareto3dPlan(t)
	run := func() int64 {
		res, err := ExecutePlan(context.Background(), plan, s, tt, band, DefaultOptions(30))
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}
	want := run()
	run()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := run()
	runtime.ReadMemStats(&after)
	if got != want || got == 0 {
		t.Fatalf("warm run: %d pairs, the first %d", got, want)
	}
	keyBytes := uint64(s.Len()+tt.Len()) * uint64(s.Dims()) * 8
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > keyBytes {
		t.Errorf("a warm ExecutePlan allocated %.1f MB, more than the input's %.1f MB of keys", float64(alloc)/1e6, float64(keyBytes)/1e6)
	}
	if gcs := after.NumGC - before.NumGC; gcs != 0 {
		t.Errorf("a warm ExecutePlan ran %d garbage collections", gcs)
	}
}

// BenchmarkExecutePlan times the whole one-shot join (route, then build,
// probe and release every partition) on the in-process cold workload's shape.
func BenchmarkExecutePlan(b *testing.B) {
	s, t, band, plan := pareto3dPlan(b)
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ExecutePlan(context.Background(), plan, s, t, band, DefaultOptions(30))
		if err != nil {
			b.Fatal(err)
		}
		sink += res.Output
	}
}
