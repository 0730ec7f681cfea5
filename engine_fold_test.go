package bandjoin_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"bandjoin"
	"bandjoin/internal/exec"
	"bandjoin/internal/localjoin"
	"bandjoin/internal/partition"
)

// foldBand draws a band of the given shape over d dimensions.
func foldBand(rng *rand.Rand, shape string, d int) bandjoin.Band {
	low, high := make([]float64, d), make([]float64, d)
	for j := range low {
		low[j] = 0.5 + rng.Float64()
		high[j] = low[j]
		switch shape {
		case "asymmetric":
			high[j] = 0.5 + rng.Float64()
		case "one-sided":
			if j%2 == 0 {
				low[j] = 0
			} else {
				high[j] = 0
			}
		}
	}
	return bandjoin.Band{Low: low, High: high}
}

// foldRows appends n rows to r that sit where a retained ε-grid partition is
// easiest to get wrong: a fifth on one point (matches whatever the dimension,
// and a dense cell), the rest on a lattice of cell widths — cell boundaries —
// moved by a band extent, by one ulp or at random, and, when special is set,
// now and then NaN or ±Inf. The one-ulp moves put keys within rounding of an
// interval end: a partitioner that routes with other float expressions than
// the predicate's loses their pairs before any local join runs
// (TestPartitionersGroundTruth).
func foldRows(rng *rand.Rand, r *bandjoin.Relation, n int, band bandjoin.Band, special bool) {
	d := band.Dims()
	key := make([]float64, d)
	for ; n > 0; n-- {
		mass := rng.Intn(5) == 0
		for j := range key {
			w := math.Max(band.Low[j], band.High[j])
			if w == 0 {
				w = 1 // ε = 0 on this dimension: a unit lattice, equal keys match
			}
			if mass {
				key[j] = 0.25 * w
				continue
			}
			v := float64(rng.Intn(5)-2) * w
			switch rng.Intn(6) {
			case 0:
				v += band.Low[j]
			case 1:
				v -= band.High[j]
			case 2:
				v += (rng.Float64() - 0.5) * w
			case 3:
				if special && rng.Intn(8) == 0 {
					v = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
				}
			case 4:
				v = math.Nextafter(v, math.Inf(1))
			case 5:
				v = math.Nextafter(v, math.Inf(-1))
			}
			key[j] = v
		}
		r.AppendKey(key)
	}
}

// definitionPairs is the band-join of s and t by the nested loop, in the order
// Result.Pairs has.
func definitionPairs(s, t *bandjoin.Relation, band bandjoin.Band) []bandjoin.Pair {
	var want []bandjoin.Pair
	localjoin.NestedLoop{}.Join(s, t, band, func(si, ti int, _, _ []float64) {
		want = append(want, bandjoin.Pair{S: int64(si), T: int64(ti)})
	})
	sort.Slice(want, func(a, b int) bool {
		if want[a].S != want[b].S {
			return want[a].S < want[b].S
		}
		return want[a].T < want[b].T
	})
	return want
}

// TestEngineFoldGroundTruth runs, on both planes, a series of appends to S long
// enough that every retained partition folds its appended rows several times
// (exec.FoldS: S re-sorted, cell lists resolved anew, T-side structure kept),
// with one append to T in the middle (the full lazy rebuild, after which
// folding starts over), and compares every query's pairs with the nested loop
// over the relations as they stand. The batches carry what a fold could
// mishandle: keys on cell boundaries and one ulp off them, copies of rows
// already sealed (ties the stable re-sort must keep apart from their IDs), NaN
// and ±Inf keys (sorted last, never folded into a cell they do not belong to).
//
// The last part of a subtest's name sets widths to zero: on dimension 0, or on
// every dimension. Such partitions fold like any other — their structure is the
// same grid, with exact-key dimensions — where they used to be rebuilt in full
// on every S append. One dimension runs too.
//
// Both planes keep retained partitions in one store (exec.Partition), so for
// each configuration they must report the same folds on every query and a
// stale rebuild on exactly the same queries.
func TestEngineFoldGroundTruth(t *testing.T) {
	planes := enginePlanes(t, 2)
	ctx := context.Background()
	for _, d := range []int{1, 2, 3, 8} {
		for _, shape := range []string{"symmetric", "asymmetric", "one-sided"} {
			for _, zero := range []string{"", "zero-dim0", "all-zero"} {
				if d == 1 && shape != "asymmetric" || zero == "zero-dim0" && d != 3 ||
					zero == "all-zero" && (d > 3 || shape != "asymmetric") {
					continue
				}
				trail := make(map[string][]string) // per plane, what each query reported
				for planeName, newEngine := range planes {
					name := fmt.Sprintf("%s/d=%d/%s/%s", planeName, d, shape, zero)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(31*d + len(shape))))
						band := foldBand(rng, shape, d)
						switch zero {
						case "zero-dim0":
							band.Low[0], band.High[0] = 0, 0
						case "all-zero":
							clear(band.Low)
							clear(band.High)
						}
						opts := bandjoin.Options{Workers: 2, Seed: 5, CollectPairs: true}
						s, tt := bandjoin.NewRelation("s", d), bandjoin.NewRelation("t", d)
						foldRows(rng, s, 360, band, false)
						foldRows(rng, tt, 360, band, true)

						e := newEngine(bandjoin.EngineOptions{})
						defer e.Close()
						if err := e.Register("s", s.Clone("s")); err != nil {
							t.Fatalf("Register: %v", err)
						}
						if err := e.Register("t", tt.Clone("t")); err != nil {
							t.Fatalf("Register: %v", err)
						}
						folds, rebuilds := 0, 0
						query := func(step string) {
							t.Helper()
							res, err := e.Join(ctx, "s", "t", band, opts)
							if err != nil {
								t.Fatalf("%s: Join: %v", step, err)
							}
							want := definitionPairs(s, tt, band)
							if len(want) == 0 {
								t.Fatalf("%s: the definition has no pairs; the inputs exercise nothing", step)
							}
							pairsEqual(t, step+": engine vs nested loop", res.Pairs, want)
							folds += res.Folds
							if res.StaleRebuildTime > 0 {
								rebuilds++
							}
							trail[planeName] = append(trail[planeName], fmt.Sprintf("%s: %d folds, stale rebuild %v", step, res.Folds, res.StaleRebuildTime > 0))
						}
						query("cold")
						for batch := 0; batch < 6; batch++ {
							delta := bandjoin.NewRelation("s", d)
							foldRows(rng, delta, 30+rng.Intn(30), band, true)
							for c := 0; c < 8; c++ { // copies of rows S already holds
								delta.AppendKey(s.Key(rng.Intn(s.Len())))
							}
							s.AppendRows(delta, 0, delta.Len())
							if err := e.Append(ctx, "s", delta); err != nil {
								t.Fatalf("Append(s): %v", err)
							}
							query(fmt.Sprintf("after S batch %d", batch))
							if batch == 2 {
								deltaT := bandjoin.NewRelation("t", d)
								foldRows(rng, deltaT, 40, band, true)
								tt.AppendRows(deltaT, 0, deltaT.Len())
								if err := e.Append(ctx, "t", deltaT); err != nil {
									t.Fatalf("Append(t): %v", err)
								}
								query("after the T batch")
							}
						}
						if rebuilds == 0 {
							t.Errorf("no query paid a stale rebuild; the append to T should have cost one")
						}
						if folds < 3 {
							t.Errorf("%d folds over six appends of a tenth of S each, want at least 3", folds)
						}
					})
				}
				if a, b := trail["in-process"], trail["cluster"]; len(a) > 0 && len(b) > 0 && !slices.Equal(a, b) {
					t.Errorf("d=%d/%s/%s: the planes' retained partitions went different ways:\nin-process %q\ncluster    %q", d, shape, zero, a, b)
				}
			}
		}
	}
}

// TestPartitionersGroundTruth runs every partitioner on both planes over
// foldRows inputs and compares the pairs with the nested loop: routing, not
// the local join, is what differs between the columns. The first row is the
// wrong answer ROADMAP item 8 had on record, found with this generator: the
// one-sided band of seed 102, where an S key one ulp below High[2] matches the
// T key 2·High[2] because s+High rounds up to it, while t−High, which RecPart's
// T-duplicating splits and Grid-ε's cell range were computed from, does not
// round down to s. Of this row's 6 000 pairs RecPart returned 5 995, RecPart-S
// 5 994, Grid-ε 5 976 and Grid* as many as its grid lost.
func TestPartitionersGroundTruth(t *testing.T) {
	planes := enginePlanes(t, 8)
	partitioners := []struct {
		name string
		pt   bandjoin.Partitioner
	}{
		{"RecPart", bandjoin.RecPart()}, {"RecPart-S", bandjoin.RecPartS()}, {"1-Bucket", bandjoin.OneBucket()},
		{"Grid-eps", bandjoin.GridEps()}, {"Grid*", bandjoin.GridStar()}, {"CSIO", bandjoin.CSIO()}, {"IEJoin", bandjoin.IEJoin()},
	}
	for _, row := range []struct {
		name     string
		d        int
		shape    string
		bandSeed int64
		rowSeed  int64
		zero     []int // dimensions whose band extents are set to 0
		nS, nT   int   // rows per side; one row is the point every band matches
		boundary bool  // after the first join, append keys on the plan's split boundaries and join again
	}{
		{"item-8", 3, "one-sided", 102, 39, nil, 360, 360, false},
		{"symmetric-2d", 2, "symmetric", 7, 8, nil, 360, 360, false},
		{"asymmetric-3d", 3, "asymmetric", 9, 10, nil, 360, 360, false},
		{"eps0-one-dim", 3, "asymmetric", 11, 12, []int{1}, 360, 360, false},
		{"eps0-all-dims", 2, "symmetric", 13, 14, []int{0, 1}, 360, 360, false},
		{"empty-S", 2, "symmetric", 7, 8, nil, 0, 360, false},
		{"empty-T", 3, "one-sided", 102, 39, nil, 360, 0, false},
		{"one-row-sides", 2, "asymmetric", 15, 16, nil, 1, 1, false},
		{"append-on-boundaries", 2, "asymmetric", 17, 18, nil, 360, 360, true},
		{"one-dim", 1, "asymmetric", 19, 20, nil, 360, 360, false},
		{"one-dim-eps0", 1, "symmetric", 21, 22, []int{0}, 360, 360, false},
	} {
		band := foldBand(rand.New(rand.NewSource(row.bandSeed)), row.shape, row.d)
		for _, j := range row.zero {
			band.Low[j], band.High[j] = 0, 0
		}
		rng := rand.New(rand.NewSource(row.rowSeed))
		s, tt := bandjoin.NewRelation("s", row.d), bandjoin.NewRelation("t", row.d)
		foldRows(rng, s, row.nS, band, false)
		foldRows(rng, tt, row.nT, band, true)
		if row.nS == 1 && row.nT == 1 {
			s.SetKey(0, tt.Key(0))
		}
		want := definitionPairs(s, tt, band)
		if len(want) == 0 && row.nS > 0 && row.nT > 0 {
			t.Fatalf("%s: the definition has no pairs; the inputs exercise nothing", row.name)
		}
		for _, p := range partitioners {
			// The one-shot plane: no retention, every partition built when the
			// morsel scheduler reaches it, straight from the routed lists —
			// striped into morsels by the public Join, and whole by exec's
			// per-partition baseline (MorselRows < 0, which the skew and
			// scaling harnesses run) with Join's seeds, so the same plan.
			for _, morselRows := range []int{0, -1} {
				t.Run(fmt.Sprintf("%s/%s/one-shot-morsels=%d", row.name, p.name, morselRows), func(t *testing.T) {
					var res *bandjoin.Result
					var err error
					if morselRows == 0 {
						res, err = bandjoin.Join(s, tt, band, bandjoin.Options{Workers: 8, Seed: 5, CollectPairs: true, Partitioner: p.pt})
					} else {
						opts := exec.DefaultOptions(8)
						opts.Sampling.Seed, opts.Seed = 6, 5
						opts.CollectPairs, opts.MorselRows = true, morselRows
						res, err = exec.Run(p.pt, s, tt, band, opts)
					}
					if len(row.zero) > 0 && strings.HasPrefix(p.name, "Grid") {
						if err == nil || !strings.Contains(err.Error(), "undefined for equi-joins") {
							t.Fatalf("Join with a zero band width: got %v, want the grid's refusal", err)
						}
						return
					}
					if err != nil {
						t.Fatalf("Join: %v", err)
					}
					pairsEqual(t, "one-shot vs nested loop", res.Pairs, want)
				})
			}
			for planeName, newEngine := range planes {
				t.Run(fmt.Sprintf("%s/%s/%s", row.name, p.name, planeName), func(t *testing.T) {
					e := newEngine(bandjoin.EngineOptions{})
					defer e.Close()
					s, tt := s.Clone("s"), tt.Clone("t")
					if err := e.Register("s", s.Clone("s")); err != nil {
						t.Fatalf("Register: %v", err)
					}
					if err := e.Register("t", tt.Clone("t")); err != nil {
						t.Fatalf("Register: %v", err)
					}
					spy := &planSpy{Partitioner: p.pt, log: &planLog{}}
					opts := bandjoin.Options{Workers: 8, Seed: 5, CollectPairs: true, Partitioner: spy}
					res, err := e.Join(context.Background(), "s", "t", band, opts)
					if len(row.zero) > 0 && strings.HasPrefix(p.name, "Grid") {
						// A grid of ε-wide cells has no cells at ε = 0, and says so.
						if err == nil || !strings.Contains(err.Error(), "undefined for equi-joins") {
							t.Fatalf("Join with a zero band width: got %v, want the grid's refusal", err)
						}
						return
					}
					if err != nil {
						t.Fatalf("Join: %v", err)
					}
					pairsEqual(t, "engine vs nested loop", res.Pairs, want)
					if !row.boundary {
						return
					}
					// Keys on either side of every place where the plan's routing
					// changes along a line through a row of S, and, for each, T keys
					// at the ends of its band: appended, they are routed alone
					// (a delta shuffle with offset IDs) into the partitions the
					// first join left.
					deltaS, deltaT := bandjoin.NewRelation("s", row.d), bandjoin.NewRelation("t", row.d)
					for _, key := range boundaryKeys(spy.log.plans[0], s, tt) {
						deltaS.AppendKey(key)
						for j := range key {
							for _, v := range []float64{key[j] - band.Low[j], key[j] + band.High[j]} {
								partner := append([]float64(nil), key...)
								partner[j] = v
								deltaT.AppendKey(partner)
							}
						}
					}
					if p.name != "1-Bucket" && deltaS.Len() == 0 {
						t.Fatal("the plan's routing changes nowhere; the append stages nothing")
					}
					// 1-Bucket routes by tuple ID, not by key: its appended rows
					// (copies of rows already there) check the offset IDs instead.
					for i := 0; deltaS.Len() < 16; i++ {
						deltaS.AppendKey(s.Key(i))
						deltaT.AppendKey(tt.Key(i))
					}
					s.AppendRows(deltaS, 0, deltaS.Len())
					tt.AppendRows(deltaT, 0, deltaT.Len())
					if err := e.Append(context.Background(), "s", deltaS); err != nil {
						t.Fatalf("Append(s): %v", err)
					}
					if err := e.Append(context.Background(), "t", deltaT); err != nil {
						t.Fatalf("Append(t): %v", err)
					}
					res, err = e.Join(context.Background(), "s", "t", band, opts)
					if err != nil {
						t.Fatalf("Join after the append: %v", err)
					}
					if len(spy.log.plans) != 1 {
						t.Fatalf("the engine planned %d times; the appended keys were meant for the first plan", len(spy.log.plans))
					}
					pairsEqual(t, "after the append: engine vs nested loop", res.Pairs, definitionPairs(s, tt, band))
				})
			}
		}
	}
}

// planSpy is a partitioner that keeps the plans it makes. It keeps them
// behind a pointer, so the value the engine's plan cache prints as its
// fingerprint stays fixed and the plans it has kept do not make it a new
// partitioner.
type planSpy struct {
	bandjoin.Partitioner
	log *planLog
}

type planLog struct {
	mu    sync.Mutex
	plans []bandjoin.Plan
}

func (p *planSpy) Plan(ctx *partition.Context) (bandjoin.Plan, error) {
	plan, err := p.Partitioner.Plan(ctx)
	p.log.mu.Lock()
	defer p.log.mu.Unlock()
	p.log.plans = append(p.log.plans, plan)
	return plan, err
}

// boundaryKeys finds keys exactly on a plan's split boundaries without knowing
// what kind of plan it is: along each dimension through a few rows of s, it
// looks for neighbouring key values of the inputs between which AssignS or
// AssignT changes its answer, and bisects down to the two adjacent floats
// where it does. Both are returned (at most a few dozen keys).
func boundaryKeys(plan bandjoin.Plan, s, t *bandjoin.Relation) [][]float64 {
	var out [][]float64
	d := s.Dims()
	for _, assign := range []func(int64, []float64, []int) []int{plan.AssignS, plan.AssignT} {
		at := func(key []float64, j int, v float64) string {
			probe := append([]float64(nil), key...)
			probe[j] = v
			return fmt.Sprint(assign(0, probe, nil))
		}
		for row := 0; row < s.Len() && len(out) < 48; row += s.Len() / 4 {
			key := s.Key(row)
			for j := 0; j < d; j++ {
				var vals []float64
				for _, r := range []*bandjoin.Relation{s, t} {
					for i := 0; i < r.Len(); i++ {
						vals = append(vals, r.Key(i)[j])
					}
				}
				sort.Float64s(vals)
				for i := 1; i < len(vals); i++ {
					lo, hi := vals[i-1], vals[i]
					if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || at(key, j, lo) == at(key, j, hi) {
						continue
					}
					for left := at(key, j, lo); ; {
						mid := lo + (hi-lo)/2
						if mid <= lo || mid >= hi {
							break // adjacent floats
						}
						if at(key, j, mid) == left {
							lo = mid
						} else {
							hi = mid
						}
					}
					for _, v := range []float64{lo, hi} {
						k := append([]float64(nil), key...)
						k[j] = v
						out = append(out, k)
					}
					break // one boundary per row and dimension is plenty
				}
			}
		}
	}
	return out
}
