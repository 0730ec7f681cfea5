package bandjoin_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bandjoin"
	"bandjoin/internal/localjoin"
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
// moved by a band extent or at random, and, when special is set, now and then
// NaN or ±Inf. (No keys one ulp off an interval end, which the kernel's own
// definition table has: RecPart's and Grid-ε's routing rounds differently from
// the predicate there and loses such pairs before any local join runs — at the
// parent commit too; ROADMAP item 8.)
func foldRows(rng *rand.Rand, r *bandjoin.Relation, n int, band bandjoin.Band, special bool) {
	d := band.Dims()
	key := make([]float64, d)
	for ; n > 0; n-- {
		mass := rng.Intn(5) == 0
		for j := range key {
			w := math.Max(band.Low[j], band.High[j])
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
// Structures without per-row S state never fold: a sort-probe keeps its
// structure across S appends, the sorted scan pins S and is rebuilt in full,
// as before.
func TestEngineFoldGroundTruth(t *testing.T) {
	planes := enginePlanes(t, 2)
	ctx := context.Background()
	for _, d := range []int{2, 3, 8} {
		for _, shape := range []string{"symmetric", "asymmetric", "one-sided"} {
			for _, alg := range []string{"", "sort-probe", "grid-sort-scan"} {
				if alg != "" && (d != 3 || shape != "asymmetric") {
					continue
				}
				for planeName, newEngine := range planes {
					name := fmt.Sprintf("%s/d=%d/%s/%s", planeName, d, shape, alg)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(31*d + len(shape))))
						band := foldBand(rng, shape, d)
						opts := bandjoin.Options{Workers: 2, Seed: 5, CollectPairs: true, LocalAlgorithm: alg}
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
						switch {
						case alg != "" && folds != 0:
							t.Errorf("%d folds with %s, which keeps no per-row state of S", folds, alg)
						case alg == "" && folds < 3:
							t.Errorf("%d folds over six appends of a tenth of S each, want at least 3", folds)
						}
					})
				}
			}
		}
	}
}
