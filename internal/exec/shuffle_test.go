package exec

import (
	"context"
	"fmt"
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

// TestShuffleEquivalence checks that the two-pass shuffle produces exactly the
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

// TestExecutePlanSerialVsParallel checks the end-to-end accounting: a run on
// one goroutine (one shuffle shard, one local join at a time) and a run on
// seven must agree on every quantity the paper evaluates, and both must return
// exactly the pairs of the band-join definition.
func TestExecutePlanSerialVsParallel(t *testing.T) {
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
					opts := DefaultOptions(5)
					opts.CollectPairs = true
					opts.Parallelism = parallelism
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

// TestParallelShuffleRace hammers the shuffle with many shards; run
// under -race (as CI does) it verifies the concurrent counting pass, the
// lock-free write pass, and Grid-ε's synchronized lazy cell discovery.
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
				if countNonEmpty(parts) == 0 {
					t.Fatal("shuffle produced no partitions")
				}
			}
		})
	}
}
