package exec

import (
	"context"
	"runtime"
	"sync"

	"bandjoin/internal/data"
	"bandjoin/internal/partition"
)

// The map phase (shuffle) routes every input tuple through the plan's
// assignment into per-partition buffers. Shuffle shards S and T across
// goroutines and builds every partition in exactly-sized flat buffers with two
// passes: pass 1 records each tuple's partition assignments and counts
// per-(shard, partition) occupancy; a prefix sum over the count matrix then
// yields the exact row every (shard, partition) pair writes to; pass 2 replays
// the recorded assignments and copies keys and tuple IDs straight to their
// final locations. Shards write disjoint row ranges, so the write path needs
// no locks and no append growth, and partition contents come out in global
// tuple order — what one pass over S then T appending to per-partition
// relations would produce (TestShuffleEquivalence).
//
// Plans must be safe for concurrent Assign calls (all in-repo plans are; see
// grid.Plan for the one that needed internal synchronization).

// PartitionInput is the data shuffled to one partition, as returned by
// Shuffle. The relations and ID slices may alias a shared arena; callers must
// not append to them.
type PartitionInput struct {
	S    *data.Relation
	SIDs []int64
	T    *data.Relation
	TIDs []int64
}

// Tuples returns the partition's input size |S_p| + |T_p|.
func (p *PartitionInput) Tuples() int { return p.S.Len() + p.T.Len() }

// Presort reorders the partition's rows into ascending dim-0 key order (NaN
// last, ties kept in row order), returning a new PartitionInput that owns its
// storage. Retained partitions are presorted once at retention time — the
// registry's analogue of an index built at load time. The sort-based local
// joins begin by sorting their inputs on the first join attribute and find
// them sorted. The ε-grid sorts nothing, and gains more: it probes S in row
// order and numbers T's cells in first-seen order, so over presorted sides
// consecutive probes walk neighbouring cells whose rows lie next to each other
// in memory (the serving workload's warm op reads 0.15 s sealed this way,
// 0.27 s sealed unsorted; DESIGN.md, "Folding the appended tail"). The result
// set is unchanged (joins are order-independent, and tuple IDs travel with
// their rows).
func (p *PartitionInput) Presort() *PartitionInput {
	s, sIDs := sortByDim0(p.S, p.SIDs, 0)
	t, tIDs := sortByDim0(p.T, p.TIDs, 0)
	return &PartitionInput{S: s, SIDs: sIDs, T: t, TIDs: tIDs}
}

// sortByDim0 returns the relation's rows (and their parallel tuple IDs)
// reordered by ascending first-dimension key, NaN last, stably, in storage of
// their own with room for spare more rows.
func sortByDim0(rel *data.Relation, ids []int64, spare int) (*data.Relation, []int64) {
	n := rel.Len()
	if n < 2 {
		return rel, ids
	}
	dims := rel.Dims()
	src := rel.KeysRange(0, n)
	keys := make([]float64, n*dims, (n+spare)*dims)
	// The output's own first n values stage the dim-0 column for the argsort;
	// the gather below overwrites them.
	col := keys[:n]
	for i := range col {
		col[i] = src[i*dims]
	}
	perm := make([]int32, n)
	data.Argsort(col, perm)
	outIDs := make([]int64, n, n+spare)
	for row, from := range perm {
		copy(keys[row*dims:(row+1)*dims], src[int(from)*dims:(int(from)+1)*dims])
		outIDs[row] = ids[from]
	}
	return data.NewRelationFromKeys(rel.Name(), dims, keys), outIDs
}

// PresortPartitions presorts every non-nil partition in place (slice entries
// are replaced; the underlying arenas are not mutated), with at most
// `parallelism` concurrent sorts (< 1 selects GOMAXPROCS).
func PresortPartitions(parts []*PartitionInput, parallelism int) {
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism)
	for pid, p := range parts {
		if p == nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(pid int, p *PartitionInput) {
			defer wg.Done()
			defer func() { <-sem }()
			parts[pid] = p.Presort()
		}(pid, p)
	}
	wg.Wait()
}

// ShuffleDelta routes only appended rows through the plan's assignment,
// returning per-partition delta inputs whose tuple IDs are offset by the base
// cardinalities (sBase rows of S and tBase rows of T existed before the
// append), so a delta shuffle's IDs are exactly what a full-relation shuffle
// of the extended inputs would have assigned those rows. Either delta may be
// empty. The returned partitions own their arenas (nothing aliases the
// deltas), so callers may append them into retained partition storage.
func ShuffleDelta(ctx context.Context, plan partition.Plan, deltaS, deltaT *data.Relation, sBase, tBase int, parallelism int) ([]*PartitionInput, int64, error) {
	// Route with the rows' global IDs: plans that consult the tuple ID
	// (1-Bucket's randomized row/column choice) must see the same ID a
	// full-relation shuffle of the extended input would pass them.
	shifted := &offsetIDPlan{Plan: plan, sOff: int64(sBase), tOff: int64(tBase)}
	parts, totalInput, err := Shuffle(ctx, shifted, deltaS, deltaT, parallelism)
	if err != nil {
		return nil, 0, err
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for i := range p.SIDs {
			p.SIDs[i] += int64(sBase)
		}
		for i := range p.TIDs {
			p.TIDs[i] += int64(tBase)
		}
	}
	return parts, totalInput, nil
}

// offsetIDPlan rebases the tuple IDs a delta shuffle passes to the wrapped
// plan's assignment. Only the routing surface Shuffle touches (AssignS,
// AssignT, NumPartitions via embedding) is forwarded.
type offsetIDPlan struct {
	partition.Plan
	sOff, tOff int64
}

func (o *offsetIDPlan) AssignS(id int64, key []float64, dst []int) []int {
	return o.Plan.AssignS(id+o.sOff, key, dst)
}

func (o *offsetIDPlan) AssignT(id int64, key []float64, dst []int) []int {
	return o.Plan.AssignT(id+o.tOff, key, dst)
}

// shardAssignments records what one shard's counting pass learned about one
// relation: the concatenated partition ids of its tuples (in tuple order), how
// many partitions each tuple went to, and the per-partition occupancy.
type shardAssignments struct {
	pids    []int32 // partition ids, concatenated in tuple order
	degrees []int32 // per tuple, number of entries in pids
	counts  []int   // per partition, number of tuples this shard sends there
}

// assignFunc is plan.AssignS or plan.AssignT.
type assignFunc func(id int64, key []float64, dst []int) []int

// countShard runs the counting pass of one shard over rel[lo:hi). numParts
// pre-sizes the occupancy counters; lazily-discovering plans may report more
// partitions as they go, growing the counters past it.
func countShard(assign assignFunc, rel *data.Relation, lo, hi, numParts int, sa *shardAssignments) {
	dst := make([]int, 0, 16)
	sa.counts = make([]int, numParts)
	sa.degrees = make([]int32, 0, hi-lo)
	sa.pids = make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		dst = assign(int64(i), rel.Key(i), dst[:0])
		sa.degrees = append(sa.degrees, int32(len(dst)))
		for _, pid := range dst {
			for pid >= len(sa.counts) {
				sa.counts = append(sa.counts, make([]int, pid+1-len(sa.counts))...)
			}
			sa.counts[pid]++
			sa.pids = append(sa.pids, int32(pid))
		}
	}
}

// writeShard replays one shard's recorded assignments, copying keys and tuple
// IDs to their pre-computed rows. off[pid] is the next global row this shard
// writes for partition pid; rows of different shards are disjoint, so the
// writes need no synchronization.
func writeShard(rel *data.Relation, lo, hi int, sa *shardAssignments, off []int, keys []float64, ids []int64) {
	dims := rel.Dims()
	sp := 0
	for i := lo; i < hi; i++ {
		key := rel.Key(i)
		for e := int32(0); e < sa.degrees[i-lo]; e++ {
			pid := sa.pids[sp]
			sp++
			row := off[pid]
			off[pid] = row + 1
			copy(keys[row*dims:(row+1)*dims], key)
			ids[row] = int64(i)
		}
	}
}

// shardRanges splits n tuples into at most shards contiguous ranges.
func shardRanges(n, shards int) [][2]int {
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	out := make([][2]int, 0, shards)
	for k := 0; k < shards; k++ {
		lo := n * k / shards
		hi := n * (k + 1) / shards
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// sideBuffers aggregates the two-pass bookkeeping of one relation side.
type sideBuffers struct {
	shards  [][2]int
	assigns []shardAssignments
	totals  []int     // per partition, total tuple count
	starts  []int     // per partition, first row in the arena
	offsets [][]int   // per shard, next row per partition (consumed by pass 2)
	keys    []float64 // arena: all partitions' keys, row-major
	ids     []int64   // arena: all partitions' tuple IDs
}

// finishCounts turns per-shard counts into per-partition totals and exact
// per-(shard, partition) write offsets over a single shared arena.
func (sb *sideBuffers) finishCounts(numParts, dims int) int64 {
	sb.totals = make([]int, numParts)
	for k := range sb.assigns {
		for pid, c := range sb.assigns[k].counts {
			sb.totals[pid] += c
		}
	}
	var total int64
	sb.starts = make([]int, numParts+1)
	for pid, c := range sb.totals {
		sb.starts[pid+1] = sb.starts[pid] + c
		total += int64(c)
	}
	cum := make([]int, numParts)
	copy(cum, sb.starts[:numParts])
	sb.offsets = make([][]int, len(sb.assigns))
	for k := range sb.assigns {
		off := make([]int, numParts)
		copy(off, cum)
		sb.offsets[k] = off
		for pid, c := range sb.assigns[k].counts {
			cum[pid] += c
		}
	}
	sb.keys = make([]float64, int(total)*dims)
	sb.ids = make([]int64, total)
	return total
}

// partitionRows returns the rows of partition pid as zero-copy slices of the
// arena. Capacities are clamped so a later Append on the wrapped relation
// reallocates instead of silently overwriting the next partition's rows.
func (sb *sideBuffers) partitionRows(pid, dims int) ([]float64, []int64) {
	lo, hi := sb.starts[pid], sb.starts[pid+1]
	return sb.keys[lo*dims : hi*dims : hi*dims], sb.ids[lo:hi:hi]
}

// Shuffle routes every tuple of s and t through the plan's assignment and
// returns the per-partition inputs plus the total routed tuple count I (input
// including duplicates). Entries for empty partitions are nil. Each input is
// cut into at most `shards` ranges (values < 1 select GOMAXPROCS), and at most
// that many goroutines run at any time across both relations. It is the
// routing stage the RPC coordinator (internal/cluster) shares with the
// in-process executor. Cancelling ctx aborts the shuffle between its two
// passes, returning ctx.Err().
func Shuffle(ctx context.Context, plan partition.Plan, s, t *data.Relation, shards int) ([]*PartitionInput, int64, error) {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	var sb, tb sideBuffers
	sb.shards = shardRanges(s.Len(), shards)
	tb.shards = shardRanges(t.Len(), shards)
	sb.assigns = make([]shardAssignments, len(sb.shards))
	tb.assigns = make([]shardAssignments, len(tb.shards))
	planned := plan.NumPartitions()

	// run executes fn for every S- and T-shard, at most `shards` at a time
	// across both sides, so Options.Parallelism truly bounds the concurrency
	// (Parallelism = 1 processes the shards strictly one after another).
	run := func(fn func(side *sideBuffers, isS bool, k int)) {
		var wg sync.WaitGroup
		sem := make(chan struct{}, shards)
		for _, side := range []struct {
			sb  *sideBuffers
			isS bool
		}{{&sb, true}, {&tb, false}} {
			for k := range side.sb.shards {
				wg.Add(1)
				sem <- struct{}{}
				go func(sb *sideBuffers, isS bool, k int) {
					defer wg.Done()
					defer func() { <-sem }()
					fn(sb, isS, k)
				}(side.sb, side.isS, k)
			}
		}
		wg.Wait()
	}

	// Pass 1: count and record assignments, in parallel over shards.
	run(func(side *sideBuffers, isS bool, k int) {
		r := side.shards[k]
		if isS {
			countShard(plan.AssignS, s, r[0], r[1], planned, &side.assigns[k])
		} else {
			countShard(plan.AssignT, t, r[0], r[1], planned, &side.assigns[k])
		}
	})

	// Pass 1 is the expensive half (every Assign call); honor a cancellation
	// that arrived during it before committing to the arena writes of pass 2.
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}

	// All partitions are known now, even for lazily-discovering plans.
	numParts := plan.NumPartitions()
	for k := range sb.assigns {
		if n := len(sb.assigns[k].counts); n > numParts {
			numParts = n
		}
	}
	for k := range tb.assigns {
		if n := len(tb.assigns[k].counts); n > numParts {
			numParts = n
		}
	}

	// Prefix sums: exact write offsets and exactly-sized arenas.
	totalInput := sb.finishCounts(numParts, s.Dims()) + tb.finishCounts(numParts, t.Dims())

	// Pass 2: write keys and IDs to their final rows, in parallel over shards.
	run(func(side *sideBuffers, isS bool, k int) {
		r := side.shards[k]
		if isS {
			writeShard(s, r[0], r[1], &side.assigns[k], side.offsets[k], side.keys, side.ids)
		} else {
			writeShard(t, r[0], r[1], &side.assigns[k], side.offsets[k], side.keys, side.ids)
		}
	})

	parts := make([]*PartitionInput, numParts)
	for pid := 0; pid < numParts; pid++ {
		if sb.totals[pid] == 0 && tb.totals[pid] == 0 {
			continue
		}
		sKeys, sIDs := sb.partitionRows(pid, s.Dims())
		tKeys, tIDs := tb.partitionRows(pid, t.Dims())
		parts[pid] = &PartitionInput{
			S:    data.NewRelationFromKeys("S-part", s.Dims(), sKeys),
			SIDs: sIDs,
			T:    data.NewRelationFromKeys("T-part", t.Dims(), tKeys),
			TIDs: tIDs,
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return parts, totalInput, nil
}
