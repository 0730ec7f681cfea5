package exec

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"bandjoin/internal/data"
	"bandjoin/internal/partition"
)

// The map phase (shuffle) routes every input tuple through the plan's
// assignment. Route is the whole of it: S and T are cut into shards, and one
// pass per shard calls the plan's assignment once per tuple and appends the
// tuple's row number to the list of each partition it names. A partition's
// rows are its shards' lists in shard order — global tuple order — and a
// tuple's ID is its row number plus the side's base, so the routed lists name
// everything a partition holds without copying a key. The RPC coordinator
// ships from them, gathering one chunk at a time out of the source relations
// (RoutedSide.Gather); Entry.Absorb gathers each partition into a retained
// in-process Partition as a worker's stream would fill it, and ExecutePlan
// gathers each the same way into a pooled Partition when its join reaches it,
// which goes back to the pool for the next after the partition's last morsel.
// Shuffle materialises them all, each partition filled as Entry.Absorb fills
// one, for the benchmark's replay and the skew and scaling harnesses.
// Shards write disjoint row ranges, so no path needs a lock, and partition
// contents come out as one pass over S then T appending to per-partition
// relations would produce them (TestRouteMatchesAssign, TestShuffleEquivalence).
//
// Plans must be safe for concurrent Assign calls (all in-repo plans are; see
// grid.Plan for the one that needed internal synchronization).

// PartitionInput is one partition's rows and tuple IDs: Shuffle's output, and
// what LockForProbe hands a join. LockForProbe's are a read-locked
// partition's own storage; callers must not append to them.
type PartitionInput struct {
	S    *data.Relation
	SIDs []int64
	T    *data.Relation
	TIDs []int64
}

// sortByDim0 returns the relation's rows (and their parallel tuple IDs)
// reordered by ascending first-dimension key, NaN last, stably, in storage of
// their own (whatever the row count) with room for spare more rows.
func sortByDim0(rel *data.Relation, ids []int64, spare int) (*data.Relation, []int64) {
	n, dims := rel.Len(), rel.Dims()
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

// RoutedSide is one relation's routing outcome: per shard and partition, the
// rows of Rel the shard's pass sent there, ascending. Row numbers are int32
// (Route refuses longer relations), and row i's tuple ID is i + Base. It holds
// Rel as the caller passed it — a snapshot: rows appended to the relation
// afterwards (Relation.Extend shares the prefix and writes past it) are
// beyond anything a list names.
type RoutedSide struct {
	Rel    *data.Relation
	Base   int64
	assign func(id int64, key []float64, dst []int) []int // plan.AssignS or AssignT
	shards [][][]int32                                    // [shard][partition] → rows
	totals []int                                          // per partition, rows over all shards
}

// Rows returns the number of tuples routed to partition pid.
func (rs *RoutedSide) Rows(pid int) int { return rs.totals[pid] }

// Gather copies rows [lo, hi) of partition pid — positions in the partition's
// global tuple order, which may span several shards' lists — into keys
// (row-major, (hi-lo)*Dims values) and their tuple IDs into ids.
func (rs *RoutedSide) Gather(pid, lo, hi int, keys []float64, ids []int64) {
	dims := rs.Rel.Dims()
	for _, lists := range rs.shards {
		if pid >= len(lists) {
			continue
		}
		seg := lists[pid]
		if from, to := max(lo, 0), min(hi, len(seg)); from < to {
			rs.gather(seg[from:to], keys, ids)
			keys, ids = keys[(to-from)*dims:], ids[to-from:]
		}
		lo, hi = lo-len(seg), hi-len(seg)
	}
}

// gather copies the listed rows' keys and tuple IDs to the front of keys and
// ids.
func (rs *RoutedSide) gather(rows []int32, keys []float64, ids []int64) {
	dims := rs.Rel.Dims()
	src := rs.Rel.KeysRange(0, rs.Rel.Len())
	for i, row := range rows {
		copy(keys[i*dims:(i+1)*dims], src[int(row)*dims:(int(row)+1)*dims])
		ids[i] = int64(row) + rs.Base
	}
}

// route runs shard k's pass, over its share of the side's rows, and stores its
// per-partition row lists. numParts is the plan's partition count before the
// pass: each of those lists starts with room for an even share of the shard
// (at most 4 bytes per input row in all; append's growth from nothing left 5×
// a list's size in garbage), and lazily-discovering plans may name more
// partitions as they go, growing the slice past it.
func (rs *RoutedSide) route(k, numParts int) {
	n, shards := rs.Rel.Len(), len(rs.shards)
	lists := make([][]int32, numParts)
	dst := make([]int, 0, 16)
	lo, hi := n*k/shards, n*(k+1)/shards
	hint := (hi - lo) / max(numParts, 1)
	for i := lo; i < hi; i++ {
		dst = rs.assign(int64(i)+rs.Base, rs.Rel.Key(i), dst[:0])
		for _, pid := range dst {
			for pid >= len(lists) {
				lists = append(lists, nil)
			}
			if lists[pid] == nil && pid < numParts {
				lists[pid] = make([]int32, 0, hint)
			}
			lists[pid] = append(lists[pid], int32(i))
		}
	}
	rs.shards[k] = lists
}

// Routed is what Route returns: both sides' row lists, the number of
// partitions they cover (every partition the plan knew or discovered), and the
// total routed tuple count I (input including duplicates).
type Routed struct {
	S, T          RoutedSide
	NumPartitions int
	TotalInput    int64
	shards        int // the goroutine bound Route was given, resolved
}

// NonEmpty lists, ascending, the partitions that received a tuple.
func (r *Routed) NonEmpty() []int {
	pids := make([]int, 0, r.NumPartitions)
	for pid := 0; pid < r.NumPartitions; pid++ {
		if r.S.Rows(pid)+r.T.Rows(pid) > 0 {
			pids = append(pids, pid)
		}
	}
	return pids
}

// eachShard executes fn for every S- and T-shard, at most r.shards at a time
// across both sides, so the shard count truly bounds the concurrency (one
// shard processes the two sides strictly one after another).
func (r *Routed) eachShard(fn func(side *RoutedSide, k int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, r.shards)
	for _, side := range []*RoutedSide{&r.S, &r.T} {
		for k := range side.shards {
			wg.Add(1)
			sem <- struct{}{}
			go func(side *RoutedSide, k int) {
				defer wg.Done()
				defer func() { <-sem }()
				fn(side, k)
			}(side, k)
		}
	}
	wg.Wait()
}

// Route routes every tuple of s and t through the plan's assignment and
// returns the per-partition row lists. A tuple's ID — what the assignment sees
// and what Gather reports — is its row number plus sBase or tBase: zero for
// whole relations, the rows that came before for an appended delta. Each input
// is cut into at most `shards` ranges (values < 1 select GOMAXPROCS), and at
// most that many goroutines run at any time across both relations. It is the
// routing stage the RPC coordinator (internal/cluster) shares with the
// in-process executor. A context cancelled before or during the pass yields
// ctx.Err(); a relation whose row numbers do not fit the lists' 32 bits is
// refused.
func Route(ctx context.Context, plan partition.Plan, s, t *data.Relation, sBase, tBase, shards int) (*Routed, error) {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &Routed{
		S:      RoutedSide{Rel: s, Base: int64(sBase), assign: plan.AssignS},
		T:      RoutedSide{Rel: t, Base: int64(tBase), assign: plan.AssignT},
		shards: shards,
	}
	for _, side := range []*RoutedSide{&r.S, &r.T} {
		n := side.Rel.Len()
		if err := checkRows(side.Rel.Name(), n); err != nil {
			return nil, err
		}
		side.shards = make([][][]int32, max(1, min(shards, n)))
	}
	planned := plan.NumPartitions()
	r.eachShard(func(side *RoutedSide, k int) { side.route(k, planned) })
	// The pass is the expensive part (every Assign call); honor a cancellation
	// that arrived during it before anyone gathers or ships.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// All partitions are known now, even for lazily-discovering plans.
	r.NumPartitions = plan.NumPartitions()
	for _, side := range []*RoutedSide{&r.S, &r.T} {
		for _, lists := range side.shards {
			r.NumPartitions = max(r.NumPartitions, len(lists))
		}
	}
	for _, side := range []*RoutedSide{&r.S, &r.T} {
		side.totals = make([]int, r.NumPartitions)
		for _, lists := range side.shards {
			for pid, rows := range lists {
				side.totals[pid] += len(rows)
				r.TotalInput += int64(len(rows))
			}
		}
	}
	return r, nil
}

// checkRows refuses a relation of n tuples whose row numbers overflow int32.
func checkRows(name string, n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("exec: relation %q has %d tuples; routing numbers rows in 32 bits (at most %d)", name, n, math.MaxInt32)
	}
	return nil
}

// Shuffle routes every tuple of s and t (Route) and materialises the
// per-partition inputs, returning them with the total routed tuple count I.
// Entries for empty partitions are nil. shards bounds the goroutines of both
// steps as it does Route's. Cancelling ctx aborts the shuffle between routing
// and gathering, returning ctx.Err(). It serves the benchmark's replay, which
// times the shuffle as a stage of its own, and the skew and scaling harnesses;
// the engine's planes route (Route) and gather as they go.
func Shuffle(ctx context.Context, plan partition.Plan, s, t *data.Relation, shards int) ([]*PartitionInput, int64, error) {
	return ShuffleDelta(ctx, plan, s, t, 0, 0, shards)
}

// ShuffleDelta is Shuffle over appended rows only: tuple IDs are offset by the
// base cardinalities (sBase rows of S and tBase rows of T existed before the
// append), both as the plan's assignment sees them — plans that consult the
// tuple ID (1-Bucket's randomized row/column choice) must see what a
// full-relation shuffle of the extended input would pass them — and as
// returned, so a delta shuffle's IDs are exactly what that full shuffle would
// have assigned those rows. Either delta may be empty, and nothing returned
// aliases the deltas. Like Shuffle, it serves the benchmark's replay; the
// engine absorbs a delta through Entry.Absorb.
func ShuffleDelta(ctx context.Context, plan partition.Plan, deltaS, deltaT *data.Relation, sBase, tBase int, shards int) ([]*PartitionInput, int64, error) {
	r, err := Route(ctx, plan, deltaS, deltaT, sBase, tBase, shards)
	if err != nil {
		return nil, 0, err
	}
	filled := make([]*Partition, r.NumPartitions)
	for _, pid := range r.NonEmpty() {
		filled[pid] = NewPartition(deltaS.Dims())
	}
	each(filled, r.shards, func(pid int, p *Partition) { p.appendRouted(r, pid) })
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	parts := make([]*PartitionInput, r.NumPartitions)
	for pid, p := range filled {
		if p != nil {
			parts[pid] = &PartitionInput{S: p.s, SIDs: p.sIDs, T: p.t, TIDs: p.tIDs}
		}
	}
	return parts, r.TotalInput, nil
}
