package exec

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

// Partition is one partition's rows — a retained plan's on either plane, a
// one-shot join's on a cluster worker or, taken from a pool for the length of
// its morsel job, in process (ExecutePlan) — together with the local join's
// structure for them: S, T, their tuple IDs and the ε-grid, under one
// read-write lock. Appends and the structure's upkeep take the write lock;
// a join holds the read lock from the moment it fetches the structure until
// its last morsel (LockForProbe). So S, its IDs and the structure are replaced
// together and read together: the structure's cell lists are positional, and
// one resolved for one S order must never meet another.
type Partition struct {
	mu   sync.RWMutex
	s, t *data.Relation
	sIDs []int64
	tIDs []int64
	dims int
	// band names the band prep was built for, "" when there is none; prep is
	// nil for a partition that joins through the nested loop.
	band string
	prep *localjoin.EpsGrid
}

// NewPartition returns an empty partition of the given dimensionality.
func NewPartition(dims int) *Partition {
	return &Partition{s: data.NewRelation("S-part", dims), t: data.NewRelation("T-part", dims), dims: dims}
}

// Dims returns the partition's dimensionality, fixed at creation.
func (p *Partition) Dims() int { return p.dims }

// bandKey names the band a structure is built for.
func bandKey(band data.Band) string { return fmt.Sprintf("%v|%v", band.Low, band.High) }

// Seal presorts both sides by dimension 0 (NaN last, ties kept in row order,
// tuple IDs travelling with their rows, into storage of the partition's own)
// and, when band is valid for the partition, prepares its structure: both
// paid once, when a retained partition is complete, off every later query's
// path — the analogue of an index built at load time. The ε-grid probes S in
// row order and numbers T's cells in first-seen order, so over presorted sides
// consecutive probes walk neighbouring cells whose rows lie next to each other
// in memory (the serving workload's warm op reads 0.15 s sealed this way, 0.27
// s sealed unsorted; DESIGN.md, "Folding the appended tail"). The result set
// is unchanged: joins are order-independent. A partition that already has
// band's structure, sealed or refreshed (a kept stream's build on a cluster
// worker), is left as it is.
func (p *Partition) Seal(band data.Band) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.band != bandKey(band) {
		p.sealLocked(band)
	}
}

func (p *Partition) sealLocked(band data.Band) {
	p.s, p.sIDs = sortByDim0(p.s, p.sIDs, 0)
	p.t, p.tIDs = sortByDim0(p.t, p.tIDs, 0)
	p.band, p.prep = "", nil
	if band.Validate() == nil && band.Dims() == p.dims {
		p.prepareLocked(band)
	}
}

func (p *Partition) prepareLocked(band data.Band) {
	p.prep, p.band = localjoin.Prepare(p.s, p.t, band), bandKey(band)
}

// Append adds rows to one side, S or (toT) T, under the write lock: fill
// appends them to the side's relation and IDs (a worker decodes a chunk
// straight into them), must leave both at their previous lengths when it
// fails, and must take no other partition's lock. Then the delta rule: rows
// appended to T, or to a partition without a structure (one that joins through
// the nested loop may have outgrown it), drop the structure, and the next
// Refresh rebuilds it; rows appended to S alone keep it, and it probes them
// too until Refresh folds them in. It returns both sides' row counts after the
// append.
func (p *Partition) Append(toT bool, fill func(rel *data.Relation, ids *[]int64) error) (sRows, tRows int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rel, ids := p.s, &p.sIDs
	if toT {
		rel, ids = p.t, &p.tIDs
	}
	if err = fill(rel, ids); err == nil && (toT || p.prep == nil) {
		p.band, p.prep = "", nil
	}
	return p.s.Len(), p.t.Len(), err
}

// appendRouted appends partition pid's routed rows to p, each side through
// Append, gathered straight from the routed lists into the rows GrowRows
// reserves: Entry.Absorb's fill, and a pooled partition's (ExecutePlan).
func (p *Partition) appendRouted(r *Routed, pid int) {
	for side, rs := range [2]*RoutedSide{&r.S, &r.T} {
		if n := rs.Rows(pid); n > 0 {
			p.Append(side == 1, func(rel *data.Relation, ids *[]int64) error {
				base := rel.GrowRows(n)
				*ids = slices.Grow(*ids, n)[:base+n]
				rs.Gather(pid, 0, n, rel.KeysRange(base, base+n), (*ids)[base:])
				return nil
			})
		}
	}
}

// partitionPool holds the partitions one-shot in-process joins (ExecutePlan)
// handed back, for the next to fill.
var partitionPool sync.Pool

// pooledPartition returns an empty partition of dimensionality dims: one from
// the pool, emptied, keeping its storage, when its dimensionality is dims, else
// a new one.
func pooledPartition(dims int) *Partition {
	if p, ok := partitionPool.Get().(*Partition); ok && p.dims == dims {
		p.s.Truncate(0)
		p.t.Truncate(0)
		p.sIDs, p.tIDs = p.sIDs[:0], p.tIDs[:0]
		return p
	}
	return NewPartition(dims)
}

// Prepare builds the structure for band over the rows in the order they
// arrived, unless the partition has one: a cluster worker's background build
// of a transient partition whose shipment is complete. It reports whether it
// built one.
func (p *Partition) Prepare(band data.Band) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.band != "" {
		return false
	}
	p.prepareLocked(band)
	return true
}

// Refresh brings a retained partition's structure up to date for band before
// a probe and returns the nanoseconds of whichever of two things that took
// (both zero when the structure was current):
//
//   - a rebuild, when the structure is missing (the delta rule dropped it) or
//     was built for another band: the rows are presorted, then prepared, as
//     Seal does, so they keep the dim-0 order that probe locality relies on
//     and that FoldS merges into;
//   - a fold (FoldS), when the structure stands but the rows appended to S
//     since the seal or the last fold have outgrown their share (NeedsFold).
func (p *Partition) Refresh(band data.Band) (rebuildNanos, foldNanos int64) {
	key := bandKey(band)
	p.mu.RLock()
	current := p.band == key && !NeedsFold(p.s, p.prep)
	p.mu.RUnlock()
	if current {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	switch {
	case p.band != key:
		p.sealLocked(band)
		return time.Since(start).Nanoseconds(), 0
	case NeedsFold(p.s, p.prep):
		p.s, p.sIDs, p.prep, _ = FoldS(p.s, p.sIDs, p.prep)
		return 0, time.Since(start).Nanoseconds()
	}
	return 0, 0
}

// Bytes approximates the partitions' resident key and ID bytes, taking each
// one's read lock in turn.
func Bytes(parts []*Partition) int64 {
	var total int64
	for _, p := range parts {
		if p != nil {
			p.mu.RLock()
			total += int64(p.s.Len()+p.t.Len())*int64(p.dims)*8 + int64(len(p.sIDs)+len(p.tIDs))*8
			p.mu.RUnlock()
		}
	}
	return total
}

// LockForProbe sets up one join of the partitions, parts[i] being partition
// pids[i], for band. With refreshed set, each partition is refreshed first
// (Refresh, at most GOMAXPROCS at a time) and refreshed(i, rebuildNanos,
// foldNanos) is called as soon as parts[i]'s refresh returns. Then each
// partition is read-locked and jobs[i], its morsel job (job), built under that
// lock. recs[i] is its record for JoinPartitions, with its partition id, both
// sides' row counts and what the refresh took (RebuildNanos, FoldNanos)
// filled in, and held[i] holds the rows and tuple IDs the job's pairs index.
// Both stay valid until the caller, done with them, calls unlock.
//
// The read locks are taken only here, from one goroutine, in index order, with
// no other partition lock held: concurrent joins of the same partitions each
// hold several while an append's or a refresh's pending write lock blocks new
// readers, and any other order lets two joins wait on each other's
// partitions. A refresh or an append holds one write lock at a time and waits
// for nothing while it does.
func LockForProbe(pids []int, parts []*Partition, band data.Band, refreshed func(i int, rebuildNanos, foldNanos int64)) (jobs []MorselJob, recs []PartitionStats, held []*PartitionInput, unlock func()) {
	recs = make([]PartitionStats, len(parts))
	if refreshed != nil {
		each(parts, 0, func(i int, p *Partition) {
			rec := &recs[i]
			rec.RebuildNanos, rec.FoldNanos = p.Refresh(band)
			refreshed(i, rec.RebuildNanos, rec.FoldNanos)
		})
	}
	jobs, held = make([]MorselJob, len(parts)), make([]*PartitionInput, len(parts))
	for i, p := range parts {
		p.mu.RLock()
		jobs[i] = p.job(band, nil)
		held[i] = &PartitionInput{S: p.s, SIDs: p.sIDs, T: p.t, TIDs: p.tIDs}
		recs[i].Partition, recs[i].InputS, recs[i].InputT = pids[i], p.s.Len(), p.t.Len()
	}
	return jobs, recs, held, func() {
		for _, p := range parts {
			p.mu.RUnlock()
		}
	}
}

// job is the morsel job joining p for band. It reads p's rows and structure
// as they are when job is called, so they must stay so until its last morsel
// (LockForProbe's read lock, or a partition no one else holds). The job
// probes the structure p holds when it is band's; otherwise its Build
// prepares p once (localjoin.PrepareOnce), and its release hands that
// structure back after the job's last morsel, then calls done if it is set.
// Every join's job is built here: LockForProbe's, ExecutePlan's and
// ExecuteShuffledPrepared's.
func (p *Partition) job(band data.Band, done func()) MorselJob {
	s, t := p.s, p.t
	if prep := p.prep; prep != nil && p.band == bandKey(band) {
		return MorselJob{Rows: s.Len(), Run: func(lo, hi int, emit localjoin.Emit) int64 {
			return prep.ProbeRange(s, lo, hi, emit)
		}}
	}
	return MorselJob{Rows: s.Len(), Build: func() (RangeRun, func()) {
		prep := localjoin.PrepareOnce(s, t, band)
		release := func() {
			localjoin.Release(prep)
			if done != nil {
				done()
			}
		}
		if prep == nil {
			// The nested loop (or an empty side): nothing to share.
			return func(lo, hi int, emit localjoin.Emit) int64 {
				return localjoin.NestedLoop{}.JoinRange(s, t, band, lo, hi, emit)
			}, release
		}
		return func(lo, hi int, emit localjoin.Emit) int64 { return prep.ProbeRange(s, lo, hi, emit) }, release
	}}
}

// each runs fn for every non-nil element, at most parallelism at a time (< 1
// selects GOMAXPROCS).
func each[T any](items []*T, parallelism int, fn func(i int, item *T)) {
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, min(parallelism, len(items)))
	for i, item := range items {
		if item == nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i, item)
		}()
	}
	wg.Wait()
}
