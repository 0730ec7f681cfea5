package exec

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

// Partition is one partition's rows held between calls — a retained plan's on
// either plane, a transient job's on a cluster worker — together with the
// local join's structure for them: S, T, their tuple IDs and the ε-grid, under
// one read-write lock. Appends and the structure's upkeep take the write lock;
// a join holds the read lock from the moment it fetches the structure until
// its last morsel (LockForProbe). So S, its IDs and the structure are replaced
// together and read together: the structure's cell lists are positional, and
// one resolved for one S order must never meet another.
//
// A partition owns its storage before anything is appended to it in place:
// NewPartition starts empty and Append copies rows in, and Seal re-sorts what
// PartitionOf adopted into storage of its own.
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

// PartitionOf returns a partition holding a shuffle's output for one
// partition. It adopts in's storage, which may alias a shared arena, so it
// must be sealed before anything is appended to it.
func PartitionOf(in *PartitionInput) *Partition {
	return &Partition{s: in.S, sIDs: in.SIDs, t: in.T, tIDs: in.TIDs, dims: in.S.Dims()}
}

// Dims returns the partition's dimensionality, fixed at creation.
func (p *Partition) Dims() int { return p.dims }

// bandKey names the band a structure is built for.
func bandKey(band data.Band) string { return fmt.Sprintf("%v|%v", band.Low, band.High) }

// Seal presorts both sides by dimension 0 (PartitionInput.Presort) and, when
// band is valid for the partition, prepares its structure: both paid once,
// when a retained partition is complete, off every later query's path.
func (p *Partition) Seal(band data.Band) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sealLocked(band)
}

func (p *Partition) sealLocked(band data.Band) {
	sorted := (&PartitionInput{S: p.s, SIDs: p.sIDs, T: p.t, TIDs: p.tIDs}).Presort()
	p.s, p.sIDs, p.t, p.tIDs = sorted.S, sorted.SIDs, sorted.T, sorted.TIDs
	p.band, p.prep = "", nil
	if band.Validate() == nil && band.Dims() == p.dims {
		p.prepareLocked(band)
	}
}

func (p *Partition) prepareLocked(band data.Band) {
	p.prep, p.band = localjoin.Prepare(p.s, p.t, band), bandKey(band)
}

// SealAll seals every non-nil partition, at most parallelism at a time (< 1
// selects GOMAXPROCS).
func SealAll(parts []*Partition, band data.Band, parallelism int) {
	each(parts, parallelism, func(_ int, p *Partition) { p.Seal(band) })
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

// AppendInput appends a delta shuffle's rows for this partition: Append, for
// each side that has any.
func (p *Partition) AppendInput(in *PartitionInput) {
	for side, rel := range [2]*data.Relation{in.S, in.T} {
		ids := [2][]int64{in.SIDs, in.TIDs}[side]
		if rel.Len() > 0 {
			p.Append(side == 1, func(dst *data.Relation, dstIDs *[]int64) error {
				dst.AppendRows(rel, 0, rel.Len())
				*dstIDs = append(*dstIDs, ids...)
				return nil
			})
		}
	}
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

// LockForProbe sets up one join of the partitions (nil entries are skipped)
// for band. With refreshed set, each partition is refreshed first (Refresh, at
// most parallelism at a time) and refreshed(i, rebuildNanos, foldNanos) is
// called as soon as parts[i]'s refresh returns. Then each partition is
// read-locked and jobs[i], its morsel job, built under that lock: over the
// structure found there if it is band's, else through a Build that prepares
// the partition once. recs[i] is its record for JoinPartitions, with the
// partition index i, both sides' row counts and what the refresh took
// (RebuildNanos, FoldNanos) filled in, and held[i] holds the rows and tuple
// IDs the job's pairs index. Both stay valid until the caller, done with
// them, calls unlock.
//
// The read locks are taken only here, from one goroutine, in index order, with
// no other partition lock held: concurrent joins of the same partitions each
// hold several while an append's or a refresh's pending write lock blocks new
// readers, and any other order lets two joins wait on each other's
// partitions. A refresh or an append holds one write lock at a time and waits
// for nothing while it does.
func LockForProbe(parts []*Partition, band data.Band, refreshed func(i int, rebuildNanos, foldNanos int64), parallelism int) (jobs []MorselJob, recs []PartitionStats, held []*PartitionInput, unlock func()) {
	recs = make([]PartitionStats, len(parts))
	if refreshed != nil {
		each(parts, parallelism, func(i int, p *Partition) {
			rec := &recs[i]
			rec.RebuildNanos, rec.FoldNanos = p.Refresh(band)
			refreshed(i, rec.RebuildNanos, rec.FoldNanos)
		})
	}
	key := bandKey(band)
	jobs, held = make([]MorselJob, len(parts)), make([]*PartitionInput, len(parts))
	for i, p := range parts {
		recs[i].Partition = i
		if p == nil {
			continue
		}
		p.mu.RLock()
		var prep *localjoin.EpsGrid
		if p.band == key {
			prep = p.prep
		}
		jobs[i] = PartitionJob(prep, p.s, p.t, band)
		held[i] = &PartitionInput{S: p.s, SIDs: p.sIDs, T: p.t, TIDs: p.tIDs}
		recs[i].InputS, recs[i].InputT = p.s.Len(), p.t.Len()
	}
	return jobs, recs, held, func() {
		for _, p := range parts {
			if p != nil {
				p.mu.RUnlock()
			}
		}
	}
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
