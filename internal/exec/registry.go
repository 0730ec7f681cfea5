package exec

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"bandjoin/internal/data"
	"bandjoin/internal/partition"
)

// Registry maps plan IDs to retained entries: the one store of retained
// partition sets, the in-process plane's and a cluster worker's. M is what its
// user keeps with each entry (Entry.Meta). The zero value is ready. Its lock
// guards the entry map and the seal order, an entry's short lock the entry's
// partition map; no method holds two at once or takes Entry.Fill.
type Registry[M any] struct {
	mu      sync.Mutex
	entries map[string]*Entry[M]
	sealSeq uint64
}

// Entry is one retained plan: its partitions by id, its place in the seal
// order, and the state the in-process plane catches it up from.
type Entry[M any] struct {
	Meta M // the registry never reads or writes it

	// Fill is the in-process plane's: held for writing while Absorb fills the
	// entry or catches it up, and for reading while Execute probes it, so one
	// routing fills each entry and a catch-up appends only between joins. It
	// guards the prefixes filled from, the routed tuples and partition count.
	Fill               sync.RWMutex
	coveredS, coveredT int
	totalInput         int64
	n                  int

	id  string
	seq atomic.Uint64 // place in the seal order, 0 while unsealed; set under the registry's lock

	mu    sync.Mutex
	parts map[int]*Partition
}

// Get returns id's entry, or nil.
func (r *Registry[M]) Get(id string) *Entry[M] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[id]
}

// Open returns id's entry, creating an empty, unsealed one if there is none.
func (r *Registry[M]) Open(id string) *Entry[M] {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[id]
	if e == nil {
		if r.entries == nil {
			r.entries = make(map[string]*Entry[M])
		}
		e = &Entry[M]{id: id, parts: make(map[int]*Partition)}
		r.entries[id] = e
	}
	return e
}

// Delete drops e if it is still its id's entry (nil is none) and reports
// whether it was.
func (r *Registry[M]) Delete(e *Entry[M]) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e == nil || r.entries[e.id] != e {
		return false
	}
	delete(r.entries, e.id)
	return true
}

// Clear drops every entry and returns how many there were.
func (r *Registry[M]) Clear() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.entries)
	clear(r.entries)
	return n
}

// Len returns the number of entries, sealed or not.
func (r *Registry[M]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Bytes approximates the key and ID bytes the entries' partitions hold
// (exec.Bytes), copying the entries under the registry's lock, then each one's
// partitions under its own: a scrape never waits on a Fill.
func (r *Registry[M]) Bytes() int64 {
	r.mu.Lock()
	entries := slices.Collect(maps.Values(r.entries))
	r.mu.Unlock()
	var parts []*Partition
	for _, e := range entries {
		e.mu.Lock()
		parts = slices.AppendSeq(parts, maps.Values(e.parts))
		e.mu.Unlock()
	}
	return Bytes(parts)
}

// Seal seals e's partitions for band, GOMAXPROCS at a time, unless e was
// sealed before, and puts e last in the seal order. Then, while limit > 0 and
// more than limit entries are held, it deletes the least recently sealed entry
// other than e's id's, and returns how many it deleted. It never deletes an
// unsealed entry: a fill or shipment in progress, whose seal would mark
// truncated data joinable.
func (r *Registry[M]) Seal(e *Entry[M], band data.Band, limit int) (evicted int) {
	if !e.Sealed() {
		_, parts := e.Partitions()
		each(parts, 0, func(_ int, p *Partition) { p.Seal(band) })
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealSeq++
	e.seq.Store(r.sealSeq)
	for limit > 0 && len(r.entries) > limit {
		var oldest *Entry[M]
		for id, o := range r.entries {
			if seq := o.seq.Load(); id != e.id && seq != 0 && (oldest == nil || seq < oldest.seq.Load()) {
				oldest = o
			}
		}
		if oldest == nil {
			break
		}
		delete(r.entries, oldest.id)
		evicted++
	}
	return evicted
}

// Sealed reports whether e has been sealed.
func (e *Entry[M]) Sealed() bool { return e.seq.Load() != 0 }

// Partition returns e's partition pid, creating an empty one of dimensionality
// dims if there is none.
func (e *Entry[M]) Partition(pid, dims int) *Partition {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.parts[pid]
	if p == nil {
		p = NewPartition(dims)
		e.parts[pid] = p
	}
	return p
}

// Partitions returns e's partitions and their ids in ascending id order.
func (e *Entry[M]) Partitions() ([]int, []*Partition) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return InPidOrder(e.parts)
}

// InPidOrder lists a map's partitions and their ids in ascending id order.
func InPidOrder(parts map[int]*Partition) ([]int, []*Partition) {
	pids := slices.Sorted(maps.Keys(parts))
	list := make([]*Partition, len(pids))
	for i, pid := range pids {
		list[i] = parts[pid]
	}
	return pids, list
}

// Covers reports whether e is sealed and filled from at least s and t. The
// caller holds Fill.
func (e *Entry[M]) Covers(s, t *data.Relation) bool {
	return e.Sealed() && e.coveredS >= s.Len() && e.coveredT >= t.Len()
}

// Absorb routes the rows of s and t past e's covered prefixes through plan,
// tuple IDs offset by those prefixes as a routing of the whole relations
// assigns them, and appends them to e's partitions several at a time
// (appendRouted), as a worker's shipment stream would. A cold fill is an Absorb
// from row 0 and a Seal; after a catch-up the next probe refreshes the
// structures. The caller holds Fill for writing. Nothing changes unless the
// routing succeeds, so a failed Absorb is simply retried by the next caller.
func (e *Entry[M]) Absorb(ctx context.Context, plan partition.Plan, s, t *data.Relation) error {
	r, err := Route(ctx, plan, s.Suffix(e.coveredS), t.Suffix(e.coveredT), e.coveredS, e.coveredT, 0)
	if err != nil {
		return err
	}
	routed := make([]*Partition, r.NumPartitions)
	for _, pid := range r.NonEmpty() {
		routed[pid] = e.Partition(pid, s.Dims())
	}
	each(routed, 0, func(pid int, p *Partition) { p.appendRouted(r, pid) })
	e.n = max(e.n, r.NumPartitions)
	e.totalInput += r.TotalInput
	e.coveredS, e.coveredT = s.Len(), t.Len()
	return nil
}

// Execute joins e's partitions for band, as ExecuteShuffledPrepared joins a
// shuffle's: LockForProbe refreshes each and holds it read-locked through the
// joins, and the result reports what the refreshes took (StaleRebuildTime,
// Folds, FoldTime). inputS and inputT are the query's relation sizes, and
// opts.Workers is at least 1. The caller holds Fill for reading.
func (e *Entry[M]) Execute(ctx context.Context, plan partition.Plan, inputS, inputT int, band data.Band, opts Options) (*Result, error) {
	pids, parts := e.Partitions()
	jobs, recs, held, unlock := LockForProbe(pids, parts, band, func(int, int64, int64) {})
	defer unlock()
	return reduce(ctx, plan, e.n, recs, jobs, func(i int) ([]int64, []int64) { return held[i].SIDs, held[i].TIDs },
		e.totalInput, inputS, inputT, opts)
}
