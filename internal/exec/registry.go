package exec

import (
	"context"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/partition"
)

// Registry maps plan IDs to retained entries: the one store of retained
// plans: the in-process plane's and a cluster worker's partition sets, and a
// cluster coordinator's shipments. M is what its user keeps with each entry
// (Entry.Meta). The zero value is ready. Its lock guards the entry map and the
// seal order, an entry's short lock the entry's partition map; no Registry
// method holds two at once or takes Entry.Fill.
type Registry[M any] struct {
	mu      sync.Mutex
	entries map[string]*Entry[M]
	sealSeq uint64
}

// Entry is one retained plan: its partitions by id (none on a coordinator,
// whose workers hold them), its place in the seal order, and the covered
// prefixes and routed total it is caught up from.
type Entry[M any] struct {
	Meta M // the registry never reads or writes it

	// Fill is held for writing while a cold fill or shipment and Absorb fill
	// the entry or catch it up, so one routing fills each entry, and for
	// reading while its state is read or, in process, Execute probes it, so a
	// catch-up appends only between joins. It guards the prefixes filled
	// from, the routed tuples and the partition count, and a coordinator's
	// Meta.
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

// covers reports whether e is filled from at least s and t. The caller holds
// Fill.
func (e *Entry[M]) covers(s, t *data.Relation) bool {
	return e.coveredS >= s.Len() && e.coveredT >= t.Len()
}

// Absorb routes the rows of s and t past e's covered prefixes through plan,
// tuple IDs offset by those prefixes as a routing of the whole relations
// assigns them, and hands the routing to deliver: a cluster coordinator's
// shipment, or, when deliver is nil, the in-process plane's fill, which appends
// the rows to e's own partitions several at a time (appendRouted), as a
// worker's shipment stream would. A cold fill is an Absorb from row 0 and a
// Seal; after a catch-up the next probe refreshes the structures. The caller
// holds Fill for writing. The prefixes, the routed total and the partition
// count advance only when the routing and its delivery succeed, so a failed
// Absorb is simply retried by the next caller.
func (e *Entry[M]) Absorb(ctx context.Context, plan partition.Plan, s, t *data.Relation, deliver func(*Routed) error) error {
	r, err := Route(ctx, plan, s.Suffix(e.coveredS), t.Suffix(e.coveredT), e.coveredS, e.coveredT, 0)
	if err != nil {
		return err
	}
	if deliver == nil {
		routed := make([]*Partition, r.NumPartitions)
		for _, pid := range r.NonEmpty() {
			routed[pid] = e.Partition(pid, s.Dims())
		}
		each(routed, 0, func(pid int, p *Partition) { p.appendRouted(r, pid) })
	} else if err := deliver(r); err != nil {
		return err
	}
	e.n = max(e.n, r.NumPartitions)
	e.totalInput += r.TotalInput
	e.coveredS, e.coveredT = s.Len(), t.Len()
	return nil
}

// CatchUp is the one catch-up rule of a retained entry, on both planes, before
// a join and after an append: when e is sealed but short of s or t, it
// absorbs the rows past its covered prefixes (Absorb, deliver as there) under
// Fill's write lock; otherwise it does nothing. An unsealed entry is a cold
// fill in progress (or failed) whose filler covers a snapshot of its own.
// Freshness is checked under the read lock first, so in the common fresh case
// concurrent callers take no write lock, and again under the write lock, so
// one absorb runs per appended suffix. It returns the input e has routed, and
// the time the absorb took, zero when none ran.
func (e *Entry[M]) CatchUp(ctx context.Context, plan partition.Plan, s, t *data.Relation, deliver func(*Routed) error) (totalInput int64, absorbed time.Duration, err error) {
	e.Fill.RLock()
	fresh, totalInput := !e.Sealed() || e.covers(s, t), e.totalInput
	e.Fill.RUnlock()
	if fresh {
		return totalInput, 0, nil
	}
	e.Fill.Lock()
	defer e.Fill.Unlock()
	if e.Sealed() && !e.covers(s, t) {
		start := time.Now()
		if err := e.Absorb(ctx, plan, s, t, deliver); err != nil {
			return 0, 0, err
		}
		absorbed = time.Since(start)
	}
	return e.totalInput, absorbed, nil
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
