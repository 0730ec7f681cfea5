package bandjoin

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bandjoin/internal/cluster"
	"bandjoin/internal/core"
	"bandjoin/internal/exec"
	"bandjoin/internal/obs"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

// Engine serves many band-join queries over long-lived registered datasets,
// amortizing the paper's per-query pipeline (sample → optimize → shuffle →
// local join) across executions. Three cache layers sit between a query and
// the work it would cost one-shot:
//
//  1. Input samples. Drawing the optimizer's input sample is the only part of
//     the optimization phase that scans the full inputs; the engine draws it
//     once per (dataset pair, sampling configuration) and derives the
//     band-dependent output sample per distinct band, so replanning the same
//     pair for a new ε never rescans the inputs.
//  2. Plans. The optimization phase's product — the partitioning plan — is
//     cached under (dataset pair, band, partitioner configuration, workers,
//     cost model, sampling configuration, seed); a repeated query skips
//     optimization entirely.
//  3. Shuffled partitions. Unless retention is disabled, the shuffle's output
//     is retained under the plan's fingerprint — in memory for the in-process
//     plane, in the workers' retained-plan registry for the RPC plane — so a
//     repeated query moves zero shuffle bytes and goes straight to the local
//     joins.
//
// Caches are invalidated only by Unregister and by re-Register of the same
// name (which bumps the dataset's version so entries derived from the replaced
// relation can never serve the new one). Growing a dataset is NOT an
// invalidation: Append extends the relation in place (as an immutable-snapshot
// swap) and propagates the delta through every layer — cached input samples
// are kept statistically fresh by weighted reservoir merging, and retained
// partitions absorb just the appended suffix through the existing plan's
// routing, so neither planning nor a warm query ever rescans or reshuffles the
// base relation. Every cache entry records how many base rows it covers;
// whoever observes an entry behind its relation catches it up idempotently
// over the uncovered suffix, which makes appends race-safe against concurrent
// draws, fills, and queries. Engine is safe for concurrent use; concurrent
// identical queries share one sampling, one optimization, and one shuffle.
type Engine struct {
	id        string
	plane     enginePlane
	retention bool

	mu       sync.Mutex // guards datasets, samples, plans, closed
	datasets map[string]*engineDataset
	samples  map[sampleKey]*sampleEntry
	plans    map[planKey]*planEntry
	closed   bool

	m *engineMetrics
}

// engineMetrics is the engine's observability surface: per-tier cache
// hit/miss counters, latency histograms, data-plane totals, and scrape-time
// occupancy gauges, all in the engine's own registry (see Engine.Metrics).
type engineMetrics struct {
	reg *obs.Registry

	queries     *obs.Counter
	queryErrors *obs.Counter

	sampleHits, sampleMisses     *obs.Counter
	planHits, planMisses         *obs.Counter
	retainedHits, retainedMisses *obs.Counter

	shuffleBytes *obs.Counter
	shuffleRPCs  *obs.Counter

	appends      *obs.Counter
	appendTuples *obs.Counter
	appendBytes  *obs.Counter

	querySeconds *obs.Histogram
	planSeconds  *obs.Histogram
}

func newEngineMetrics(e *Engine) *engineMetrics {
	reg := obs.NewRegistry()
	hits := "Engine cache hits by tier (sample, plan, retained)."
	misses := "Engine cache misses by tier (sample, plan, retained)."
	m := &engineMetrics{
		reg:            reg,
		queries:        reg.Counter("bandjoin_engine_queries_total", "Join calls served by the engine."),
		queryErrors:    reg.Counter("bandjoin_engine_query_errors_total", "Join calls that returned an error."),
		sampleHits:     reg.Counter("bandjoin_engine_cache_hits_total", hits, "tier", "sample"),
		sampleMisses:   reg.Counter("bandjoin_engine_cache_misses_total", misses, "tier", "sample"),
		planHits:       reg.Counter("bandjoin_engine_cache_hits_total", hits, "tier", "plan"),
		planMisses:     reg.Counter("bandjoin_engine_cache_misses_total", misses, "tier", "plan"),
		retainedHits:   reg.Counter("bandjoin_engine_cache_hits_total", hits, "tier", "retained"),
		retainedMisses: reg.Counter("bandjoin_engine_cache_misses_total", misses, "tier", "retained"),
		shuffleBytes:   reg.Counter("bandjoin_engine_shuffle_bytes_total", "Wire bytes moved by engine queries (cluster plane)."),
		shuffleRPCs:    reg.Counter("bandjoin_engine_shuffle_rpcs_total", "Chunk frames shipped by engine queries (cluster plane)."),
		appends:        reg.Counter("bandjoin_engine_appends_total", "Append calls absorbed without cache invalidation."),
		appendTuples:   reg.Counter("bandjoin_engine_appended_tuples_total", "Tuples added via Append."),
		appendBytes:    reg.Counter("bandjoin_engine_appended_bytes_total", "Key bytes added via Append."),
		querySeconds:   reg.Histogram("bandjoin_engine_query_seconds", "End-to-end Join latency.", obs.LatencyBuckets()),
		planSeconds:    reg.Histogram("bandjoin_engine_plan_seconds", "Per-query planning-stage latency (≈0 on plan-cache hits).", obs.LatencyBuckets()),
	}
	entries := "Engine cache occupancy by tier (entries)."
	reg.GaugeFunc("bandjoin_engine_cache_entries", entries, func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(len(e.datasets))
	}, "tier", "dataset")
	reg.GaugeFunc("bandjoin_engine_cache_entries", entries, func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(len(e.samples))
	}, "tier", "sample")
	reg.GaugeFunc("bandjoin_engine_cache_entries", entries, func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(len(e.plans))
	}, "tier", "plan")
	reg.GaugeFunc("bandjoin_engine_cache_entries", entries, func() float64 {
		return float64(e.plane.retainedPlans())
	}, "tier", "retained")
	bytesHelp := "Engine cache occupancy by tier (approximate key/ID bytes)."
	reg.GaugeFunc("bandjoin_engine_cache_bytes", bytesHelp, func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		var total int64
		for _, se := range e.samples {
			se.mu.RLock()
			in := se.in
			se.mu.RUnlock()
			if in != nil {
				total += in.Bytes()
			}
		}
		return float64(total)
	}, "tier", "sample")
	reg.GaugeFunc("bandjoin_engine_cache_bytes", bytesHelp, func() float64 {
		return float64(e.plane.retainedBytes())
	}, "tier", "retained")
	return m
}

// Metrics returns the engine's metrics registry, servable via obs.Handler /
// obs.Serve alongside other components' registries.
func (e *Engine) Metrics() *obs.Registry { return e.m.reg }

// EngineOptions configures an Engine.
type EngineOptions struct {
	// DisableRetention turns off the third cache layer (shuffled partitions):
	// samples and plans are still cached, but every query reshuffles. Use it
	// when inputs are large relative to memory, or for throwaway engines.
	DisableRetention bool
}

// engineSeq disambiguates engine instances: plan fingerprints are prefixed
// with the engine id so two engines sharing one long-lived worker fleet can
// never serve each other's retained partitions (their equally-named datasets
// may hold different data).
var engineSeq atomic.Int64

// NewEngine returns an engine executing on the in-process cluster simulator.
func NewEngine(opts EngineOptions) *Engine {
	return newEngine(&inProcessPlane{}, opts)
}

// NewEngine returns an engine executing across the cluster's RPC workers:
// retained partitions live on the workers, and a warm query's shuffle moves
// zero bytes over the wire. The engine does not own the cluster connection;
// close the Cluster separately.
func (c *Cluster) NewEngine(opts EngineOptions) *Engine {
	return newEngine(&clusterPlane{coord: c.coord}, opts)
}

func newEngine(p enginePlane, opts EngineOptions) *Engine {
	e := &Engine{
		id:        fmt.Sprintf("eng%d-%d", engineSeq.Add(1), time.Now().UnixNano()),
		plane:     p,
		retention: !opts.DisableRetention,
		datasets:  make(map[string]*engineDataset),
		samples:   make(map[sampleKey]*sampleEntry),
		plans:     make(map[planKey]*planEntry),
	}
	e.m = newEngineMetrics(e)
	return e
}

type engineDataset struct {
	rel     *Relation
	version uint64
}

// sampleKey identifies one cached input sample: the dataset pair (by name and
// version) plus everything DrawInputs consults.
type sampleKey struct {
	s, t       string
	sVer, tVer uint64
	sampling   sample.Options
}

type sampleEntry struct {
	once sync.Once
	err  error
	// drawn flips once the initial draw succeeded; Append skips entries still
	// drawing (the drawing query catches itself up right after its once).
	drawn atomic.Bool

	// mu guards the merged-sample snapshot. in is immutable once published;
	// catchUp replaces it wholesale with a reservoir-merged successor.
	// coveredS/coveredT are the base-relation prefix lengths the current
	// snapshot represents a uniform sample of; they only grow.
	mu       sync.RWMutex
	in       *sample.InputSample
	coveredS int
	coveredT int
}

// catchUp folds rows appended past the entry's covered prefixes into the
// cached sample by weighted reservoir merging (sample.InputSample.Merge) and
// returns the sample current for the given snapshots. The common fresh case is
// a read-lock check; merging runs under the write lock and advances the
// covered lengths, so concurrent callers merge each suffix exactly once and a
// caller whose snapshot is already covered gets the cached sample unchanged.
func (se *sampleEntry) catchUp(s, t *Relation) (*sample.InputSample, error) {
	se.mu.RLock()
	in, cs, ct := se.in, se.coveredS, se.coveredT
	se.mu.RUnlock()
	if cs >= s.Len() && ct >= t.Len() {
		return in, nil
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.coveredS >= s.Len() && se.coveredT >= t.Len() {
		return se.in, nil
	}
	var deltaS, deltaT *Relation
	if se.coveredS < s.Len() {
		deltaS = s.Suffix(se.coveredS)
	}
	if se.coveredT < t.Len() {
		deltaT = t.Suffix(se.coveredT)
	}
	merged, err := se.in.Merge(deltaS, deltaT)
	if err != nil {
		return nil, err
	}
	se.in = merged
	se.coveredS, se.coveredT = s.Len(), t.Len()
	return merged, nil
}

// planKey identifies one cached plan: the dataset pair plus everything the
// optimization phase consults — band, partitioner configuration, worker
// count, cost model, sampling configuration, and seed.
type planKey struct {
	s, t       string
	sVer, tVer uint64
	band       string
	pt         string
	workers    int
	model      CostModel
	sampling   sample.Options
	seed       int64
}

type planEntry struct {
	once sync.Once
	prep *exec.Prepared
	err  error
	// ready flips once planning succeeded; Append reads prep only then.
	ready atomic.Bool

	// planID is the retention fingerprint, computed deterministically from
	// the plan key when the entry is created (under e.mu, so the invalidation
	// paths can read it there without racing the once). Empty when retention
	// is disabled: nothing is ever resident, so nothing needs evicting.
	planID string
}

// Register adds (or replaces) a named dataset. Re-registering a name bumps
// its version: cached samples, plans, and retained partitions derived from
// the old relation are invalidated and the memory they pin is released.
// Contrast Append, which grows a registered dataset without a version bump:
// derived entries stay live and absorb the delta instead of being rebuilt.
// A cached plan never changes otherwise, so re-registering is how a caller
// asks for fresh plans after the data's distribution shifted.
func (e *Engine) Register(name string, rel *Relation) error {
	if name == "" {
		return fmt.Errorf("bandjoin: dataset name must be non-empty")
	}
	if rel == nil {
		return fmt.Errorf("bandjoin: nil input relation")
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("bandjoin: engine is closed")
	}
	version := uint64(1)
	var evict []string
	if old, ok := e.datasets[name]; ok {
		version = old.version + 1
		evict = e.dropDerivedLocked(name)
	}
	e.datasets[name] = &engineDataset{rel: rel, version: version}
	e.mu.Unlock()
	e.evictAll(evict)
	return nil
}

// Unregister removes a dataset and invalidates every cached sample, plan, and
// retained partition set derived from it. Unregistering an unknown name is an
// error.
func (e *Engine) Unregister(name string) error {
	e.mu.Lock()
	if _, ok := e.datasets[name]; !ok {
		e.mu.Unlock()
		return fmt.Errorf("bandjoin: unknown dataset %q", name)
	}
	evict := e.dropDerivedLocked(name)
	delete(e.datasets, name)
	e.mu.Unlock()
	e.evictAll(evict)
	return nil
}

// dropDerivedLocked removes cache entries touching the named dataset and
// returns the retained-plan fingerprints to evict from the execution plane.
// Callers hold e.mu; the eviction itself (per-worker RPCs on the cluster
// plane) must happen after releasing it so concurrent queries are not stalled
// behind network round trips.
func (e *Engine) dropDerivedLocked(name string) []string {
	var evict []string
	for k := range e.samples {
		if k.s == name || k.t == name {
			delete(e.samples, k)
		}
	}
	for k, pe := range e.plans {
		if k.s == name || k.t == name {
			if pe.planID != "" {
				evict = append(evict, pe.planID)
			}
			delete(e.plans, k)
		}
	}
	return evict
}

// evictAll drops the given retained-plan fingerprints from the execution
// plane. Call without holding e.mu.
func (e *Engine) evictAll(planIDs []string) {
	for _, id := range planIDs {
		e.plane.evict(id)
	}
}

// Append adds rows to the registered dataset name without invalidating any
// cache layer. The dataset's version is unchanged — cache keys stay stable —
// and the delta is propagated instead: the relation is extended by an
// immutable-snapshot swap (in-flight queries keep their snapshot), cached
// input samples covering the dataset are merged up by weighted reservoir
// continuation, and every live plan's retained partitions absorb just the
// appended rows through the plan's existing routing (in memory on the
// in-process plane, via delta streams into the sealed plans on the cluster
// plane). Appended partitions are re-sorted and their prepared join structures
// rebuilt lazily on the next probe, not here. If a delta cannot be absorbed
// (e.g. a worker died mid-delta), that plan's retained partitions are evicted
// so the next query reships cold from the full extended relation — slower,
// never wrong. Appending zero rows is a no-op.
func (e *Engine) Append(ctx context.Context, name string, rows *Relation) error {
	if name == "" {
		return fmt.Errorf("bandjoin: dataset name must be non-empty")
	}
	if rows == nil || rows.Len() == 0 {
		return nil
	}

	type sampleWork struct {
		se   *sampleEntry
		s, t *Relation
	}
	type planWork struct {
		pe   *planEntry
		s, t *Relation
	}
	var sampleWorks []sampleWork
	var planWorks []planWork

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("bandjoin: engine is closed")
	}
	ds, ok := e.datasets[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("bandjoin: unknown dataset %q", name)
	}
	if ds.rel.Dims() != rows.Dims() {
		e.mu.Unlock()
		return fmt.Errorf("bandjoin: dataset %q has %d join attributes but appended rows have %d",
			name, ds.rel.Dims(), rows.Dims())
	}
	// e.mu serializes Extends of one dataset lineage (Relation.Extend's
	// contract); readers keep their snapshots, new queries adopt this one.
	ds.rel = ds.rel.Extend(rows)
	// Snapshot the derived entries touching this dataset together with both
	// sides' current relations, so the catch-ups below run off e.mu.
	for k, se := range e.samples {
		if k.s != name && k.t != name {
			continue
		}
		sd, okS := e.datasets[k.s]
		td, okT := e.datasets[k.t]
		if !okS || !okT || sd.version != k.sVer || td.version != k.tVer {
			continue
		}
		sampleWorks = append(sampleWorks, sampleWork{se: se, s: sd.rel, t: td.rel})
	}
	for k, pe := range e.plans {
		if k.s != name && k.t != name {
			continue
		}
		sd, okS := e.datasets[k.s]
		td, okT := e.datasets[k.t]
		if !okS || !okT || sd.version != k.sVer || td.version != k.tVer {
			continue
		}
		planWorks = append(planWorks, planWork{pe: pe, s: sd.rel, t: td.rel})
	}
	e.mu.Unlock()

	e.m.appends.Inc()
	e.m.appendTuples.Add(int64(rows.Len()))
	e.m.appendBytes.Add(int64(rows.Len()) * int64(rows.Dims()) * 8)

	// Keep cached samples statistically fresh so later planning never rescans
	// the base relation. Entries still mid-draw are skipped: the drawing query
	// catches itself up right after its once completes.
	for _, w := range sampleWorks {
		if !w.se.drawn.Load() {
			continue
		}
		if _, err := w.se.catchUp(w.s, w.t); err != nil {
			return err
		}
	}
	// Shuffle the delta into each live plan's retained partitions eagerly, so
	// the next warm query finds them fresh and moves nothing.
	for _, w := range planWorks {
		if !w.pe.ready.Load() || w.pe.planID == "" {
			continue
		}
		if err := e.plane.absorb(ctx, w.pe.prep, w.s, w.t, w.pe.planID); err != nil {
			e.plane.evict(w.pe.planID)
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
	}
	return ctx.Err()
}

// Datasets returns the registered dataset names.
func (e *Engine) Datasets() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.datasets))
	for name := range e.datasets {
		names = append(names, name)
	}
	return names
}

// EngineStats reports cache occupancy and hit counts.
type EngineStats struct {
	// Datasets, CachedSamples, and CachedPlans are current cache occupancy.
	Datasets      int
	CachedSamples int
	CachedPlans   int
	// Queries counts Join calls; SampleHits, PlanHits, and RetainedHits count
	// how many of them were served from the respective cache tier.
	Queries      int64
	SampleHits   int64
	PlanHits     int64
	RetainedHits int64
	// Appends counts Append calls absorbed without invalidation.
	Appends int64
}

// Stats returns a snapshot of the engine's cache counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		Datasets:      len(e.datasets),
		CachedSamples: len(e.samples),
		CachedPlans:   len(e.plans),
		Queries:       e.m.queries.Value(),
		SampleHits:    e.m.sampleHits.Value(),
		PlanHits:      e.m.planHits.Value(),
		RetainedHits:  e.m.retainedHits.Value(),
		Appends:       e.m.appends.Value(),
	}
}

// Close releases the engine's caches and evicts its retained partitions from
// the execution plane. The engine rejects queries afterwards.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	var evict []string
	for _, pe := range e.plans {
		if pe.planID != "" {
			evict = append(evict, pe.planID)
		}
	}
	e.datasets, e.samples, e.plans = nil, nil, nil
	e.mu.Unlock()
	e.evictAll(evict)
}

// Join runs the band-join of the registered datasets sName and tName. The
// ctx bounds the whole query: it is checked between pipeline stages and
// inside execution — between shuffle passes, between partition joins, and (on
// the cluster plane) on every RPC — so cancellation aborts a running query
// promptly with ctx.Err(). Repeated queries are served from the caches: same
// pair and sampling → no input scan; same full query shape → no optimization;
// retention on → no shuffle.
//
// Every successful query carries a structured trace (Result.Trace): timed
// spans for the sample/plan/shuffle/join/merge stages, the cache-tier
// outcomes, bytes moved, and any fault events the coordinator recorded.
func (e *Engine) Join(ctx context.Context, sName, tName string, band Band, opts Options) (res *Result, err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			e.m.queryErrors.Inc()
		}
	}()
	r, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	if w := e.plane.workers(); w > 0 {
		r.Workers = w
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("bandjoin: engine is closed")
	}
	ds, okS := e.datasets[sName]
	dt, okT := e.datasets[tName]
	// Snapshot both relation heads while e.mu is held: Append swaps new heads
	// in under the same lock, so the pair is consistent and everything below
	// serves this query from one immutable snapshot.
	var sRel, tRel *Relation
	if okS {
		sRel = ds.rel
	}
	if okT {
		tRel = dt.rel
	}
	e.mu.Unlock()
	if !okS {
		return nil, fmt.Errorf("bandjoin: unknown dataset %q", sName)
	}
	if !okT {
		return nil, fmt.Errorf("bandjoin: unknown dataset %q", tName)
	}
	if err := band.Validate(); err != nil {
		return nil, err
	}
	if sRel.Dims() != band.Dims() || tRel.Dims() != band.Dims() {
		return nil, fmt.Errorf("bandjoin: band condition has %d dimensions but inputs have %d and %d",
			band.Dims(), sRel.Dims(), tRel.Dims())
	}
	e.m.queries.Inc()
	tr := &exec.QueryTrace{
		S: sName, T: tName,
		Band:         fmt.Sprintf("%v|%v", band.Low, band.High),
		StartedAt:    start,
		RetainedTier: exec.TierOff,
	}

	// Stage 1: input sample (cached per dataset pair and sampling config).
	sampleStart := time.Now()
	se, hit := e.sampleFor(sampleKey{s: sName, t: tName, sVer: ds.version, tVer: dt.version, sampling: r.Sampling})
	tr.SampleTier = exec.TierMiss
	if hit {
		e.m.sampleHits.Inc()
		tr.SampleTier = exec.TierHit
	} else {
		e.m.sampleMisses.Inc()
	}
	se.once.Do(func() {
		in, err := sample.DrawInputs(sRel, tRel, r.Sampling)
		se.err = err
		if err == nil {
			se.mu.Lock()
			se.in = in
			se.coveredS, se.coveredT = sRel.Len(), tRel.Len()
			se.mu.Unlock()
			se.drawn.Store(true)
		}
	})
	if se.err != nil {
		return nil, fmt.Errorf("bandjoin: sampling: %w", se.err)
	}
	// The entry may have been drawn from (or merged up to) older snapshots
	// than this query's; fold any uncovered appended suffix in before planning
	// consumes the sample.
	in, err := se.catchUp(sRel, tRel)
	if err != nil {
		return nil, fmt.Errorf("bandjoin: sampling: %w", err)
	}
	tr.AddSpan("sample", sampleStart, time.Now(), tr.SampleTier)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: plan (cached per full query shape). The reported optimization
	// time is this query's actual planning cost — the wall time spent in this
	// stage — not the cached plan's original cost: a plan-cache hit reports
	// (approximately) zero, a miss reports the sample derivation plus the
	// partitioner's optimization, and a query that arrives while an identical
	// one is planning reports its wait.
	planStart := time.Now()
	pk := planKey{
		s: sName, t: tName, sVer: ds.version, tVer: dt.version,
		band:     fmt.Sprintf("%v|%v", band.Low, band.High),
		pt:       partitionerFingerprint(r.Partitioner),
		workers:  r.Workers,
		model:    r.Model,
		sampling: r.Sampling,
		seed:     r.Seed,
	}
	pe, hit := e.planFor(pk)
	tr.PlanTier = exec.TierMiss
	if hit {
		e.m.planHits.Inc()
		tr.PlanTier = exec.TierHit
	} else {
		e.m.planMisses.Inc()
	}
	pe.once.Do(func() {
		smp, err := in.ForBand(band)
		if err != nil {
			pe.err = err
			return
		}
		pe.prep, pe.err = exec.PlanQuery(r.Partitioner, smp, band, r.execOptions())
		if pe.err == nil {
			pe.ready.Store(true)
		}
	})
	if pe.err != nil {
		return nil, pe.err
	}
	planTime := time.Since(planStart)
	e.m.planSeconds.ObserveDuration(planTime)
	tr.AddSpan("plan", planStart, time.Now(), planDetail(tr.PlanTier, hit, pe.prep.Plan))
	tr.Partitioner = pe.prep.Partitioner
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 3: execute (or estimate, which never touches the full inputs).
	if r.EstimateOnly {
		res := exec.EstimatePlan(pe.prep.Plan, pe.prep.Ctx)
		res.Partitioner = pe.prep.Partitioner
		res.OptimizationTime = planTime
		e.finishTrace(tr, res, start, time.Now())
		return res, nil
	}
	execStart := time.Now()
	res, err = e.plane.execute(ctx, pe.prep, sRel, tRel, band, r, pe.planID)
	if err != nil {
		return nil, err
	}
	res.Partitioner = pe.prep.Partitioner
	res.OptimizationTime = planTime

	if pe.planID != "" {
		if res.WarmPartitions {
			e.m.retainedHits.Inc()
			tr.RetainedTier = exec.TierHit
		} else {
			e.m.retainedMisses.Inc()
			tr.RetainedTier = exec.TierMiss
		}
	}
	e.m.shuffleBytes.Add(res.ShuffleBytes)
	e.m.shuffleRPCs.Add(res.ShuffleRPCs)

	// The execution stages are reconstructed from the result's measured
	// durations: delta absorption (when appended rows were folded in), shuffle
	// (when anything moved), then the parallel joins, then whatever remains of
	// the wall time as merge/aggregation.
	end := time.Now()
	absorbEnd := execStart
	if res.DeltaAbsorbTime > 0 || res.StaleRebuildTime > 0 {
		absorbEnd = execStart.Add(res.DeltaAbsorbTime)
		tr.AddSpan("delta_absorb", execStart, absorbEnd,
			fmt.Sprintf("absorb=%s stale_rebuild=%s", res.DeltaAbsorbTime, res.StaleRebuildTime))
	}
	shuffleEnd := absorbEnd.Add(res.ShuffleTime)
	if res.ShuffleTime > 0 {
		tr.AddSpan("shuffle", absorbEnd, shuffleEnd, fmt.Sprintf("bytes=%d raw_bytes=%d rpcs=%d encode_busy_us=%d decode_busy_us=%d",
			res.ShuffleBytes, res.ShuffleRawBytes, res.ShuffleRPCs,
			res.ShuffleEncodeBusy.Microseconds(), res.ShuffleDecodeBusy.Microseconds()))
	}
	joinEnd := shuffleEnd.Add(res.JoinWallTime)
	tr.AddSpan("join", shuffleEnd, joinEnd, fmt.Sprintf("partitions=%d tier=%s folds=%d fold_us=%d",
		res.Partitions, tr.RetainedTier, res.Folds, res.FoldTime.Microseconds()))
	if end.After(joinEnd) {
		tr.AddSpan("merge", joinEnd, end, "")
	}
	tr.AddEvents(res.FaultEvents)
	e.finishTrace(tr, res, start, end)
	e.m.querySeconds.ObserveDuration(end.Sub(start))
	return res, nil
}

// planDetail is the plan span's detail: the cache tier, and on a miss the
// optimizer's exact work counts and chosen iteration when the partitioner
// reports them.
func planDetail(tier string, hit bool, plan partition.Plan) string {
	cp, ok := plan.(*core.Plan)
	if hit || !ok {
		return tier
	}
	return fmt.Sprintf("%s candidates=%d scored=%d advances=%d iterations=%d chosen=%d",
		tier, cp.Work.Candidates, cp.Work.Scored, cp.Work.Advances, cp.Work.Iterations, cp.Chosen)
}

// finishTrace copies the result's accounting into the trace and attaches it.
func (e *Engine) finishTrace(tr *exec.QueryTrace, res *Result, start, end time.Time) {
	tr.WallMicros = end.Sub(start).Microseconds()
	tr.ShuffleBytes = res.ShuffleBytes
	tr.ShuffleRPCs = res.ShuffleRPCs
	tr.Output = res.Output
	tr.Retries = res.Retries
	tr.LostWorkers = res.LostWorkers
	tr.FailoverRounds = res.FailoverRounds
	tr.Degraded = res.Degraded
	res.Trace = tr
}

// partitionerFingerprint identifies a partitioner configuration for the plan
// cache: its type and full configuration dump.
func partitionerFingerprint(p Partitioner) string {
	return fmt.Sprintf("%T%+v", p, p)
}

// sampleFor returns the sample-cache entry for the key, reporting whether it
// already existed.
func (e *Engine) sampleFor(k sampleKey) (*sampleEntry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if se, ok := e.samples[k]; ok {
		return se, true
	}
	se := &sampleEntry{}
	e.samples[k] = se
	return se, false
}

// planIDFor computes a plan key's retention fingerprint.
func (e *Engine) planIDFor(k planKey) string {
	return fmt.Sprintf("%s|%s@%d|%s@%d|b=%s|p=%s|w=%d|m=%+v|smp=%+v|seed=%d",
		e.id, k.s, k.sVer, k.t, k.tVer, k.band, k.pt, k.workers, k.model, k.sampling, k.seed)
}

// planFor returns the plan-cache entry for the key, reporting whether it
// already existed.
func (e *Engine) planFor(k planKey) (*planEntry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if pe, ok := e.plans[k]; ok {
		return pe, true
	}
	pe := &planEntry{}
	if e.retention {
		pe.planID = e.planIDFor(k)
	}
	e.plans[k] = pe
	return pe, false
}

// enginePlane is the execution backend: the in-process simulator or the RPC
// cluster. Both serve through the same Engine interface.
type enginePlane interface {
	// workers reports the plane's fixed worker count, or 0 if the resolved
	// option decides.
	workers() int
	// execute runs (shuffle +) local joins for a prepared plan, honoring ctx.
	// A non-empty planID enables partition retention under that fingerprint.
	execute(ctx context.Context, prep *exec.Prepared, s, t *Relation, band Band, r resolved, planID string) (*Result, error)
	// absorb eagerly catches a retained partition set up to rows appended to
	// s and t past its covered prefixes, shuffling only the delta through the
	// plan's routing. A plan with nothing retained is a no-op. On error the
	// retained data may be torn; the caller must evict the fingerprint.
	absorb(ctx context.Context, prep *exec.Prepared, s, t *Relation, planID string) error
	// evict drops one retained partition set.
	evict(planID string)
	// retainedPlans and retainedBytes report the plane's retained-partition
	// occupancy: resident plan count and (for planes that hold the data
	// locally) approximate resident bytes. Scrape-time only.
	retainedPlans() int
	retainedBytes() int64
}

// inProcessPlane executes on the in-process cluster simulator and retains
// shuffled partitions in memory, one registry entry per fingerprint, filled
// under the entry's Fill lock as a coordinator ships under its own entry's.
type inProcessPlane struct {
	reg exec.Registry[struct{}]
}

func (p *inProcessPlane) workers() int { return 0 }

func (p *inProcessPlane) execute(ctx context.Context, prep *exec.Prepared, s, t *Relation, band Band, r resolved, planID string) (*Result, error) {
	execOpts := r.execOptions()
	if planID == "" {
		return exec.ExecutePlan(ctx, prep.Plan, s, t, band, execOpts)
	}

	e := p.reg.Open(planID)
	var shuffleTime time.Duration
	warm := e.Sealed()
	if !warm {
		// The cold fill: everything absorbed, then every partition sealed
		// (presorted, its local join's structure prebuilt), under the write
		// lock, so concurrent first queries wait for one fill. A failed one
		// leaves no entry: nothing is resident.
		e.Fill.Lock()
		var err error
		if warm = e.Sealed(); !warm {
			start := time.Now()
			if err = e.Absorb(ctx, prep.Plan, s, t, nil); err == nil {
				p.reg.Seal(e, band, 0)
			} else {
				p.reg.Delete(e)
			}
			shuffleTime = time.Since(start)
		}
		e.Fill.Unlock()
		if err != nil {
			return nil, err
		}
	}
	// The fill (possibly by a concurrent query holding an older snapshot) may
	// cover a prefix of this query's relations: absorb the appended suffix
	// through the plan's routing before joining. Covered prefixes only grow,
	// so the entry still covers s and t when the join takes the read lock.
	_, absorbTime, err := e.CatchUp(ctx, prep.Plan, s, t, nil)
	if err != nil {
		return nil, err
	}
	e.Fill.RLock()
	res, err := e.Execute(ctx, prep.Plan, s.Len(), t.Len(), band, execOpts)
	e.Fill.RUnlock()
	if err != nil {
		return nil, err
	}
	res.ShuffleTime, res.DeltaAbsorbTime, res.WarmPartitions = shuffleTime, absorbTime, warm
	return res, nil
}

// absorb eagerly appends rows past the retained entry's covered prefixes to
// the in-memory partitions (Entry.CatchUp). A plan with nothing retained
// (never filled, or evicted) is a no-op: the next query fills cold from the
// full relations.
func (p *inProcessPlane) absorb(ctx context.Context, prep *exec.Prepared, s, t *Relation, planID string) error {
	e := p.reg.Get(planID)
	if e == nil {
		return nil
	}
	_, _, err := e.CatchUp(ctx, prep.Plan, s, t, nil)
	return err
}

func (p *inProcessPlane) evict(planID string) { p.reg.Delete(p.reg.Get(planID)) }

func (p *inProcessPlane) retainedPlans() int { return p.reg.Len() }

func (p *inProcessPlane) retainedBytes() int64 { return p.reg.Bytes() }

// clusterPlane executes across RPC workers; retained partitions live in the
// workers' registries and warm queries ship zero shuffle bytes.
type clusterPlane struct {
	coord *cluster.Coordinator
}

func (p *clusterPlane) workers() int { return p.coord.Workers() }

func (p *clusterPlane) execute(ctx context.Context, prep *exec.Prepared, s, t *Relation, band Band, r resolved, planID string) (*Result, error) {
	copts := cluster.Options{
		Model:        r.Model,
		CollectPairs: r.CollectPairs,
		PlanID:       planID,
	}
	return p.coord.RunPlan(ctx, prep.Plan, prep.Ctx, s, t, band, copts)
}

// absorb ships the appended suffixes as delta streams into the sealed plan on
// the workers, so the next warm query moves zero bytes.
func (p *clusterPlane) absorb(ctx context.Context, prep *exec.Prepared, s, t *Relation, planID string) error {
	return p.coord.AbsorbPlan(ctx, prep.Plan, prep.Ctx, s, t, cluster.Options{PlanID: planID})
}

func (p *clusterPlane) evict(planID string) { p.coord.EvictPlan(planID) }

// retainedPlans is the coordinator's sealed-shipment count; the bytes live on
// the workers, whose own registries report them (bandjoin_worker_retained_bytes).
func (p *clusterPlane) retainedPlans() int { return p.coord.RetainedPlans() }

func (p *clusterPlane) retainedBytes() int64 { return 0 }
