// Package cluster provides a genuinely distributed execution path for
// band-joins: a coordinator ships partitioned input to worker processes as one
// ordered stream per shipment (stream.go), drives retained plans over net/rpc
// (gob encoding), and collects the local-join results. It plays the
// role of the paper's Hadoop/MapReduce cluster in a minimal, dependency-free
// form: the partitioning plans are exactly the same as in the in-process
// simulator (internal/exec); only the transport differs. Workers can run in
// separate processes (cmd/recpartd) or in-process for tests.
package cluster

import (
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
)

// ServiceName is the name the worker RPC service is registered under.
const ServiceName = "BandJoinWorker"

// JoinArgs starts the local joins of a retained plan on a worker (the Join
// RPC); all but PlanID also head a one-shot shipment stream (ShipHeader),
// which the worker joins at its end.
type JoinArgs struct {
	// PlanID names the sealed retained plan to join (a plan fingerprint). The
	// Join RPC fails with ErrUnknownRetainedPlan if the worker does not hold
	// the plan sealed (never shipped, evicted, or restarted), signalling the
	// coordinator to fall back to a cold shuffle.
	PlanID string
	Band   data.Band
	// CollectPairs requests the result pairs (original tuple index pairs) in
	// the reply; otherwise only counts are returned.
	CollectPairs bool
	// MorselRows selects the grain of the worker's morsel-driven join: 0 sizes
	// probe-side morsels automatically, > 0 fixes the morsel row count, and
	// < 0 runs every partition as one morsel. All settings produce
	// bit-identical replies. Only tests set it (Options.MorselRows).
	MorselRows int
}

// ErrUnknownRetainedPlan is the error-text marker a worker includes when a
// retained join names a plan fingerprint it does not hold. net/rpc flattens
// errors to strings, so coordinators detect the condition by substring.
const ErrUnknownRetainedPlan = "unknown retained plan"

// JoinReply aggregates a worker's local joins of one plan or stream: one
// record per partition, the same the in-process plane aggregates.
type JoinReply struct {
	Worker     string
	Partitions []exec.PartitionStats
}

// SealArgs completes the shipment of a retained plan: it marks the plan
// joinable on the worker (creating an empty entry on workers that received no
// partitions, so "sealed with zero partitions" is distinguishable from
// "evicted"). Sealing presorts the partitions and prebuilds each partition's
// reusable local-join structure for the plan's band — paid once at retention
// time, so warm queries go straight to probing. Sealing may
// evict the oldest retained plan if the worker's retention cap is exceeded.
type SealArgs struct {
	PlanID string
	// Band is the plan's band condition; a retained plan's fingerprint pins
	// the band, so the join structure prebuilt for it serves every later
	// query of the plan.
	Band data.Band
}

// SealReply reports the sealed plan's resident partition count.
type SealReply struct {
	Partitions int
}

// EvictArgs discards one retained plan, or every retained plan when PlanID is
// empty. It is the invalidation path an engine uses when a dataset is
// unregistered or replaced.
type EvictArgs struct {
	PlanID string
	// Attempt, when positive, marks a clearing that makes room for a shipment
	// under the same fingerprint — the first of a query, or the repeat of one
	// that died on the wire — numbered Attempt or higher: the worker keeps the
	// plan's entry, emptied and unsealed, and refuses its non-delta streams of
	// a lower number (see ShipHeader.Attempt). Requires PlanID.
	Attempt int
}

// EvictReply reports whether the plan was resident.
type EvictReply struct {
	Existed bool
}

// StatsArgs requests a worker's observability counters.
type StatsArgs struct{}

// StatsReply is one worker's cumulative observability snapshot: occupancy
// (open one-shot streams, retained plans/bytes), data-plane totals (chunks,
// joins, tuples, bytes, pairs), retained-tier outcomes, and pool state. Like Ping, Stats
// answers while draining — an operator watching a drain needs the numbers
// most right then.
type StatsReply struct {
	Worker   string
	Draining bool

	// Occupancy. Jobs and TransientBytes are the transient state held: the
	// one-shot streams open and the key/ID bytes they hold.
	Jobs           int
	RetainedPlans  int
	RetainedBytes  int64
	TransientBytes int64
	JoinInflight   int64

	// Shipment path. LoadBytes counts chunk bytes as shipped (wire form);
	// LoadRawBytes counts what the same tuples would occupy row-major and
	// uncompressed (8 bytes per key value and per ID), so raw/wire is the
	// worker-observed compression ratio. DecodeNanos is total time spent
	// decoding columnar chunks into partition arenas.
	LoadChunks   int64
	LoadTuples   int64
	LoadBytes    int64
	LoadRawBytes int64
	DecodeNanos  int64
	LoadRejected int64
	// Delta path: incremental appends into sealed retained plans (delta
	// streams, ShipHeader.Delta), the lazy rebuilds of prepared join structures they
	// invalidated (T-side appends), and the folds of appended S rows into
	// structures that were kept.
	DeltaChunks       int64
	DeltaTuples       int64
	StaleRebuilds     int64
	StaleRebuildNanos int64
	Folds             int64
	FoldNanos         int64

	// Join path. JoinRPCs counts joins served, retained and one-shot. Morsels/MorselSteals/StragglerRatio are the morsel
	// scheduler's skew accounting: probe-side morsels executed, morsels run
	// by a pool worker other than their partition's first claimer, and the
	// last join's max/mean partition probe-row ratio (1.0 = balanced).
	JoinRPCs         int64
	PartitionsJoined int64
	PairsEmitted     int64
	JoinNanos        int64
	RetainedHits     int64
	RetainedMisses   int64
	Morsels          int64
	MorselSteals     int64
	StragglerRatio   float64

	// Retention lifecycle.
	Seals     int64
	Evictions int64
}

// PingArgs checks worker liveness.
type PingArgs struct{}

// PingReply reports worker identity, the one-shot streams open (the transient
// state it holds), and resident retained plans.
type PingReply struct {
	Worker   string
	Jobs     int
	Retained int
	// Draining reports that the worker is shutting down gracefully: it still
	// answers Ping but rejects new shipments, Join and Seal.
	Draining bool
	// WireVersion is the columnar chunk format the worker decodes (see
	// internal/wire.Version). Coordinators refuse to ship to a worker that
	// reports an older version — gob zero-fills the field for peers that
	// predate it, so those are refused too.
	WireVersion int
}
