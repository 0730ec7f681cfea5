// Package cluster provides a genuinely distributed execution path for
// band-joins: a coordinator ships partitioned input to worker processes over
// net/rpc (gob encoding) and collects the local-join results. It plays the
// role of the paper's Hadoop/MapReduce cluster in a minimal, dependency-free
// form: the partitioning plans are exactly the same as in the in-process
// simulator (internal/exec); only the transport differs. Workers can run in
// separate processes (cmd/recpartd) or in-process for tests.
package cluster

import "bandjoin/internal/data"

// ServiceName is the name the worker RPC service is registered under.
const ServiceName = "BandJoinWorker"

// LoadArgs ships one batch of partition input to a worker. Batches for the
// same partition accumulate on the worker.
type LoadArgs struct {
	JobID     string
	Partition int
	// Side is "S" or "T".
	Side string
	// Columnar is the batch: a self-describing columnar chunk encoded by
	// internal/wire (one column per dimension plus the column of original
	// tuple indices, each bit-packed or raw64). Every data-bearing Load has
	// one; senders ship only to workers whose Ping advertised
	// WireVersion >= wire.Version.
	Columnar []byte
	// SideTotal, when positive, is the total number of tuples this
	// (partition, side) will receive over the whole shuffle. The sender knows
	// it up front (partitions are routed before shipping), and the worker uses
	// it as a hint to reserve storage ahead instead of growing repeatedly
	// under append (never more than a constant factor over the rows received:
	// it is unvalidated input).
	SideTotal int
	// Complete marks this Load as a per-partition end-of-shipment marker (it
	// carries no data): every chunk of the partition has been issued on this
	// connection. Once the resident tuple counts reach ExpectS/ExpectT the
	// worker may start presorting and preparing the partition's join structure
	// in the background, overlapping with later partitions still in flight —
	// the streaming plane's pipelined-join path.
	Complete bool
	// ExpectS/ExpectT are the partition's total tuple counts per side,
	// guarding the marker against net/rpc's out-of-order request dispatch.
	ExpectS int
	ExpectT int
	// Band describes the upcoming Join call so the background preparation
	// builds the right structure. Set only on marker Loads.
	Band data.Band
	// Retain stores the partition data in the worker's retained-plan registry
	// under JobID (a plan fingerprint) instead of the transient job table:
	// the data survives job completion, failure, and Reset, and serves later
	// joins of the same plan with zero shuffle. The shipment must be completed
	// with a Seal call before the plan becomes joinable.
	Retain bool
	// Delta marks a retained load as an incremental append into an already
	// sealed plan (Engine.Append's delta shuffle): the worker accepts it
	// without unsealing, appends the rows to the resident partition (creating
	// it if the delta opens a new partition), and, when the rows go to the T
	// side, drops the partition's prepared join structure — it is rebuilt
	// lazily on the next probe, not eagerly at append time; S-side rows are
	// probed through the structure as it is. Requires Retain.
	Delta bool
	// Attempt numbers the shipment this Load belongs to among all the
	// shipments its coordinator ever makes: one counter per coordinator,
	// starting at 1, so a later shipment under the same JobID — repeated
	// mid-query, or made by a later query after the plan was evicted — has a
	// higher number. A worker refuses a Load numbered below what it was last
	// cleared for (ResetArgs.Attempt, EvictArgs.Attempt) — an aborted
	// shipment's Load that was still in flight when the worker was cleared
	// would otherwise land in the reshipped job and its rows be joined
	// twice. Delta loads extend a sealed plan, belong to no shipment, and
	// are not checked.
	Attempt int
}

// LoadReply acknowledges a batch. DecodeNanos is the time the worker spent
// decoding the batch's columnar chunk into the partition.
type LoadReply struct {
	Received    int
	DecodeNanos int64
}

// JoinArgs starts the local joins of one job on a worker.
type JoinArgs struct {
	JobID string
	Band  data.Band
	// CollectPairs requests the result pairs (original tuple index pairs) in
	// the reply; otherwise only counts are returned.
	CollectPairs bool
	// Parallelism bounds the number of partition joins the worker runs
	// concurrently; zero means the worker's GOMAXPROCS, and the worker may cap
	// it further (Worker.SetMaxParallelism).
	Parallelism int
	// Retained joins the sealed retained plan named by JobID (a plan
	// fingerprint) instead of a transient job. The call fails with
	// ErrUnknownRetainedPlan if the worker does not hold a sealed plan under
	// that fingerprint (never shipped, evicted, or restarted), signalling the
	// coordinator to fall back to a cold shuffle.
	Retained bool
	// MorselRows selects the worker's join execution grain: 0 (also what gob
	// zero-fills for coordinators that predate the field) runs the
	// morsel-driven scheduler with an automatic probe-side morsel size, > 0
	// fixes the morsel row count, and < 0 selects the retained
	// one-goroutine-per-partition path (the correctness oracle and skew
	// baseline). All settings produce bit-identical replies.
	MorselRows int
}

// ErrUnknownRetainedPlan is the error-text marker a worker includes when a
// retained join names a plan fingerprint it does not hold. net/rpc flattens
// errors to strings, so coordinators detect the condition by substring.
const ErrUnknownRetainedPlan = "unknown retained plan"

// PartitionStats reports one partition's local-join outcome.
type PartitionStats struct {
	Partition int
	InputS    int
	InputT    int
	Output    int64
	// JoinNanos is the local join's measured duration.
	JoinNanos int64
	// RebuildNanos is the time this probe spent re-sorting and re-building the
	// partition's prepared join structure after delta appends invalidated it
	// (zero when the sealed structure was still fresh).
	RebuildNanos int64
	// FoldNanos is the time this probe spent folding the partition's appended
	// S rows into its sorted order and resolved cell lists (exec.FoldS; zero
	// when no fold was due). A fold keeps the T-side structure, so it is no
	// rebuild and is not part of RebuildNanos.
	FoldNanos int64
	// PairS/PairT are parallel slices of result pairs when requested.
	PairS []int64
	PairT []int64
}

// JoinReply aggregates a worker's local joins for one job.
type JoinReply struct {
	Worker     string
	Partitions []PartitionStats
}

// ResetArgs clears a transient job's state on a worker. Reset is scoped to
// the transient job table only: retained plans (see LoadArgs.Retain) are
// never touched by Reset, so a failed or completed query cannot evict the
// registry — eviction is a separate, explicit Evict call.
type ResetArgs struct {
	JobID string
	// Final closes the job: its query is over and nothing loads under this id
	// again. The worker remembers the id (see closedJobs) and refuses a
	// transient Load that names it — a delayed handler running after the
	// query's last Reset would otherwise re-create state nobody resets. A
	// mid-query Reset that clears a worker before reshipping under the same id
	// leaves it false.
	Final bool
	// Attempt, when positive, marks a mid-query Reset: the coordinator is
	// about to ship to this worker again under the same id, as shipment
	// number Attempt. The worker keeps the job, emptied, and from now on
	// refuses its Loads of a lower number (see LoadArgs.Attempt).
	Attempt int
}

// ResetReply acknowledges a reset.
type ResetReply struct{}

// SealArgs completes the shipment of a retained plan: it marks the plan
// joinable on the worker (creating an empty entry on workers that received no
// partitions, so "sealed with zero partitions" is distinguishable from
// "evicted"). Sealing presorts the partitions and prebuilds each partition's
// reusable local-join structure for the plan's band and algorithm — paid once
// at retention time, so warm queries go straight to probing. Sealing may
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
	// plan's entry, emptied and unsealed, and refuses its non-delta Loads of a
	// lower number (see LoadArgs.Attempt). Requires PlanID.
	Attempt int
}

// EvictReply reports whether the plan was resident.
type EvictReply struct {
	Existed bool
}

// StatsArgs requests a worker's observability counters.
type StatsArgs struct{}

// StatsReply is one worker's cumulative observability snapshot: occupancy
// (jobs, retained plans/bytes), data-plane totals (Load/Join RPCs, tuples,
// bytes, pairs), retained-tier outcomes, and pool state. Like Ping, Stats
// answers while draining — an operator watching a drain needs the numbers
// most right then.
type StatsReply struct {
	Worker   string
	Draining bool

	// Occupancy.
	Jobs           int
	RetainedPlans  int
	RetainedBytes  int64
	TransientBytes int64
	JoinInflight   int64

	// Load path. LoadBytes counts payload bytes as shipped (wire form);
	// LoadRawBytes counts what the same tuples would occupy row-major and
	// uncompressed (8 bytes per key value and per ID), so raw/wire is the
	// worker-observed compression ratio. DecodeNanos is total time spent
	// decoding columnar chunks into partition arenas.
	LoadRPCs     int64
	LoadTuples   int64
	LoadBytes    int64
	LoadRawBytes int64
	DecodeNanos  int64
	LoadRejected int64
	// Delta path: incremental appends into sealed retained plans
	// (LoadArgs.Delta), the lazy rebuilds of prepared join structures they
	// invalidated (T-side appends), and the folds of appended S rows into
	// structures that were kept.
	DeltaLoads        int64
	DeltaTuples       int64
	StaleRebuilds     int64
	StaleRebuildNanos int64
	Folds             int64
	FoldNanos         int64

	// Join path. Morsels/MorselSteals/StragglerRatio are the morsel
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

// PingReply reports worker identity, currently loaded transient jobs, and
// resident retained plans.
type PingReply struct {
	Worker   string
	Jobs     int
	Retained int
	// Draining reports that the worker is shutting down gracefully: it still
	// answers Ping but rejects new Load/Join/Seal work.
	Draining bool
	// WireVersion is the columnar chunk format the worker decodes (see
	// internal/wire.Version). Coordinators refuse to ship to a worker that
	// reports an older version — gob zero-fills the field for peers that
	// predate it, so those are refused too.
	WireVersion int
}
