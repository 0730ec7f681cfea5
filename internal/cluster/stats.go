package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// WorkerStatus is one worker slot's view in a cluster-wide stats collection:
// the coordinator-side health state plus the worker's own counters (when
// reachable).
type WorkerStatus struct {
	Slot  int
	Addr  string
	State WorkerState
	// Err is the collection failure, if the worker could not be reached; Stats
	// is zero then.
	Err   string
	Stats StatsReply
}

// ClusterStats is the coordinator's cluster-wide observability snapshot:
// per-worker statuses plus the coordinator-side aggregates (wire bytes,
// retained-plan records).

type ClusterStats struct {
	Workers       []WorkerStatus
	Live          int
	RetainedPlans int
	WireBytes     int64
}

// Stats collects every worker's Stats reply (down workers are reported with
// their dial error rather than skipped) and the coordinator-side aggregates.
func (c *Coordinator) Stats(ctx context.Context) *ClusterStats {
	cs := &ClusterStats{
		Workers:       make([]WorkerStatus, len(c.workers)),
		Live:          c.LiveWorkers(),
		RetainedPlans: c.RetainedPlans(),
		WireBytes:     c.wireBytes(),
	}
	for slot, wc := range c.workers {
		ws := WorkerStatus{Slot: slot, Addr: wc.addr, State: wc.State()}
		err := wc.call(ctx, ServiceName+".Stats", &StatsArgs{}, &ws.Stats, c.opts.callDeadline(), 1, nil)
		if err != nil {
			ws.Err = err.Error()
		}
		cs.Workers[slot] = ws
	}
	return cs
}

// String renders the snapshot as the aligned table cmd/bandjoin -stats prints.
func (cs *ClusterStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d/%d workers live, %d retained plans, %d wire bytes\n",
		cs.Live, len(cs.Workers), cs.RetainedPlans, cs.WireBytes)
	fmt.Fprintf(&b, "%-4s %-12s %-8s %6s %6s %10s %12s %10s %12s %12s %8s %7s %10s %9s %9s %8s %7s %9s %6s %6s %7s %9s %7s %10s %6s %8s\n",
		"slot", "worker", "state", "jobs", "plans", "ret.bytes", "load.chunks", "load.tup", "load.bytes", "raw.bytes", "raw/wire", "dec.ms", "joins", "pairs", "join.ms", "morsels", "steals", "straggler", "hits", "miss", "deltas", "delta.tup", "rebuild", "rebuild.ms", "folds", "fold.ms")
	for _, ws := range cs.Workers {
		if ws.Err != "" {
			fmt.Fprintf(&b, "%-4d %-12s %-8s unreachable: %s\n", ws.Slot, ws.Addr, ws.State, ws.Err)
			continue
		}
		name := ws.Stats.Worker
		if name == "" {
			name = ws.Addr
		}
		state := ws.State.String()
		if ws.Stats.Draining {
			state += "*" // draining
		}
		ratio := 0.0
		if ws.Stats.LoadBytes > 0 {
			ratio = float64(ws.Stats.LoadRawBytes) / float64(ws.Stats.LoadBytes)
		}
		fmt.Fprintf(&b, "%-4d %-12s %-8s %6d %6d %10d %12d %10d %12d %12d %8.2f %7.1f %10d %9d %9.1f %8d %7d %9.2f %6d %6d %7d %9d %7d %10.1f %6d %8.1f\n",
			ws.Slot, name, state,
			ws.Stats.Jobs, ws.Stats.RetainedPlans, ws.Stats.RetainedBytes,
			ws.Stats.LoadChunks, ws.Stats.LoadTuples, ws.Stats.LoadBytes,
			ws.Stats.LoadRawBytes, ratio,
			float64(ws.Stats.DecodeNanos)/float64(time.Millisecond),
			ws.Stats.PartitionsJoined, ws.Stats.PairsEmitted,
			float64(ws.Stats.JoinNanos)/float64(time.Millisecond),
			ws.Stats.Morsels, ws.Stats.MorselSteals, ws.Stats.StragglerRatio,
			ws.Stats.RetainedHits, ws.Stats.RetainedMisses,
			ws.Stats.DeltaChunks, ws.Stats.DeltaTuples,
			ws.Stats.StaleRebuilds,
			float64(ws.Stats.StaleRebuildNanos)/float64(time.Millisecond),
			ws.Stats.Folds,
			float64(ws.Stats.FoldNanos)/float64(time.Millisecond))
	}
	return b.String()
}
