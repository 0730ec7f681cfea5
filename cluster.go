package bandjoin

import (
	"context"
	"fmt"

	"bandjoin/internal/cluster"
	"bandjoin/internal/obs"
)

// Cluster is a connection to a set of band-join workers reachable over RPC.
type Cluster struct {
	coord *cluster.Coordinator
	local *cluster.LocalCluster
}

// ClusterConfig tunes the coordinator's fault-tolerance policy: it is the
// cluster's dial options. The zero value selects the production defaults
// documented on every field; see DESIGN.md's "Failure model" for the
// machinery behind the knobs.
type ClusterConfig = cluster.DialOptions

// ConnectCluster connects to already-running workers (see cmd/recpartd) at the
// given TCP addresses with the default fault-tolerance policy (every worker
// must be reachable).
func ConnectCluster(addrs []string) (*Cluster, error) {
	return ConnectClusterConfig(addrs, ClusterConfig{})
}

// ConnectClusterConfig connects to already-running workers with an explicit
// fault-tolerance policy.
func ConnectClusterConfig(addrs []string, cfg ClusterConfig) (*Cluster, error) {
	coord, err := cluster.DialConfig(addrs, cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{coord: coord}, nil
}

// StartLocalCluster starts n in-process workers on loopback ports and connects
// to them. It exercises the real RPC data path without separate processes.
func StartLocalCluster(n int) (*Cluster, error) {
	lc, err := cluster.StartLocal(n)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.Dial(lc.Addrs())
	if err != nil {
		lc.Stop()
		return nil, err
	}
	return &Cluster{coord: coord, local: lc}, nil
}

// Workers returns the number of configured workers (live or not).
func (c *Cluster) Workers() int { return c.coord.Workers() }

// LiveWorkers returns the number of workers currently considered healthy.
func (c *Cluster) LiveWorkers() int { return c.coord.LiveWorkers() }

// Metrics returns the coordinator-side metrics registry (shuffle totals,
// failover counters, worker health transitions), servable over HTTP together
// with an engine's registry via obs.Serve.
func (c *Cluster) Metrics() *obs.Registry { return c.coord.Metrics() }

// ClusterStats is the cluster-wide observability snapshot Stats collects.
type ClusterStats = cluster.ClusterStats

// Stats collects every worker's counters (over the Stats RPC) plus the
// coordinator-side aggregates. Unreachable workers are reported with their
// error rather than omitted.
func (c *Cluster) Stats(ctx context.Context) *ClusterStats { return c.coord.Stats(ctx) }

// Close disconnects from the workers and, for a local cluster, shuts them
// down.
func (c *Cluster) Close() {
	if c.coord != nil {
		c.coord.Close()
	}
	if c.local != nil {
		c.local.Stop()
	}
}

// Join runs the band-join of s and t across the cluster's workers. Like the
// in-process Join, it is a throwaway Engine serving one query; hold an Engine
// (Cluster.NewEngine) to amortize sampling, optimization, and the shuffle
// across repeated queries.
func (c *Cluster) Join(s, t *Relation, band Band, opts Options) (*Result, error) {
	if s == nil || t == nil {
		return nil, fmt.Errorf("bandjoin: nil input relation")
	}
	e := c.NewEngine(EngineOptions{DisableRetention: true})
	defer e.Close()
	if err := e.Register("s", s); err != nil {
		return nil, err
	}
	if err := e.Register("t", t); err != nil {
		return nil, err
	}
	return e.Join(context.Background(), "s", "t", band, opts)
}
