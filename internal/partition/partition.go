// Package partition defines the common framework shared by all distributed
// band-join partitioning algorithms in this repository: the optimizer-facing
// Context (samples, band condition, worker count, cost model), the Plan
// produced by a partitioner (a mapping from input tuples to one or more
// partitions, Definition 1 in the paper), and the scheduling of partitions
// onto workers.
package partition

import (
	"fmt"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/sample"
)

// Context carries everything a partitioner may consult during its
// optimization phase. Partitioners must not access the full inputs — only the
// samples — mirroring the paper's optimization phase (Figure 5).
type Context struct {
	// Band is the band-join condition.
	Band data.Band
	// Workers is the number of worker machines w.
	Workers int
	// Sample holds the input and output samples and full input cardinalities.
	Sample *sample.Sample
	// Model supplies the β coefficients for load and join-time estimation.
	Model costmodel.Model
	// Seed drives any randomized decisions (e.g. 1-Bucket row assignment).
	Seed int64
}

// Validate reports whether the context is usable by a partitioner.
func (c *Context) Validate() error {
	if c == nil {
		return fmt.Errorf("partition: nil context")
	}
	if err := c.Band.Validate(); err != nil {
		return err
	}
	if c.Workers < 1 {
		return fmt.Errorf("partition: need at least one worker, got %d", c.Workers)
	}
	if c.Sample == nil {
		return fmt.Errorf("partition: context has no sample")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	return nil
}

// Dims returns the dimensionality of the join.
func (c *Context) Dims() int { return c.Band.Dims() }

// Plan is the output of a partitioner's optimization phase: an assignment of
// every input tuple to one or more partitions such that every join result is
// produced by exactly one partition's local join (Definition 1). Partitions
// are later placed on workers by a Schedule.
type Plan interface {
	// NumPartitions returns the number of partitions the plan creates.
	NumPartitions() int
	// AssignS appends to dst the partitions that must receive the S-tuple
	// with the given ID and join-attribute key, and returns the extended
	// slice. The tuple ID is stable and is used for any pseudo-random
	// assignment (e.g. 1-Bucket rows) so plans are deterministic.
	AssignS(id int64, key []float64, dst []int) []int
	// AssignT is the T-side counterpart of AssignS.
	AssignT(id int64, key []float64, dst []int) []int
}

// WorkerPlacer is an optional interface a Plan can implement to dictate how
// partitions map to workers. Grid-ε uses it for hash placement (its
// near-zero-optimization design point); plans that do not implement it are
// scheduled with greedy LPT on observed partition load, the deterministic
// stand-in for the cluster scheduler's dynamic load balancing.
type WorkerPlacer interface {
	PlaceWorker(partition, workers int) int
}

// Partitioner finds a Plan for a given context. Implementations: RecPart
// (internal/core), 1-Bucket (internal/onebucket), Grid-ε and Grid*
// (internal/grid), CSIO (internal/csio), and distributed IEJoin
// (internal/iejoin).
type Partitioner interface {
	// Name identifies the partitioner in experiment reports.
	Name() string
	// Plan runs the optimization phase and returns the chosen partitioning.
	Plan(ctx *Context) (Plan, error)
}
