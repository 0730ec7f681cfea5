package bandjoin

import (
	"bandjoin/internal/core"
	"bandjoin/internal/csio"
	"bandjoin/internal/grid"
	"bandjoin/internal/iejoin"
	"bandjoin/internal/onebucket"
)

// RecPartOptions configures the RecPart partitioner.
type RecPartOptions struct {
	// Symmetric enables per-split selection of which relation to duplicate
	// (RecPart); disabled it is the paper's RecPart-S.
	Symmetric bool
	// Theoretical selects the theoretical termination condition (minimize the
	// max of the two lower-bound overheads) instead of the applied,
	// cost-model-based one.
	Theoretical bool
	// MaxIterations caps tree growth (0 = default).
	MaxIterations int
	// Seed drives the deterministic small-partition row/column assignment.
	Seed int64
}

// RecPart returns the paper's partitioner with symmetric partitioning and the
// applied termination rule.
func RecPart() Partitioner { return core.NewDefault() }

// RecPartS returns RecPart-S: T is always the duplicated relation.
func RecPartS() Partitioner { return core.NewRecPartS() }

// RecPartWith returns RecPart configured explicitly.
func RecPartWith(opts RecPartOptions) Partitioner {
	o := core.DefaultOptions()
	o.Symmetric = opts.Symmetric
	if opts.Theoretical {
		o.Termination = core.TerminateTheoretical
	}
	o.MaxIterations = opts.MaxIterations
	o.Seed = opts.Seed
	return core.New(o)
}

// OneBucket returns the 1-Bucket baseline: random join-matrix cover, near
// perfect load balance, ~√w input duplication.
func OneBucket() Partitioner { return onebucket.New() }

// GridEps returns the Grid-ε baseline with the default grid size of one band
// width per dimension.
func GridEps() Partitioner { return grid.New() }

// GridStar returns Grid*, which tunes the grid size with the cost model.
func GridStar() Partitioner { return grid.NewStar() }

// CSIO returns the CSIO baseline (quantile matrix + rectangle covering).
func CSIO() Partitioner { return csio.New() }

// IEJoin returns the distributed IEJoin partitioning (range blocks on the
// first join attribute, joinable block pairs as work units).
func IEJoin() Partitioner { return iejoin.New() }
