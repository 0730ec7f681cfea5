package core

import (
	"fmt"

	"bandjoin/internal/partition"
)

// RecPart is the paper's partitioner (Algorithm 1). With Options.Symmetric it
// is the full RecPart; without, it is RecPart-S, which always partitions S and
// duplicates T.
type RecPart struct {
	Opts Options
}

// New returns a RecPart partitioner with the given options.
func New(opts Options) *RecPart { return &RecPart{Opts: opts} }

// NewDefault returns RecPart with symmetric partitioning and the applied
// (cost-model based) termination rule.
func NewDefault() *RecPart { return New(DefaultOptions()) }

// NewRecPartS returns RecPart-S: symmetric partitioning disabled, so T is
// always the duplicated relation, matching the configuration used in the
// paper's band-width, skew, and scalability experiments.
func NewRecPartS() *RecPart {
	o := DefaultOptions()
	o.Symmetric = false
	return New(o)
}

// Name implements partition.Partitioner.
func (r *RecPart) Name() string {
	if r.Opts.Symmetric {
		return "RecPart"
	}
	return "RecPart-S"
}

// PlanFingerprint returns a canonical description of every option that
// influences the plans this partitioner produces. The execution-only knob,
// Parallelism, is excluded: plans are bit-identical regardless of it, so
// caches keyed on the fingerprint (the engine's plan cache and
// partition-retention registry) share plans and retained partitions across
// parallelism levels.
func (r *RecPart) PlanFingerprint() string {
	o := r.Opts
	o.Parallelism = 0
	return fmt.Sprintf("%T%+v", r, o)
}

// Plan implements partition.Partitioner: it grows the split tree on the
// samples, selects the best partitioning seen, and returns a Plan that routes
// real tuples to partitions.
func (r *RecPart) Plan(ctx *partition.Context) (partition.Plan, error) {
	p, err := r.PlanDetailed(ctx)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// PlanDetailed is Plan with the concrete plan type, exposing the growth
// history for experiments and tests.
func (r *RecPart) PlanDetailed(ctx *partition.Context) (*Plan, error) {
	if err := ctx.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid context: %w", err)
	}
	env, chosen := growTree(ctx, r.Opts)
	root, err := env.replay(chosen)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding winning partitioning: %w", err)
	}
	plan := finalizePlan(root, ctx.Band, env.opts.Seed)
	plan.History = env.history
	plan.Chosen = chosen
	plan.Symmetric = env.opts.Symmetric
	plan.Work = env.work
	return plan, nil
}
