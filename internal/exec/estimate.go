package exec

import (
	"math"

	"bandjoin/internal/partition"
)

// Placement places the plan's partitions on n workers before their sizes are
// known, the role the cluster scheduler's load estimates play in the paper's
// MapReduce setting: partition.Place over the loads the sample predicts for
// them (the pass EstimatePlan makes). The RPC coordinator places its
// shipments with it.
func Placement(plan partition.Plan, ctx *partition.Context, n int) func(pid int) int {
	return partition.Place(plan, n, func() []float64 { return estimatePartitions(plan, ctx).load })
}

// sampleEstimate is what routing the sample through a plan predicts: per
// partition — every one the plan knows and every one the sample reaches — its
// input and output scaled to the full input, and the total input I. load is
// each partition's β2·input + β3·output summed term by term, the order the
// coordinator's placements are pinned to: β2·in + β3·out rounds differently
// in the last bits, LPT breaks near-ties between partitions the other way,
// and placements move (DESIGN.md, "Scheduling stand-in").
type sampleEstimate struct {
	in, out, load []float64
	total         float64
}

// estimatePartitions routes the sample through the plan once. A sample
// output pair counts towards the partition where it meets: the (unique)
// partition receiving both sides, which intersecting the assignment lists of
// the pair's S- and T-side finds.
func estimatePartitions(plan partition.Plan, ctx *partition.Context) sampleEstimate {
	smp, model := ctx.Sample, ctx.Model
	var e sampleEstimate
	at := func(id int) int {
		for id >= len(e.in) {
			e.in, e.out, e.load = append(e.in, 0), append(e.out, 0), append(e.load, 0)
		}
		return id
	}
	at(plan.NumPartitions() - 1)
	var dst []int
	for i := 0; i < smp.S.Len(); i++ {
		dst = plan.AssignS(int64(i), smp.S.Key(i), dst[:0])
		for _, id := range dst {
			e.in[at(id)] += 1 / smp.SRate
			e.load[id] += model.Beta2 / smp.SRate
		}
		e.total += float64(len(dst)) / smp.SRate
	}
	for i := 0; i < smp.T.Len(); i++ {
		dst = plan.AssignT(int64(i), smp.T.Key(i), dst[:0])
		for _, id := range dst {
			e.in[at(id)] += 1 / smp.TRate
			e.load[id] += model.Beta2 / smp.TRate
		}
		e.total += float64(len(dst)) / smp.TRate
	}
	var sDst, tDst []int
	for i := 0; i < smp.OutS.Len(); i++ {
		sDst = plan.AssignS(int64(i), smp.OutS.Key(i), sDst[:0])
		tDst = plan.AssignT(int64(i), smp.OutT.Key(i), tDst[:0])
		for _, a := range sDst {
			for _, b := range tDst {
				if a == b {
					e.out[at(a)] += smp.OutWeight
					e.load[a] += model.Beta3 * smp.OutWeight
				}
			}
		}
	}
	return e
}

// EstimatePlan predicts I, Im, Om and join time by routing the context's
// sample tuples (not the full input) through the plan and scaling the counts.
// The paper does the same for its most expensive configurations (the
// 8-dimensional scalability tables use the running-time model instead of cloud
// executions); here it additionally avoids shuffling inputs whose duplication
// factor is in the thousands (Grid-ε at d = 8).
func EstimatePlan(plan partition.Plan, ctx *partition.Context) *Result {
	smp := ctx.Sample
	e := estimatePartitions(plan, ctx)
	// The partitions the sample reaches are placed, and only those: LPT's
	// order among equal loads depends on how many there are.
	reached, parts := 0, 0
	for id := range e.in {
		if e.in[id] > 0 || e.out[id] > 0 {
			reached, parts = id+1, parts+1
		}
	}
	loads := make([]float64, reached)
	for id := range loads {
		loads[id] = ctx.Model.Load(e.in[id], e.out[id])
	}
	place := partition.Place(plan, ctx.Workers, func() []float64 { return loads })
	workerIn := make([]float64, ctx.Workers)
	workerOut := make([]float64, ctx.Workers)
	for id := range loads {
		w := place(id)
		workerIn[w] += e.in[id]
		workerOut[w] += e.out[id]
	}
	maxW := 0
	for w := 1; w < ctx.Workers; w++ {
		if ctx.Model.Load(workerIn[w], workerOut[w]) > ctx.Model.Load(workerIn[maxW], workerOut[maxW]) {
			maxW = w
		}
	}

	totalOutput := smp.EstimatedOutput()
	res := &Result{
		Workers:        ctx.Workers,
		Partitions:     parts,
		InputS:         smp.TotalS,
		InputT:         smp.TotalT,
		TotalInput:     int64(e.total + 0.5),
		Output:         int64(totalOutput + 0.5),
		Im:             int64(workerIn[maxW] + 0.5),
		Om:             int64(workerOut[maxW] + 0.5),
		MaxLoad:        ctx.Model.Load(workerIn[maxW], workerOut[maxW]),
		LowerBoundLoad: ctx.Model.LowerBoundLoad(float64(smp.TotalS+smp.TotalT), totalOutput, ctx.Workers),
		WorkerInput:    toInt64(workerIn),
		WorkerOutput:   toInt64(workerOut),
	}
	if smp.TotalS+smp.TotalT > 0 {
		// Sample scaling can undershoot by a fraction of a tuple; overheads are
		// clamped at zero (they are relative to true lower bounds).
		res.DupOverhead = math.Max(0, e.total/float64(smp.TotalS+smp.TotalT)-1)
	}
	if res.LowerBoundLoad > 0 {
		res.LoadOverhead = math.Max(0, res.MaxLoad/res.LowerBoundLoad-1)
	}
	res.PredictedTime = ctx.Model.Predict(e.total, workerIn[maxW], workerOut[maxW])
	return res
}

func toInt64(v []float64) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = int64(x + 0.5)
	}
	return out
}
