// Package onebucket implements the 1-Bucket partitioner of Okcan and
// Riedewald (SIGMOD 2011), one of the paper's baselines. It covers the entire
// |S| × |T| join matrix with an r × c grid of regions: every S-tuple is
// assigned to a random row (and therefore replicated to all c regions of that
// row) and every T-tuple to a random column. Randomization yields near-perfect
// load balance for arbitrary theta-joins at the price of roughly √w-fold input
// duplication, and the cover is independent of the dimensionality of the join
// condition — which is why its numbers in the paper's Tables 2a and 2b are
// virtually identical.
package onebucket

import (
	"fmt"
	"math"

	"bandjoin/internal/partition"
)

// OneBucket is the partitioner. Rows and Cols may be set explicitly; when
// zero, Plan chooses them to minimize total input c·|S| + r·|T| subject to
// r·c ≤ w.
type OneBucket struct {
	Rows int
	Cols int
}

// New returns a 1-Bucket partitioner that chooses its grid automatically.
func New() *OneBucket { return &OneBucket{} }

// Name implements partition.Partitioner.
func (*OneBucket) Name() string { return "1-Bucket" }

// Plan implements partition.Partitioner.
func (o *OneBucket) Plan(ctx *partition.Context) (partition.Plan, error) {
	if err := ctx.Validate(); err != nil {
		return nil, fmt.Errorf("onebucket: invalid context: %w", err)
	}
	rows, cols := o.Rows, o.Cols
	if rows <= 0 || cols <= 0 {
		rows, cols = ChooseGrid(ctx.Workers, ctx.Sample.TotalS, ctx.Sample.TotalT)
	}
	if rows*cols > ctx.Workers && ctx.Workers > 0 && o.Rows <= 0 {
		rows, cols = ChooseGrid(ctx.Workers, ctx.Sample.TotalS, ctx.Sample.TotalT)
	}
	return &Plan{rows: rows, cols: cols, seed: uint64(ctx.Seed) + 0x9e3779b9}, nil
}

// ChooseGrid picks the r × c cover with r·c ≤ w that minimizes the total
// input c·|S| + r·|T|. With |S| = |T| this gives the classic √w × √w square
// cover.
func ChooseGrid(workers, sizeS, sizeT int) (rows, cols int) {
	if workers < 1 {
		return 1, 1
	}
	bestCost := math.Inf(1)
	rows, cols = 1, 1
	for r := 1; r <= workers; r++ {
		c := workers / r
		if c < 1 {
			break
		}
		cost := float64(c)*float64(sizeS) + float64(r)*float64(sizeT)
		// Prefer lower total input; among ties prefer the cover that uses
		// more of the available workers (finer load spread).
		if cost < bestCost || (cost == bestCost && r*c > rows*cols) {
			bestCost = cost
			rows, cols = r, c
		}
	}
	return rows, cols
}

// Plan is the 1-Bucket assignment: partition p = row·cols + col.
type Plan struct {
	rows, cols int
	seed       uint64
}

// NumPartitions implements partition.Plan.
func (p *Plan) NumPartitions() int { return p.rows * p.cols }

// AssignS implements partition.Plan: the S-tuple is hashed to a row and copied
// to every region of that row.
func (p *Plan) AssignS(id int64, _ []float64, dst []int) []int {
	row := int(partition.HashID(id, p.seed) % uint64(p.rows))
	for c := 0; c < p.cols; c++ {
		dst = append(dst, row*p.cols+c)
	}
	return dst
}

// AssignT implements partition.Plan: the T-tuple is hashed to a column and
// copied to every region of that column.
func (p *Plan) AssignT(id int64, _ []float64, dst []int) []int {
	col := int(partition.HashID(id, p.seed^0xabcdef1234) % uint64(p.cols))
	for r := 0; r < p.rows; r++ {
		dst = append(dst, r*p.cols+col)
	}
	return dst
}
