package csio

import (
	"bandjoin/internal/data"
)

// Plan is the CSIO assignment: each input tuple is routed to the join-matrix
// rectangles that cover a candidate cell of its row (S) or column (T).
type Plan struct {
	band    data.Band
	sBounds [][]float64
	tBounds [][]float64
	rects   []rect
	// sendS[i] lists the rectangles an S-tuple in row range i must reach;
	// sendT[j] the rectangles for a T-tuple in column range j.
	sendS [][]int
	sendT [][]int
	// estLoads are the optimizer's per-rectangle load estimates.
	estLoads []float64
}

func newPlan(band data.Band, sBounds, tBounds [][]float64, m *matrix, rects []rect) *Plan {
	sortRects(rects)
	p := &Plan{
		band:     band,
		sBounds:  sBounds,
		tBounds:  tBounds,
		rects:    rects,
		sendS:    make([][]int, m.rows),
		sendT:    make([][]int, m.cols),
		estLoads: make([]float64, len(rects)),
	}
	for k, r := range rects {
		p.estLoads[k] = r.load
		for i := r.rowLo; i <= r.rowHi && i < m.rows; i++ {
			if rowHasCandidate(m, i, r.colLo, r.colHi) {
				p.sendS[i] = append(p.sendS[i], k)
			}
		}
		for j := r.colLo; j <= r.colHi && j < m.cols; j++ {
			if colHasCandidate(m, j, r.rowLo, r.rowHi) {
				p.sendT[j] = append(p.sendT[j], k)
			}
		}
	}
	// Tuples whose row or column has no candidate cell cannot match anything
	// (the candidate test is conservative), but Definition 1 still assigns
	// every input tuple to at least one worker; route them to rectangle 0.
	// This cannot create duplicate results precisely because such tuples have
	// no join partner.
	if len(rects) > 0 {
		fallback := []int{0}
		for i := range p.sendS {
			if len(p.sendS[i]) == 0 {
				p.sendS[i] = fallback
			}
		}
		for j := range p.sendT {
			if len(p.sendT[j]) == 0 {
				p.sendT[j] = fallback
			}
		}
	}
	return p
}

func rowHasCandidate(m *matrix, row, colLo, colHi int) bool {
	for c := colLo; c <= colHi && c < m.cols; c++ {
		if m.candidate[m.at(row, c)] {
			return true
		}
	}
	return false
}

func colHasCandidate(m *matrix, col, rowLo, rowHi int) bool {
	for r := rowLo; r <= rowHi && r < m.rows; r++ {
		if m.candidate[m.at(r, col)] {
			return true
		}
	}
	return false
}

// NumPartitions implements partition.Plan.
func (p *Plan) NumPartitions() int { return len(p.rects) }

// Rectangles returns the number of cover rectangles (for diagnostics).
func (p *Plan) Rectangles() int { return len(p.rects) }

// EstimatedLoads returns the per-partition loads the cover was scored by
// (for diagnostics).
func (p *Plan) EstimatedLoads() []float64 { return p.estLoads }

// AssignS implements partition.Plan.
func (p *Plan) AssignS(_ int64, key []float64, dst []int) []int {
	row := rangeOf(p.sBounds, key)
	if row >= len(p.sendS) {
		row = len(p.sendS) - 1
	}
	return append(dst, p.sendS[row]...)
}

// AssignT implements partition.Plan.
func (p *Plan) AssignT(_ int64, key []float64, dst []int) []int {
	col := rangeOf(p.tBounds, key)
	if col >= len(p.sendT) {
		col = len(p.sendT) - 1
	}
	return append(dst, p.sendT[col]...)
}
