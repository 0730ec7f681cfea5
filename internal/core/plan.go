package core

import (
	"math"

	"bandjoin/internal/data"
	"bandjoin/internal/partition"
)

// Plan is the partitioning RecPart produces: a split tree whose leaves are the
// physical partitions (small leaves contribute one partition per cell of their
// internal 1-Bucket grid). It implements partition.Plan; AssignS / AssignT
// realize Algorithm 3 of the paper.
type Plan struct {
	root  *node
	band  data.Band
	seed  uint64
	parts int

	// History records the estimated quality after every iteration of the
	// growth loop; Chosen is the iteration whose partitioning this plan is.
	History []IterationStats
	// Chosen is the number of actions of the winning prefix.
	Chosen int
	// Symmetric records whether S-splits were allowed (RecPart vs RecPart-S).
	Symmetric bool
	// Leaves is the number of split-tree leaves (before expanding small
	// leaves into their grid cells).
	Leaves int
	// Work counts the optimizer's work for this plan.
	Work PlanWork
}

// finalizePlan numbers the partitions of every leaf, fixes the T-splits'
// routing thresholds and returns the plan.
func finalizePlan(root *node, band data.Band, seed int64) *Plan {
	p := &Plan{root: root, band: band, seed: uint64(seed)}
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf {
			n.partBase = p.parts
			p.parts += n.numPartitions()
			p.Leaves++
			return
		}
		if n.kind == splitT {
			n.tLeftMax = math.Nextafter(n.val, math.Inf(-1)) + band.High[n.dim]
			n.tRightMin = n.val - band.Low[n.dim]
		}
		walk(n.left)
		walk(n.right)
	}
	walk(root)
	return p
}

// NumPartitions implements partition.Plan.
func (p *Plan) NumPartitions() int { return p.parts }

// AssignS implements partition.Plan.
func (p *Plan) AssignS(id int64, key []float64, dst []int) []int {
	return p.assign(p.root, id, key, true, dst)
}

// AssignT implements partition.Plan.
func (p *Plan) AssignT(id int64, key []float64, dst []int) []int {
	return p.assign(p.root, id, key, false, dst)
}

// assign descends the split tree. At a node that partitions the tuple's
// relation, exactly one child is followed; at a node that duplicates it, every
// child whose region intersects the tuple's ε-range is followed. At a small
// leaf the tuple is hashed to a 1-Bucket row (S) or column (T) and copied to
// every cell of it.
func (p *Plan) assign(n *node, id int64, key []float64, isS bool, dst []int) []int {
	for !n.isLeaf {
		dim, x := n.dim, n.val
		partitioned := (n.kind == splitT) == isS
		if partitioned {
			if key[dim] < x {
				n = n.left
			} else {
				n = n.right
			}
			continue
		}
		// A duplicated tuple goes to each side that holds a key of the other
		// relation it matches, decided with the predicate's own float
		// expressions (Band.MatchesDim: t >= s-Low && t <= s+High, each
		// non-decreasing in s) evaluated at the side's extreme key — never
		// with the tuple's ε-range, whose t-High and t+Low round differently
		// from the predicate's s+High and s-Low within an ulp of x.
		var goLeft, goRight bool
		if isS {
			// S duplicated at an S-split: T keys below x are left, the rest
			// right; s reaches the T keys in [s−Low, s+High].
			goLeft = key[dim]-p.band.Low[dim] < x
			goRight = key[dim]+p.band.High[dim] >= x
		} else {
			// T duplicated at a T-split: S keys below x are left — the largest
			// is the float before x — the rest right, the smallest being x.
			goLeft = key[dim] <= n.tLeftMax
			goRight = key[dim] >= n.tRightMin
		}
		switch {
		case goLeft && goRight:
			dst = p.assign(n.left, id, key, isS, dst)
			n = n.right
		case goLeft:
			n = n.left
		default:
			n = n.right
		}
	}

	if n.small && (n.rows > 1 || n.cols > 1) {
		h := partition.HashID(id, p.seed^uint64(n.id)*0x100000001b3)
		if isS {
			row := int(h % uint64(n.rows))
			for c := 0; c < n.cols; c++ {
				dst = append(dst, n.partBase+row*n.cols+c)
			}
		} else {
			col := int(h % uint64(n.cols))
			for r := 0; r < n.rows; r++ {
				dst = append(dst, n.partBase+r*n.cols+col)
			}
		}
		return dst
	}
	return append(dst, n.partBase)
}

// Regions returns the leaf regions of the split tree in partition order
// (useful for diagnostics, visualization, and tests). Small leaves report a
// single region covering all their grid cells.
func (p *Plan) Regions() []data.Region {
	var out []data.Region
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf {
			out = append(out, n.region.Clone())
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(p.root)
	return out
}

// FinalStats returns the iteration statistics of the chosen partitioning.
func (p *Plan) FinalStats() IterationStats {
	for _, h := range p.History {
		if h.Iteration == p.Chosen {
			return h
		}
	}
	if len(p.History) > 0 {
		return p.History[len(p.History)-1]
	}
	return IterationStats{}
}
