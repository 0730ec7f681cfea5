// Package grid implements the Grid-ε baseline (Soloviev's truncating-hash
// band-join partitioning generalized to d dimensions, Section 3.1 of the
// paper) and the Grid* extension (Section 6.5) that tunes the grid size with
// the running-time model. The join-attribute space is divided into a regular
// grid; every S-tuple belongs to exactly one cell, and every T-tuple is
// duplicated to all cells its ε-range intersects (up to 3^d cells at the
// default grid size). Cells are placed on workers by hashing, reflecting the
// method's near-zero optimization cost.
package grid

import (
	"fmt"
	"math"
	"sync"

	"bandjoin/internal/data"
	"bandjoin/internal/partition"
)

// Grid is the Grid-ε partitioner. Multiplier scales the cell size relative to
// the band width in each dimension: cell size in dimension i is
// Multiplier · εᵢ (the paper's default is Multiplier = 1; Table 5 sweeps it).
type Grid struct {
	Multiplier float64
}

// New returns Grid-ε with the default cell size of one band width.
func New() *Grid { return &Grid{Multiplier: 1} }

// NewWithMultiplier returns Grid-ε with cell size multiplier·ε per dimension.
func NewWithMultiplier(m float64) *Grid { return &Grid{Multiplier: m} }

// Name implements partition.Partitioner.
func (g *Grid) Name() string {
	if g.Multiplier == 1 || g.Multiplier == 0 {
		return "Grid-eps"
	}
	return fmt.Sprintf("Grid-eps(x%g)", g.Multiplier)
}

// Plan implements partition.Partitioner.
func (g *Grid) Plan(ctx *partition.Context) (partition.Plan, error) {
	if err := ctx.Validate(); err != nil {
		return nil, fmt.Errorf("grid: invalid context: %w", err)
	}
	m := g.Multiplier
	if m <= 0 {
		m = 1
	}
	size, err := CellSize(ctx.Band, m)
	if err != nil {
		return nil, err
	}
	return NewPlan(ctx.Band, size), nil
}

// CellSize returns the per-dimension grid cell size multiplier·εᵢ, where εᵢ is
// the (average) half band width. Grid partitioning is undefined for band width
// zero (the paper notes Grid-ε is not defined for equi-joins).
func CellSize(band data.Band, multiplier float64) ([]float64, error) {
	size := make([]float64, band.Dims())
	for i := range size {
		eps := band.Width(i) / 2
		if eps <= 0 {
			return nil, fmt.Errorf("grid: band width in dimension %d is zero; Grid-ε is undefined for equi-joins", i)
		}
		size[i] = multiplier * eps
	}
	return size, nil
}

// ---------------------------------------------------------------------------
// Plan

// cellEntry is one occupied grid cell; collisions of the coordinate hash are
// resolved by comparing the full coordinate vector, so distinct cells are
// never merged (which would make a local join emit duplicate results).
type cellEntry struct {
	coords []int64
	id     int
}

// Plan is the Grid-ε assignment. Cells are discovered lazily as tuples are
// assigned, so NumPartitions grows during the shuffle; it must be read after
// assignment. AssignS and AssignT are safe for concurrent use (the parallel
// shuffle calls them from many goroutines): lookups of already-discovered
// cells take a read lock only, and cell creation escalates to a write lock.
// Cell (partition) numbering therefore depends on discovery order, but which
// tuples share a cell, and the worker each cell is hashed to, do not.
type Plan struct {
	band     data.Band
	cellSize []float64

	mu     sync.RWMutex
	cells  map[uint64][]cellEntry
	hashes []uint64 // per partition id, hash of its cell coordinates
}

// NewPlan returns an empty Grid-ε plan with the given cell sizes.
func NewPlan(band data.Band, cellSize []float64) *Plan {
	return &Plan{
		band:     band,
		cellSize: cellSize,
		cells:    make(map[uint64][]cellEntry),
	}
}

// CellSizes returns the per-dimension cell size of the plan.
func (p *Plan) CellSizes() []float64 { return p.cellSize }

// NumPartitions implements partition.Plan. It returns the number of occupied
// cells discovered so far.
func (p *Plan) NumPartitions() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.hashes)
}

// PlaceWorker implements partition.WorkerPlacer: cells are hashed to workers,
// matching Grid-ε's near-zero optimization cost (no load-aware scheduling).
func (p *Plan) PlaceWorker(part, workers int) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if part < 0 || part >= len(p.hashes) || workers <= 0 {
		return 0
	}
	return int(p.hashes[part] % uint64(workers))
}

// maxStackDims bounds the dimensionality for which Assign scratch lives on the
// stack; the paper evaluates up to d = 8.
const maxStackDims = 16

// AssignS implements partition.Plan: the S-tuple belongs to exactly one cell.
func (p *Plan) AssignS(_ int64, key []float64, dst []int) []int {
	var buf [maxStackDims]int64
	coords := buf[:0]
	if len(key) > maxStackDims {
		coords = make([]int64, 0, len(key))
	}
	for d, v := range key {
		coords = append(coords, cellIndex(v, p.cellSize[d]))
	}
	return append(dst, p.lookup(coords))
}

// tCells returns the range of cell indices, in dimension i, of the S keys that
// a T key v can match. The predicate (Band.MatchesDim) holds for the s with
// v <= fl(s+High) and v >= fl(s−Low); a sum rounds to v from anywhere in the
// half-gaps around v, so in real numbers those s lie within
// [pred(v)−High, succ(v)+Low]. v−High and v+Low themselves fall short of that
// by up to an ulp of v — a whole cell's worth of keys when v−High cancels to
// something tiny next to a cell boundary. Each end is computed from v's float
// neighbour and then moved one float outward, which covers the rounding of the
// subtraction itself.
func (p *Plan) tCells(i int, v float64) (lo, hi int64) {
	down, up := math.Inf(-1), math.Inf(1)
	lo = cellIndex(math.Nextafter(math.Nextafter(v, down)-p.band.High[i], down), p.cellSize[i])
	hi = cellIndex(math.Nextafter(math.Nextafter(v, up)+p.band.Low[i], up), p.cellSize[i])
	return lo, hi
}

// AssignT implements partition.Plan: the T-tuple is copied to every cell that
// may hold an S-tuple it matches (tCells, per dimension).
func (p *Plan) AssignT(_ int64, key []float64, dst []int) []int {
	d := len(key)
	var bufLo, bufHi, bufC [maxStackDims]int64
	lo, hi, coords := bufLo[:0], bufHi[:0], bufC[:d]
	if d > maxStackDims {
		lo, hi, coords = make([]int64, 0, d), make([]int64, 0, d), make([]int64, d)
	}
	for i, v := range key {
		l, h := p.tCells(i, v)
		lo, hi = append(lo, l), append(hi, h)
	}
	copy(coords, lo)
	for {
		dst = append(dst, p.lookup(coords))
		// Advance the coordinate vector (odometer over the cell ranges).
		i := d - 1
		for i >= 0 {
			coords[i]++
			if coords[i] <= hi[i] {
				break
			}
			coords[i] = lo[i]
			i--
		}
		if i < 0 {
			break
		}
	}
	return dst
}

// Replication returns how many cells a T-tuple with the given key is copied
// to, without creating the cells. It is used for sample-based estimation.
func (p *Plan) Replication(key []float64) int {
	n := 1
	for i, v := range key {
		lo, hi := p.tCells(i, v)
		n *= int(hi - lo + 1)
	}
	return n
}

// lookup returns the partition id of the cell with the given coordinates,
// creating it if necessary. The fast path (cell already discovered, which is
// every lookup after the shuffle's first pass) takes only a read lock.
func (p *Plan) lookup(coords []int64) int {
	h := hashCoords(coords)
	p.mu.RLock()
	for _, e := range p.cells[h] {
		if equalCoords(e.coords, coords) {
			p.mu.RUnlock()
			return e.id
		}
	}
	p.mu.RUnlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	// Re-check: another goroutine may have created the cell in the meantime.
	for _, e := range p.cells[h] {
		if equalCoords(e.coords, coords) {
			return e.id
		}
	}
	id := len(p.hashes)
	stored := make([]int64, len(coords))
	copy(stored, coords)
	p.cells[h] = append(p.cells[h], cellEntry{coords: stored, id: id})
	p.hashes = append(p.hashes, h)
	return id
}

func cellIndex(v, size float64) int64 {
	return int64(math.Floor(v / size))
}

func equalCoords(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashCoords mixes the cell coordinates with an FNV-1a / splitmix combination.
func hashCoords(coords []int64) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range coords {
		h ^= uint64(c)
		h *= 1099511628211
		h = partition.HashID(int64(h), 0x5bd1e995)
	}
	return h
}
