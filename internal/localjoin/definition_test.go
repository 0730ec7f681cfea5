package localjoin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bandjoin/internal/data"
)

// hostileRelation builds n rows meant to hurt a grid join: coordinates sit
// exactly on cell boundaries (multiples of the cell width, negative ones
// included), at ± the band extents from them and one ulp to either side, on
// two point masses (heavy cells, so the grid refines), and occasionally on
// NaN, ±Inf and ±1e300. With heavy set (n ≥ 100) the rows crowd into a few
// cells instead, so that those are dense — see heavyRows.
func hostileRelation(rng *rand.Rand, name string, n int, band data.Band, heavy bool) *data.Relation {
	d := band.Dims()
	r := data.NewRelationCapacity(name, d, n)
	if heavy {
		heavyRows(rng, r, n, band)
		return r
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.MaxFloat64, 0, math.Copysign(0, -1)}
	// The same two masses in S and T, one cell apart: every mass row has
	// matches, some of them across a cell boundary.
	masses := [][]float64{make([]float64, d), make([]float64, d)}
	for j := range masses[1] {
		masses[1][j] = -band.MaxWidth(j)
	}
	key := make([]float64, d)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			r.AppendKey(masses[rng.Intn(len(masses))])
			continue
		}
		for j := range key {
			w := band.MaxWidth(j)
			if w == 0 {
				w = 0.5 // equi-join dimension: a small lattice with many ties
			}
			v := float64(rng.Intn(7)-3) * w
			switch rng.Intn(8) {
			case 0:
				v += band.Low[j]
			case 1:
				v -= band.High[j]
			case 2:
				v = math.Nextafter(v, math.Inf(1))
			case 3:
				v = math.Nextafter(v, math.Inf(-1))
			case 4:
				v += (rng.Float64() - 0.5) * w
			case 5:
				if rng.Intn(6) == 0 {
					v = specials[rng.Intn(len(specials))]
				}
			}
			key[j] = v
		}
		r.AppendKey(key)
	}
	return r
}

// heavyRows appends n rows that put denseCell rows or more into single cells,
// whatever dimensions the grid and the order fall on. Three far-apart
// clusters: denseCell−1 rows and denseCell rows spread inside one cell each
// (the last sparse and the first dense cell), and a point mass. The rest sits
// around the origin: mostly inside cell 0 (0, −0, a random offset), else
// exactly a band extent away — where a row at 0 has its interval's ends — or
// one ulp to either side of that, and now and then on NaN or ±Inf, which on a
// dimension outside the grid stay inside the dense cell. On a zero-width
// dimension, an exact-key grid dimension, the spread rows sit on one key
// instead, so that the crowds stay in one cell there too. S and T are drawn
// alike, so interval ends meet keys bit for bit.
func heavyRows(rng *rand.Rand, r *data.Relation, n int, band data.Band) {
	d := band.Dims()
	width := func(j int) float64 {
		if w := band.MaxWidth(j); w > 0 {
			return w
		}
		return 0.5 // equi-join dimension
	}
	spread := func(j int) float64 {
		if band.MaxWidth(j) == 0 {
			return 0.25 * width(j)
		}
		return rng.Float64() * 0.999 * width(j)
	}
	key := make([]float64, d)
	clusters := []struct {
		rows  int
		at    float64 // dimension-0 coordinate, in cell widths
		exact bool    // all rows on one point
	}{{denseCell - 1, 10, false}, {denseCell, 20, false}, {2 * denseCell, 30, true}}
	for _, c := range clusters {
		for i := 0; i < c.rows; i++ {
			for j := range key {
				key[j] = 0.25 * width(j)
				if !c.exact {
					key[j] = spread(j)
				}
			}
			key[0] += c.at * width(0)
			r.AppendKey(key)
			n--
		}
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for ; n > 0; n-- {
		for j := range key {
			var v float64
			switch c := rng.Intn(20); {
			case c < 4:
				v = 0
			case c < 6:
				v = math.Copysign(0, -1)
			case c < 12:
				v = spread(j)
			default:
				v = band.High[j]
				if c%2 == 0 {
					v = -band.Low[j]
				}
				switch c / 2 {
				case 6:
					v = math.Nextafter(v, math.Inf(1))
				case 7:
					v = math.Nextafter(v, math.Inf(-1))
				case 8:
					if rng.Intn(4) == 0 {
						v = specials[rng.Intn(len(specials))]
					}
				}
			}
			key[j] = v
		}
		r.AppendKey(key)
	}
}

// hostileBand draws a band of the given shape over d dimensions.
func hostileBand(rng *rand.Rand, shape string, d int) data.Band {
	low, high := make([]float64, d), make([]float64, d)
	for j := range low {
		low[j] = 0.05 + rng.Float64()
		high[j] = low[j]
		switch shape {
		case "asymmetric":
			high[j] = 0.05 + rng.Float64()
		case "one-sided":
			if j%2 == 0 {
				low[j] = 0
			} else {
				high[j] = 0
			}
		}
	}
	switch shape {
	case "zero-dim0": // an exact-key grid dimension
		low[0], high[0] = 0, 0
	case "zero-dim1":
		low[1], high[1] = 0, 0
	case "all-zero": // an equi-join on every dimension
		clear(low)
		clear(high)
	case "zero-last": // refinement has to skip a dimension
		low[d-1], high[d-1] = 0, 0
		if d > 3 {
			low[2], high[2] = 0, 0
		}
	case "tiny": // |x/w| overflows int64 for the 1e300 keys
		for j := range low {
			low[j], high[j] = 1e-9, 1e-9
		}
	}
	return data.Asymmetric(low, high)
}

// checkExactlyOnce fails unless got holds every pair of want exactly once and
// nothing else.
func checkExactlyOnce(t *testing.T, what string, got []idxPair, want map[idxPair]bool) {
	t.Helper()
	seen := make(map[idxPair]bool, len(got))
	for _, p := range got {
		if !want[p] {
			t.Fatalf("%s: emitted %v, which does not satisfy the band condition", what, p)
		}
		if seen[p] {
			t.Fatalf("%s: emitted %v twice", what, p)
		}
		seen[p] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("%s: %d pairs, definition has %d", what, len(seen), len(want))
	}
}

// TestEpsGridAgainstDefinition checks the k-dimensional grid — one-shot Join,
// and ProbeRange stripes over grids with and without resolved S cell lists,
// emitting and counting — against the nested loop, i.e. against the band-join
// definition itself, as a pair set with every pair exactly once. The grid is
// built whatever the sizes (Join leaves the smallest to the nested loop). The
// heavy sizes run the dense-cell path: order-dimension range search, box test,
// and the count-only shortcut. The table runs d = 1 (k = 1, every cell dense)
// and zero widths on dimension 0, dimension 1 and every dimension (exact-key
// grid dimensions).
//
// scanCells verifies the leading kc grid dimensions without branches against
// interval ends hoisted out of the candidate loop, and only the rest through
// matchesFrom; the table must therefore build grids with kc < k (an equi-join
// dimension between grid dimensions), with kc = d for d = 2, 3 and 4 (counting
// then takes the jump-free loop, emitting the other), and probe them with S
// keys that make a hoisted end NaN, +Inf and -Inf — asserted at the end. Each
// of these mutations of scanCells fails the test (checked by hand): `>=` → `>`
// or `<=` → `<` in the hoisted comparison, dropping either half of its AND,
// reading a lower end where the upper belongs (b[d] for b[maxGridDims+d]) or
// the reverse, and skipping matchesFrom(…, kc).
//
// A dense cell's rows are tested only on the dimensions denseRange reports
// open. The table must reach, with a non-empty range, a cell with none open
// (counted or emitted as it stands), one open with rows of the range on both
// sides of the outcome — for d = 2, where the order dimension is the grid's
// last, and for k = d = 3 — and several open; the walk at the end of each
// heavy case records them through denseRange itself, and both modes run on
// every case. Hand mutations killed: an open dimension treated as settled
// (denseRange returning noneOpen for one open, or the one-open loop adding
// every row), a settled one as open (denseRange always reporting several: the
// none-open and one-open cases are then never reached), the wrong dimension
// tested (vals offset by another dimension; the order dimension instead of the
// open one), the none-open range emitted back to front (emission order inside
// a cell is checked against the cell's stored order), and NaN in the box
// ignored (the box test written so that NaN passes it).
func TestEpsGridAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []string{"symmetric", "asymmetric", "one-sided", "zero-dim0", "zero-dim1", "all-zero", "zero-last", "tiny"}
	sizes := []struct {
		s, t  int
		heavy bool
		only  int // run for this dimensionality only; 0 = for all
	}{{160, 160, false, 0}, {0, 40, false, 0}, {40, 0, false, 0}, {1, 90, false, 0}, {90, 1, false, 0}, {1, 1, false, 0}, {400, 400, true, 0},
		// A T whose origin crowd outweighs the clusters no refinement can
		// split: each step halves the load, and a 4-d grid reaches k = 4.
		{200, 800, true, 4}}
	orderIsLastGridDim := map[bool]bool{}
	built := map[string]bool{}
	for _, d := range []int{1, 2, 3, 4, 5, 8} {
		for _, shape := range shapes {
			for _, size := range sizes {
				if size.only != 0 && size.only != d || shape == "zero-dim1" && d < 2 {
					continue
				}
				band := hostileBand(rng, shape, d)
				s := hostileRelation(rng, "s", size.s, band, size.heavy)
				tt := hostileRelation(rng, "t", size.t, band, size.heavy)
				name := fmt.Sprintf("d=%d/%s/%dx%d", d, shape, size.s, size.t)

				want := make(map[idxPair]bool)
				NestedLoop{}.Join(s, tt, band, func(si, ti int, _, _ []float64) { want[idxPair{si, ti}] = true })
				if size.s >= 160 && shape != "tiny" && len(want) == 0 {
					t.Fatalf("%s: no matching pairs; the inputs do not exercise the join", name)
				}
				if size.heavy {
					var g gridState
					g.build(tt, band)
					if len(g.box) < 3*2*d {
						t.Fatalf("%s: %d dense cells, want the two clusters, the point mass and the origin", name, len(g.box)/(2*d))
					}
					orderIsLastGridDim[g.odim == g.gdim[g.k-1]] = true
					if g.kc < g.k {
						built["kc < k"] = true
					} else if g.kc == d {
						built[fmt.Sprintf("kc = d = %d", d)] = true
					}
					for i := 0; i < s.Len(); i++ {
						for j := 0; j < g.kc; j++ {
							if v := s.KeyAt(i, j); v != v || math.IsInf(v, 0) {
								built[fmt.Sprintf("S key %v on a grid dimension", v)] = true
							}
						}
					}
					recordOpenDimensions(&g, s, built)
					var got []idxPair
					Join(s, tt, band, emitInto(&got))
					checkCellOrder(t, name, &g, got)
				}

				var got []idxPair
				if n := Join(s, tt, band, emitInto(&got)); n != int64(len(got)) {
					t.Fatalf("%s: Join returned %d, emitted %d", name, n, len(got))
				}
				checkExactlyOnce(t, name+"/Join", got, want)
				if n := Join(s, tt, band, nil); n != int64(len(want)) {
					t.Fatalf("%s: Join counted %d pairs, definition has %d", name, n, len(want))
				}
				if tt.Len() == 0 {
					continue
				}
				for _, resolved := range []bool{true, false} {
					grid := gridFor(s, tt, band, resolved)
					for _, step := range []int{1, 7, 1000} {
						got = got[:0]
						var counted int64
						for lo := 0; lo < s.Len(); lo += step {
							grid.ProbeRange(s, lo, min(lo+step, s.Len()), emitInto(&got))
							counted += grid.ProbeRange(s, lo, min(lo+step, s.Len()), nil)
						}
						what := fmt.Sprintf("%s/resolved=%v/ProbeRange step %d", name, resolved, step)
						checkExactlyOnce(t, what, got, want)
						if counted != int64(len(want)) {
							t.Fatalf("%s: counted %d pairs, definition has %d", what, counted, len(want))
						}
					}
				}
			}
		}
	}
	// Both order-dimension rules must have run: a dimension outside the grid,
	// and (k = d) the grid's last.
	if len(orderIsLastGridDim) < 2 {
		t.Fatalf("order dimension chosen by one rule only (last grid dimension: %v)", orderIsLastGridDim)
	}
	for _, c := range []string{"kc < k", "kc = d = 2", "kc = d = 3", "kc = d = 4",
		"S key NaN on a grid dimension", "S key +Inf on a grid dimension", "S key -Inf on a grid dimension"} {
		if !built[c] {
			t.Errorf("no case with %s; the branch-free verification is not exercised there", c)
		}
	}
	for _, c := range []string{"none open", "one open decides, d = 2", "one open decides, k = d = 3", "several open",
		"NaN in the box of a non-empty range"} {
		if !built[c] {
			t.Errorf("no dense cell range with %s; that path of the open-dimension scan is not exercised", c)
		}
	}
}

// recordOpenDimensions walks every S row's dense cells as scanCells does and
// records in built which reports of denseRange come with a non-empty range.
func recordOpenDimensions(g *gridState, s *data.Relation, built map[string]bool) {
	d := g.dims
	for i := 0; i < s.Len(); i++ {
		sk := s.Key(i)
		for _, id := range g.appendCells(nil, sk) {
			lo, hi := int(g.starts[id]), int(g.starts[id+1])
			if hi-lo < g.dense {
				continue
			}
			lo, hi, open := g.denseRange(id, lo, hi, sk)
			if lo == hi {
				continue
			}
			box := g.box[int(g.boxOf[id])*2*d:][:2*d]
			for _, v := range box {
				if v != v {
					built["NaN in the box of a non-empty range"] = true
				}
			}
			switch {
			case open == noneOpen:
				built["none open"] = true
			case open == d:
				built["several open"] = true
			default:
				if open == g.odim {
					panic("denseRange reports the order dimension open")
				}
				in, out := false, false
				for pos := lo; pos < hi; pos++ {
					if g.band.MatchesDim(open, sk[open], g.rows[pos*d+open]) {
						in = true
					} else {
						out = true
					}
				}
				if in && out && d == 2 {
					built["one open decides, d = 2"] = true
				}
				if in && out && d == 3 && g.k == 3 {
					built["one open decides, k = d = 3"] = true
				}
			}
		}
	}
}

// checkCellOrder fails unless the matches of one S row that share a cell were
// emitted in the cell's stored order: input order in a sparse cell,
// order-dimension order in a dense one.
func checkCellOrder(t *testing.T, name string, g *gridState, got []idxPair) {
	t.Helper()
	posOf := make([]int, len(g.perm))
	for pos, ti := range g.perm {
		posOf[ti] = pos
	}
	for n := 1; n < len(got); n++ {
		prev, cur := got[n-1], got[n]
		if prev.s == cur.s && g.cellOf[prev.t] == g.cellOf[cur.t] && posOf[cur.t] <= posOf[prev.t] {
			t.Fatalf("%s: S row %d: T rows %d and %d of one cell emitted against the cell's order", name, cur.s, prev.t, cur.t)
		}
	}
}

// TestGridRefinesOnLoad pins the choice of k: two dimensions while the cells
// are light, more (up to maxGridDims, skipping zero-extent dimensions) while
// they are heavy, and no further once a refinement stops paying.
func TestGridRefinesOnLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uniform := func(d, n int, span float64) *data.Relation {
		r := data.NewRelationCapacity("t", d, n)
		key := make([]float64, d)
		for i := 0; i < n; i++ {
			for j := range key {
				key[j] = rng.Float64() * span
			}
			r.AppendKey(key)
		}
		return r
	}
	point := data.NewRelation("t", 5)
	for i := 0; i < 500; i++ {
		point.Append(1, 1, 1, 1, 1)
	}
	skip := data.Band{Low: []float64{1, 1, 0, 1, 1}, High: []float64{1, 1, 0, 1, 1}}
	cases := []struct {
		name  string
		t     *data.Relation
		band  data.Band
		wantK int
		dims  []int
	}{
		{"sparse 5-d stays at 2", uniform(5, 2000, 1000), data.Uniform(5, 1), 2, []int{0, 1}},
		{"dense 2-d has nowhere to go", uniform(2, 2000, 3), data.Uniform(2, 1), 2, []int{0, 1}},
		{"dense 5-d refines to the cap", uniform(5, 20000, 4), data.Uniform(5, 1), 4, []int{0, 1, 2, 3}},
		{"zero-extent dimension is skipped", uniform(5, 20000, 4), skip, 4, []int{0, 1, 3, 4}},
		{"point mass gives up after one step", point, data.Uniform(5, 1), 3, []int{0, 1, 2}},
	}
	for _, c := range cases {
		var g gridState
		g.build(c.t, c.band)
		if g.k != c.wantK || fmt.Sprint(g.gdim[:g.k]) != fmt.Sprint(c.dims) {
			t.Errorf("%s: grid on dimensions %v, want %v", c.name, g.gdim[:g.k], c.dims)
		}
	}
}

// TestCellCoordDefinedEverywhere: the clamped coordinate is finite, monotone,
// and agrees with floor(x/w) wherever that fits.
func TestCellCoordDefinedEverywhere(t *testing.T) {
	xs := []float64{math.Inf(-1), -math.MaxFloat64, -1e300, -7.5, -1, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.999, 1, 7.5, 1e300, math.MaxFloat64, math.Inf(1)}
	for _, w := range []float64{math.SmallestNonzeroFloat64, 1e-9, 1, 2.5, 1e300} {
		prev := int64(math.MinInt64)
		for _, x := range xs {
			c := cellCoord(x, w)
			if c < -cellLimit || c > cellLimit {
				t.Fatalf("cellCoord(%g, %g) = %d, outside ±cellLimit", x, w, c)
			}
			if c < prev {
				t.Fatalf("cellCoord(%g, %g) = %d, below its predecessor's %d", x, w, c, prev)
			}
			prev = c
			if q := math.Floor(x / w); math.Abs(q) < 1e15 && c != int64(q) {
				t.Fatalf("cellCoord(%g, %g) = %d, want %g", x, w, c, q)
			}
		}
		if c := cellCoord(math.NaN(), w); c != 0 {
			t.Fatalf("cellCoord(NaN, %g) = %d, want 0", w, c)
		}
	}
	// Width 0: an exact key per coordinate, ±0 and NaN on 0, and nothing at
	// the top of the range a walk's increment could overflow from.
	seen := map[int64]float64{}
	for _, x := range xs {
		c := cellCoord(x, 0)
		if prev, ok := seen[c]; ok && prev != x {
			t.Fatalf("cellCoord(%g, 0) = cellCoord(%g, 0) = %d", x, prev, c)
		}
		seen[c] = x
		if c == math.MaxInt64 {
			t.Fatalf("cellCoord(%g, 0) = MaxInt64", x)
		}
	}
	if cellCoord(math.Copysign(0, -1), 0) != 0 || cellCoord(math.NaN(), 0) != 0 {
		t.Fatal("−0 or NaN is not on coordinate 0 at width 0")
	}
}

// TestGridChoiceUnchanged pins what the grid build chooses — k, kc, the grid
// dimensions, their widths and the order dimension — on the bands the
// repository's benchmark runs: the three BenchmarkEpsGridDenseCells inputs and
// a partition-sized input under each workload's band (cold in-process 3-d ε
// 0.03, cold cluster 8-d ε 0.003 over self-match rows, the plan sweep's 8-d ε
// 0.17, the 2-d serving band ε 0.01). The values were recorded from the build
// as it was before it took one-dimensional and zero-width bands over from
// two other kernels; with them, those workloads run the same grid.
func TestGridChoiceUnchanged(t *testing.T) {
	pareto := func(d int, eps float64) func() (*data.Relation, *data.Relation, data.Band) {
		return func() (*data.Relation, *data.Relation, data.Band) {
			s, t := data.ParetoPair(d, 1.5, 20_000, 1)
			return s, t, data.Uniform(d, eps)
		}
	}
	cases := []struct {
		name   string
		inputs func() (*data.Relation, *data.Relation, data.Band)
		want   string
	}{
		{"dense2d", func() (*data.Relation, *data.Relation, data.Band) { return denseCellInputs(100_000) },
			"k=2 kc=2 gdim=[0 1] w=[0.02 0.02] odim=1"},
		{"sparse3d", func() (*data.Relation, *data.Relation, data.Band) { return refinedCellInputs(100_000) },
			"k=3 kc=3 gdim=[0 1 2] w=[0.045 0.045 0.045] odim=2"},
		{"sparse8d", func() (*data.Relation, *data.Relation, data.Band) { return sparseCellInputs(100_000) },
			"k=2 kc=2 gdim=[0 1] w=[0.02 0.02] odim=2"},
		{"cold-inproc 3-d 0.03", pareto(3, 0.03), "k=3 kc=3 gdim=[0 1 2] w=[0.03 0.03 0.03] odim=2"},
		{"cold-cluster 8-d 0.003", func() (*data.Relation, *data.Relation, data.Band) {
			s, t, _ := sparseCellInputs(20_000)
			return s, t, data.Uniform(8, 0.003)
		}, "k=2 kc=2 gdim=[0 1] w=[0.003 0.003] odim=2"},
		{"plan-sweep 8-d 0.17", pareto(8, 0.17), "k=4 kc=4 gdim=[0 1 2 3] w=[0.17 0.17 0.17 0.17] odim=4"},
		{"serve 2-d 0.01", pareto(2, 0.01), "k=2 kc=2 gdim=[0 1] w=[0.01 0.01] odim=1"},
	}
	for _, c := range cases {
		_, tt, band := c.inputs()
		var g gridState
		g.build(tt, band)
		got := fmt.Sprintf("k=%d kc=%d gdim=%v w=%v odim=%d", g.k, g.kc, g.gdim[:g.k], g.w[:g.k], g.odim)
		if got != c.want {
			t.Errorf("%s: the grid chose %s, want %s", c.name, got, c.want)
		}
	}
}

// fuzzKeys are the values FuzzEpsGridDefinition quantises keys onto: few
// enough that cells fill up and turn dense, on and next to the interval ends
// the fuzzBandWidths give, plus the non-finite ones.
var fuzzKeys = [16]float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, 1.5, 2, 3, -0.5, -1,
	math.Nextafter(1, 2), math.Nextafter(1, 0), math.NaN(), math.Inf(1), math.Inf(-1), 1e300}

var fuzzBandWidths = [4]float64{0, 0.5, 1, 2}

// FuzzEpsGridDefinition lets the fuzzer pick the dimensionality, the band (two
// bits per dimension and side: zero-width, one-sided and asymmetric included)
// and the keys (one byte per coordinate, even rows to S, odd rows to T), and
// compares the grid — Join emitting and counting, ProbeRange over grids with
// and without resolved S cell lists, built whatever the sizes — with the
// nested loop as a pair set.
func FuzzEpsGridDefinition(f *testing.F) {
	f.Fuzz(func(t *testing.T, dims uint8, lows, highs uint16, raw []byte) {
		d := 1 + int(dims%5)
		low, high := make([]float64, d), make([]float64, d)
		for j := range low {
			low[j] = fuzzBandWidths[lows>>(2*j)&3]
			high[j] = fuzzBandWidths[highs>>(2*j)&3]
		}
		band := data.Asymmetric(low, high)
		raw = raw[:min(len(raw), 600*d)]
		s, tt := data.NewRelation("s", d), data.NewRelation("t", d)
		key := make([]float64, d)
		for row := 0; (row+1)*d <= len(raw); row++ {
			for j := range key {
				key[j] = fuzzKeys[raw[row*d+j]%16]
			}
			if row%2 == 0 {
				s.AppendKey(key)
			} else {
				tt.AppendKey(key)
			}
		}
		want := make(map[idxPair]bool)
		NestedLoop{}.Join(s, tt, band, func(si, ti int, _, _ []float64) { want[idxPair{si, ti}] = true })

		var got []idxPair
		Join(s, tt, band, emitInto(&got))
		checkExactlyOnce(t, "Join", got, want)
		if n := Join(s, tt, band, nil); n != int64(len(want)) {
			t.Fatalf("Join counted %d pairs, definition has %d", n, len(want))
		}
		if tt.Len() == 0 {
			return
		}
		for _, resolved := range []bool{true, false} {
			grid := gridFor(s, tt, band, resolved)
			got = got[:0]
			half := s.Len() / 2
			grid.ProbeRange(s, 0, half, emitInto(&got))
			grid.ProbeRange(s, half, s.Len(), emitInto(&got))
			checkExactlyOnce(t, fmt.Sprintf("ProbeRange, resolved=%v", resolved), got, want)
			if n := grid.Probe(s, nil); n != int64(len(want)) {
				t.Fatalf("Probe (resolved=%v) counted %d pairs, definition has %d", resolved, n, len(want))
			}
		}
	})
}

// gridFor builds the grid over t (non-empty) for band whatever the sides'
// sizes — Prepare leaves partitions of up to nestedLoopMax rows to the nested
// loop — with S's cell lists resolved, as Prepare does, or not, as PrepareOnce
// does.
func gridFor(s, t *data.Relation, band data.Band, resolve bool) *EpsGrid {
	p := &EpsGrid{}
	p.g.build(t, band)
	if resolve {
		p.resolveCells(s, 1)
	}
	return p
}
