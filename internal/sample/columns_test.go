package sample

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

// checkColumns fails unless c is the view of r: every column the transposed
// values, every order a permutation sorted by value with ties by row index.
func checkColumns(t *testing.T, name string, c *Columns, r *data.Relation) {
	t.Helper()
	if n := len(c.Col(0)); n != r.Len() {
		t.Fatalf("%s: view of %d rows for a relation of %d", name, n, r.Len())
	}
	for d := 0; d < r.Dims(); d++ {
		col, order := c.Col(d), c.Order(d)
		for i, v := range col {
			if math.Float64bits(v) != math.Float64bits(r.KeyAt(i, d)) {
				t.Fatalf("%s: column %d row %d = %v, relation has %v", name, d, i, v, r.KeyAt(i, d))
			}
		}
		want := make([]int32, r.Len())
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			switch {
			case col[a] < col[b]:
				return -1
			case col[a] > col[b]:
				return 1
			}
			return 0
		})
		if !slices.Equal(order, want) {
			t.Fatalf("%s: order of dimension %d is not the stable argsort", name, d)
		}
	}
}

func TestColumnsAreTheStableArgsort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ties := data.NewRelation("ties", 3)
	for i := 0; i < 3000; i++ {
		// Few distinct values, both signs, far apart exponents.
		ties.Append(float64(rng.Intn(7)-3), math.Ldexp(float64(rng.Intn(5)-2), rng.Intn(40)-20), rng.NormFloat64())
	}
	pareto, _ := data.ParetoPair(8, 1.5, 2000, 3)
	var reused Columns
	for _, r := range []*data.Relation{ties, pareto, data.NewRelation("empty", 2), ties.Slice("one", 7, 8)} {
		checkColumns(t, r.Name()+"/fresh", NewColumns(r), r)
		reused.Build(r) // storage of the previous, differently shaped build
		checkColumns(t, r.Name()+"/reused", &reused, r)
	}
}

// forBandCase is one drawn input sample and a band to derive a Sample for.
type forBandCase struct {
	name string
	in   *InputSample
	band data.Band
}

// forBandCases are the inputs of TestForBandGolden with their bands, plus one
// band that takes the sorted-scan fallback (equi-join on dimension 0), whose
// probe domain — sorted S positions — is split into ranges like any other.
func forBandCases(t *testing.T) []forBandCase {
	pareto8S, pareto8T := data.ParetoPair(8, 1.5, 40000, 11)
	pointS, pointT := goldenPointMass2D()
	quantS, quantT := goldenQuantized3D()
	draw := func(s, tt *data.Relation, opts Options) *InputSample {
		in, err := DrawInputs(s, tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	quant := draw(quantS, quantT, Options{InputSampleSize: 8000, OutputSampleSize: 4000, Seed: 7})
	return []forBandCase{
		{"pareto-8d", draw(pareto8S, pareto8T, Options{InputSampleSize: 16000, OutputSampleSize: 4000, Seed: 7}), data.Uniform(8, 0.25)},
		{"point-mass-2d", draw(pointS, pointT, Options{InputSampleSize: 6000, OutputSampleSize: 500, Seed: 7}), data.Uniform(2, 0.05)},
		{"quantized-3d-ties", quant, data.Asymmetric([]float64{0.004, 0.03, 0.05}, []float64{0.006, 0.05, 0.03})},
		{"quantized-3d-equi", quant, data.Asymmetric([]float64{0, 0.03, 0.05}, []float64{0, 0.05, 0.03})},
	}
}

// TestForBandIndependentOfGOMAXPROCS: the sample join probes S ranges on
// GOMAXPROCS goroutines; how many there are, and how the ranges fall to them,
// must not show in the sample. The inputs are drawn afresh at each width, so
// every sample there is joined at that width, none filtered from a rung list
// joined at another.
func TestForBandIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []uint64
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		inputs := forBandCases(t)
		if want == nil {
			want = make([]uint64, len(inputs))
		}
		for i, c := range inputs {
			smp, err := c.in.ForBand(c.band)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if smp.OutS.Len() == 0 {
				t.Fatalf("%s: empty output sample pins nothing", c.name)
			}
			if got := hashSample(smp); procs == 1 {
				want[i] = got
			} else if got != want[i] {
				t.Errorf("%s: hash %#x under GOMAXPROCS=%d, %#x under 1", c.name, got, procs, want[i])
			}
		}
	}
}

// TestForBandConcurrentOnOneInputSample derives samples for several bands at
// once from one fresh InputSample and asks each for the shared columns: the
// goroutines race on the first band asked and on the first and later asks of
// each rung (the bands come in threes under one rung). The results are those
// of a fresh Draw per band, every Sample sees the same views, and the race
// detector sees no conflicting access.
func TestForBandConcurrentOnOneInputSample(t *testing.T) {
	s, tt := data.ParetoPair(3, 1.5, 20000, 9)
	opts := Options{InputSampleSize: 6000, OutputSampleSize: 1000, Seed: 3}
	in, err := DrawInputs(s, tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	bands := make([]data.Band, 6)
	want := make([]uint64, len(bands))
	for i := range bands {
		bands[i] = data.Uniform(3, []float64{0.05, 0.06}[i/3]+0.001*float64(i%3))
		smp, err := Draw(s, tt, bands[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = hashSample(smp)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(bands))
	views := make([][2]*Columns, 2*len(bands))
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(bands)
			smp, err := in.ForBand(bands[i])
			if err != nil {
				errs <- err
				return
			}
			if got := hashSample(smp); got != want[i] {
				errs <- fmt.Errorf("band %d: hash %#x concurrently, %#x alone", i, got, want[i])
			}
			views[g][0], views[g][1] = smp.InputColumns()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for g := range views {
		if views[g] != views[0] {
			t.Fatalf("goroutine %d got its own columns; the InputSample's are shared", g)
		}
	}
	checkColumns(t, "S", views[0][0], in.S)
	checkColumns(t, "T", views[0][1], in.T)
}

// TestMergeDropsColumns: the views, T's rank and the rungs' pair lists belong
// to one InputSample's rows. Merge returns a new InputSample whose rows
// differ, so it must come without them and build its own on demand, and the
// receiver's must stay as they were.
func TestMergeDropsColumns(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.5, 5000, 13)
	in, err := DrawInputs(s, tt, Options{InputSampleSize: 1000, OutputSampleSize: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	oldS, oldT := in.columns()
	// A first and a second band: the rank is built and a rung list kept.
	for _, eps := range []float64{0.05, 0.051} {
		if _, err := in.ForBand(data.Uniform(2, eps)); err != nil {
			t.Fatal(err)
		}
	}
	oldOrder, _ := in.dim0()
	if held, _ := rungCounts(in); held == 0 {
		t.Fatal("the second band kept no rung list")
	}
	deltaS, deltaT := data.ParetoPair(2, 1.5, 4000, 14)
	merged, err := in.Merge(deltaS, deltaT)
	if err != nil {
		t.Fatal(err)
	}
	if merged.sCols != nil || merged.tCols != nil {
		t.Fatal("Merge carried the columns of the sample it merged from")
	}
	if merged.tOrder != nil || merged.tRank != nil || merged.rungs != nil || merged.asked || merged.held != 0 {
		t.Fatal("Merge carried the rank or the rung lists of the sample it merged from")
	}
	smp, err := merged.ForBand(data.Uniform(2, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if newOrder, _ := merged.dim0(); &newOrder[0] == &oldOrder[0] || !slices.Equal(newOrder, localjoin.Dim0Order(merged.T)) {
		t.Fatal("the merged sample's rank is not the order of its own T rows")
	}
	if held, _ := rungCounts(in); held == 0 {
		t.Fatal("the receiver lost its rung list")
	}
	if merged.sCols != nil {
		t.Fatal("ForBand built the columns; only a plan that reads them should")
	}
	newS, newT := smp.InputColumns()
	if newS == oldS || newT == oldT {
		t.Fatal("the merged sample reuses the columns of the sample it merged from")
	}
	checkColumns(t, "merged S", newS, merged.S)
	checkColumns(t, "merged T", newT, merged.T)
	checkColumns(t, "receiver S", oldS, in.S)
	checkColumns(t, "receiver T", oldT, in.T)

	// A Sample assembled by hand has no InputSample; it gets views of its own.
	hand := &Sample{Band: smp.Band, S: smp.S, T: smp.T}
	handS, handT := hand.InputColumns()
	checkColumns(t, "hand-built S", handS, hand.S)
	checkColumns(t, "hand-built T", handT, hand.T)
}
