package bandjoin_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bandjoin"
	"bandjoin/internal/csio"
	"bandjoin/internal/grid"
	"bandjoin/internal/iejoin"
)

func TestJoinWithDefaults(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 2000, 1)
	res, err := bandjoin.Join(s, tt, bandjoin.Uniform(2, 0.05), bandjoin.Options{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioner != "RecPart" {
		t.Errorf("default partitioner = %q, want RecPart", res.Partitioner)
	}
	if res.Output == 0 {
		t.Error("join produced no results")
	}
	if res.TotalInput < int64(s.Len()+tt.Len()) {
		t.Error("total input below |S|+|T|")
	}
}

func TestJoinValidatesArguments(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 200, 1)
	if _, err := bandjoin.Join(nil, tt, bandjoin.Uniform(2, 1), bandjoin.Options{}); err == nil {
		t.Error("nil S accepted")
	}
	if _, err := bandjoin.Join(s, tt, bandjoin.Uniform(3, 1), bandjoin.Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := bandjoin.Join(s, tt, bandjoin.Symmetric(-1, 1), bandjoin.Options{}); err == nil {
		t.Error("negative band width accepted")
	}
}

func TestAllPublicPartitionersAgreeOnCardinality(t *testing.T) {
	s, tt := bandjoin.Pareto(2, 1.5, 1500, 3)
	band := bandjoin.Uniform(2, 0.05)
	var want int64 = -1
	for _, p := range []struct {
		name string
		pt   bandjoin.Partitioner
	}{
		{"RecPart", bandjoin.RecPart()},
		{"RecPart-S", bandjoin.RecPartS()},
		{"RecPartWith", bandjoin.RecPartWith(bandjoin.RecPartOptions{Symmetric: true, Theoretical: true, Seed: 2})},
		{"OneBucket", bandjoin.OneBucket()},
		{"GridEps", bandjoin.GridEps()},
		{"GridEpsX4", grid.NewWithMultiplier(4)},
		{"GridStar", bandjoin.GridStar()},
		{"CSIO", bandjoin.CSIO()},
		{"CSIO-32", csio.NewWithGranularity(32)},
		{"IEJoin", bandjoin.IEJoin()},
		{"IEJoin-500", iejoin.NewWithBlockSize(500)},
	} {
		res, err := bandjoin.Join(s, tt, band, bandjoin.Options{Workers: 5, Partitioner: p.pt, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if want == -1 {
			want = res.Output
			continue
		}
		if res.Output != want {
			t.Errorf("%s produced %d results, others produced %d", p.name, res.Output, want)
		}
	}
	if want <= 0 {
		t.Fatal("workload produced no results")
	}
}

func TestCountAndEstimateOnly(t *testing.T) {
	s, tt := bandjoin.Pareto(1, 1.5, 3000, 5)
	band := bandjoin.Symmetric(0.01)
	n, err := bandjoin.Count(s, tt, band, bandjoin.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("Count returned 0")
	}
	est, err := bandjoin.Join(s, tt, band, bandjoin.Options{Workers: 4, EstimateOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.TotalInput == 0 {
		t.Error("estimate-only run reports no input")
	}
	ratio := float64(est.Output) / float64(n)
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("estimated output %d far from exact %d", est.Output, n)
	}
}

// bandShapes are the band shapes the local ε-grid took over from two deleted
// kernels — one dimension, a zero width on dimension 0, an equi-join on every
// dimension — over Pareto keys, floored onto integers wherever a width is
// zero, so that there are pairs to find.
func bandShapes(n int, seed int64) map[string]struct {
	s, t *bandjoin.Relation
	band bandjoin.Band
} {
	lattice := func(d, latticeDims int, scale float64) (*bandjoin.Relation, *bandjoin.Relation) {
		s, t := bandjoin.Pareto(d, 1.5, n, seed)
		for _, r := range []*bandjoin.Relation{s, t} {
			for i := 0; i < r.Len(); i++ {
				for j := 0; j < latticeDims; j++ {
					r.Key(i)[j] = math.Floor(scale * r.Key(i)[j])
				}
			}
		}
		return s, t
	}
	s1, t1 := bandjoin.Pareto(1, 1.5, n, seed)
	s3, t3 := lattice(3, 1, 4)
	s2, t2 := lattice(2, 2, 2)
	return map[string]struct {
		s, t *bandjoin.Relation
		band bandjoin.Band
	}{
		"1d":        {s1, t1, bandjoin.Symmetric(0.01)},
		"zero-dim0": {s3, t3, bandjoin.Symmetric(0, 0.3, 0.3)},
		"all-zero":  {s2, t2, bandjoin.Symmetric(0, 0)},
	}
}

// TestLocalAlgorithmSelection: a partition joins through the nested loop when
// a side has at most 32 rows and through the ε-grid otherwise. On every band
// shape, 60 workers (small partitions) and 2 (large ones) both give the
// definition's pairs.
func TestLocalAlgorithmSelection(t *testing.T) {
	for shape, in := range bandShapes(1000, 7) {
		want := definitionPairs(in.s, in.t, in.band)
		if len(want) == 0 {
			t.Fatalf("%s: the definition has no pairs; the inputs exercise nothing", shape)
		}
		for _, workers := range []int{60, 2} {
			res, err := bandjoin.Join(in.s, in.t, in.band, bandjoin.Options{Workers: workers, CollectPairs: true})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", shape, workers, err)
			}
			pairsEqual(t, fmt.Sprintf("%s, %d workers: join vs nested loop", shape, workers), res.Pairs, want)
		}
	}
}

func TestRelationBuildingAndCSV(t *testing.T) {
	r := bandjoin.NewRelation("emp", 1)
	r.Append(100)
	r.Append(200)
	if r.Len() != 2 || r.Dims() != 1 {
		t.Error("relation building broken")
	}
	rel, err := bandjoin.ReadCSV("x", strings.NewReader("A1,A2\n1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 || rel.Dims() != 2 {
		t.Error("ReadCSV shape wrong")
	}
}

func TestGeneratorsExposed(t *testing.T) {
	s, tt := bandjoin.ReversePareto(2, 1.5, 100, 1)
	if s.Len() != 100 || tt.Len() != 100 {
		t.Error("ReversePareto sizes wrong")
	}
	s, tt = bandjoin.EBirdCloud(50, 60, 1)
	if s.Len() != 50 || tt.Len() != 60 {
		t.Error("EBirdCloud sizes wrong")
	}
	s, tt = bandjoin.PTF(80, 1)
	if s.Len() != 80 || tt.Len() != 80 {
		t.Error("PTF sizes wrong")
	}
	u := bandjoin.UniformRelation("u", 40, []float64{0}, []float64{1}, 1)
	if u.Len() != 40 {
		t.Error("UniformRelation size wrong")
	}
}

func TestCostModelHelpers(t *testing.T) {
	m := bandjoin.DefaultCostModel()
	if m.Beta2 <= 0 {
		t.Error("default cost model has no input weight")
	}
	if testing.Short() {
		return
	}
	cal, err := bandjoin.CalibrateCostModel()
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Validate(); err != nil {
		t.Errorf("calibrated model invalid: %v", err)
	}
}

func TestLocalClusterJoin(t *testing.T) {
	cl, err := bandjoin.StartLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Workers() != 3 {
		t.Fatalf("Workers = %d", cl.Workers())
	}
	s, tt := bandjoin.Pareto(2, 1.5, 1200, 9)
	band := bandjoin.Uniform(2, 0.05)
	dist, err := cl.Join(s, tt, band, bandjoin.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	local, err := bandjoin.Join(s, tt, band, bandjoin.Options{Workers: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Output != local.Output {
		t.Errorf("distributed output %d differs from simulated %d", dist.Output, local.Output)
	}
	if _, err := cl.Join(nil, tt, band, bandjoin.Options{}); err == nil {
		t.Error("nil relation accepted by cluster join")
	}
	if _, err := bandjoin.ConnectCluster(nil); err == nil {
		t.Error("ConnectCluster accepted an empty address list")
	}
}

func TestAsymmetricPublicAPI(t *testing.T) {
	s := bandjoin.NewRelation("s", 1)
	s.Append(10)
	tt := bandjoin.NewRelation("t", 1)
	for _, v := range []float64{7.9, 8, 11, 11.1} {
		tt.Append(v)
	}
	res, err := bandjoin.Join(s, tt, bandjoin.Asymmetric([]float64{2}, []float64{1}), bandjoin.Options{Workers: 2, CollectPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != 2 {
		t.Errorf("asymmetric join output = %d, want 2", res.Output)
	}
	if len(res.Pairs) != 2 {
		t.Errorf("CollectPairs returned %d pairs", len(res.Pairs))
	}
}

// TestOptionsSurface pins the exported fields of the three option structs, so
// that a new knob is a deliberate diff here: each one multiplies the
// configurations the tests and the benchmark have to cover.
func TestOptionsSurface(t *testing.T) {
	for _, c := range []struct {
		opts any
		want []string
	}{
		{bandjoin.Options{}, []string{
			"Workers", "Partitioner", "Model", "InputSampleSize", "OutputSampleSize",
			"CollectPairs", "EstimateOnly", "MorselRows", "Seed"}},
		{bandjoin.RecPartOptions{}, []string{"Symmetric", "Theoretical", "MaxIterations", "Seed"}},
		{bandjoin.EngineOptions{}, []string{"DisableRetention"}},
	} {
		typ := reflect.TypeOf(c.opts)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v has fields\n%v, pinned are\n%v", typ, got, c.want)
		}
	}
}
