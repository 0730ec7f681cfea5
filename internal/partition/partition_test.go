package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/sample"
)

func testContext(t *testing.T, workers int) *Context {
	t.Helper()
	s, tt := data.ParetoPair(2, 1.5, 800, 1)
	band := data.Symmetric(0.1, 0.1)
	smp, err := sample.Draw(s, tt, band, sample.Options{InputSampleSize: 300, OutputSampleSize: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &Context{Band: band, Workers: workers, Sample: smp, Model: costmodel.Default(), Seed: 1}
}

func TestContextValidate(t *testing.T) {
	ctx := testContext(t, 4)
	if err := ctx.Validate(); err != nil {
		t.Errorf("valid context rejected: %v", err)
	}
	if err := (*Context)(nil).Validate(); err == nil {
		t.Error("nil context accepted")
	}
	bad := *ctx
	bad.Workers = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero workers accepted")
	}
	bad = *ctx
	bad.Sample = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing sample accepted")
	}
	bad = *ctx
	bad.Model = costmodel.Model{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid model accepted")
	}
	bad = *ctx
	bad.Band = data.Band{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid band accepted")
	}
}

func TestLPTBalancesLoads(t *testing.T) {
	loads := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	sched := LPT(loads, 3)
	if len(sched) != len(loads) {
		t.Fatalf("schedule length %d", len(sched))
	}
	total := 0.0
	for _, l := range workerLoads(sched, loads, 3) {
		total += l
	}
	if total != 55 {
		t.Errorf("total load %g, want 55", total)
	}
	// LPT is within 4/3 of optimal; the optimum here is ceil(55/3) ≈ 19.
	if maxLoad := maxWorkerLoad(sched, loads, 3); maxLoad > 4.0/3.0*19+1e-9 {
		t.Errorf("LPT max load %g exceeds the 4/3 bound", maxLoad)
	}
}

// workerLoads sums per-partition loads into per-worker loads under sched.
func workerLoads(sched Schedule, loads []float64, workers int) []float64 {
	out := make([]float64, workers)
	for p, w := range sched {
		out[w] += loads[p]
	}
	return out
}

func maxWorkerLoad(sched Schedule, loads []float64, workers int) float64 {
	return slices.Max(workerLoads(sched, loads, workers))
}

// TestLPTNeverWorseThanRoundRobin is a property test of the scheduler.
func TestLPTNeverWorseThanRoundRobin(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		loads := make([]float64, len(raw))
		for i, v := range raw {
			loads[i] = math.Abs(math.Mod(v, 1000))
		}
		workers := 4
		rr := make(Schedule, len(loads))
		for i := range rr {
			rr[i] = i % workers
		}
		return maxWorkerLoad(LPT(loads, workers), loads, workers) <= maxWorkerLoad(rr, loads, workers)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// fixedPlacer is a placing plan; Place calls nothing of it but PlaceWorker.
type fixedPlacer struct{ Plan }

func (f fixedPlacer) PlaceWorker(p, w int) int {
	if p%2 == 0 {
		return 0
	}
	return w + 5 // deliberately out of range to exercise the fallback
}

func TestPlaceFallsBackOnBadWorker(t *testing.T) {
	place := Place(fixedPlacer{}, 3, func() []float64 { t.Fatal("a placer plan's loads were computed"); return nil })
	for p := 0; p < 10; p++ {
		w := place(p)
		if w < 0 || w >= 3 {
			t.Fatalf("partition %d placed on invalid worker %d", p, w)
		}
		if p%2 == 0 && w != 0 {
			t.Errorf("partition %d ignored the placer", p)
		}
	}
	// A plan without a placer is placed by LPT over its loads, and a
	// partition past them by the same hash.
	loads := []float64{5, 1, 4, 2}
	sched := LPT(loads, 3)
	place = Place(nil, 3, func() []float64 { return loads })
	for p := range loads {
		if place(p) != sched[p] {
			t.Errorf("partition %d placed on %d, LPT says %d", p, place(p), sched[p])
		}
	}
	if w := place(7); w != int(hash64(7)%3) {
		t.Errorf("partition past the loads placed on %d, want its hash's %d", w, hash64(7)%3)
	}
}

func TestHashIDDeterministicAndSpread(t *testing.T) {
	if HashID(42, 7) != HashID(42, 7) {
		t.Error("HashID is not deterministic")
	}
	if HashID(42, 7) == HashID(43, 7) && HashID(44, 7) == HashID(45, 7) {
		t.Error("HashID collides suspiciously")
	}
	buckets := make(map[uint64]int)
	for i := int64(0); i < 1000; i++ {
		buckets[HashID(i, 1)%10]++
	}
	for b, n := range buckets {
		if n < 50 || n > 200 {
			t.Errorf("hash bucket %d holds %d of 1000 ids; distribution is skewed", b, n)
		}
	}
}
