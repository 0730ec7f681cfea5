package costmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModelPredictAndLoad(t *testing.T) {
	m := Model{Beta0: 1, Beta1: 2, Beta2: 3, Beta3: 4}
	if got := m.Predict(10, 5, 2); got != 1+20+15+8 {
		t.Errorf("Predict = %g", got)
	}
	if got := m.Load(5, 2); got != 15+8 {
		t.Errorf("Load = %g", got)
	}
}

func TestLowerBoundLoad(t *testing.T) {
	m := Default()
	lb := m.LowerBoundLoad(3000, 900, 30)
	want := (m.Beta2*3000 + m.Beta3*900) / 30
	if math.Abs(lb-want) > 1e-15 {
		t.Errorf("LowerBoundLoad = %g, want %g", lb, want)
	}
	if !math.IsInf(m.LowerBoundLoad(1, 1, 0), 1) {
		t.Error("zero workers should give an infinite bound")
	}
}

func TestModelValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	if err := (Model{Beta2: -1}).Validate(); err == nil {
		t.Error("negative β2 accepted")
	}
	if err := (Model{Beta2: math.NaN()}).Validate(); err == nil {
		t.Error("NaN coefficient accepted")
	}
	if err := (Model{Beta2: 1, Beta3: -1}).Validate(); err == nil {
		t.Error("negative β3 accepted")
	}
}

func TestModelRatioHelpers(t *testing.T) {
	m := Default()
	m3 := m.WithShuffleWeight(100)
	if math.Abs(m3.Beta2/m3.Beta1-100) > 1e-9 {
		t.Errorf("WithShuffleWeight: β2/β1 = %g", m3.Beta2/m3.Beta1)
	}
	m4 := m.WithShuffleWeight(0)
	if m4.Beta1 != 0 {
		t.Error("non-positive ratio should zero β1")
	}
	if m.String() == "" {
		t.Error("String() empty")
	}
}

func TestLeastSquaresRecoversKnownCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	true3 := []float64{2.5, -1.0, 0.5}
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		row := []float64{1, rng.Float64() * 10, rng.Float64() * 5}
		x = append(x, row)
		y = append(y, true3[0]*row[0]+true3[1]*row[1]+true3[2]*row[2])
	}
	got, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range true3 {
		if math.Abs(got[i]-true3[i]) > 1e-6 {
			t.Errorf("coefficient %d = %g, want %g", i, got[i], true3[i])
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := LeastSquares([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows accepted")
	}
	// Perfectly collinear columns are singular.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if _, err := LeastSquares(x, []float64{1, 2, 3}); err == nil {
		t.Error("singular design matrix accepted")
	}
}

func TestNonNegativeLeastSquares(t *testing.T) {
	// The true relationship has a negative coefficient; NNLS must clamp it.
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b})
		y = append(y, 3*a-0.5*b)
	}
	got, err := NonNegativeLeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v < 0 {
			t.Errorf("coefficient %d = %g is negative", i, v)
		}
	}
	if got[0] < 1 {
		t.Errorf("dominant positive coefficient lost: %v", got)
	}
}

func TestRSquared(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if r := RSquared(y, y); r != 1 {
		t.Errorf("perfect fit R² = %g", r)
	}
	if r := RSquared(y, []float64{2.5, 2.5, 2.5, 2.5}); r > 1e-9 {
		t.Errorf("mean predictor R² = %g, want 0", r)
	}
	if !math.IsNaN(RSquared(nil, nil)) {
		t.Error("empty input should give NaN")
	}
}

// TestPredictMonotonic is a property test: predictions never decrease when
// any of the inputs grows (all coefficients are non-negative).
func TestPredictMonotonic(t *testing.T) {
	m := Default()
	f := func(i, im, om, di, dim, dom float64) bool {
		i, im, om = math.Abs(i), math.Abs(im), math.Abs(om)
		di, dim, dom = math.Abs(di), math.Abs(dim), math.Abs(dom)
		return m.Predict(i+di, im+dim, om+dom) >= m.Predict(i, im, om)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
}

func TestCalibrateProducesUsableModel(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs timed joins")
	}
	opts := DefaultCalibration()
	opts.Queries = 12
	opts.MaxInput = 6000
	res, err := Calibrate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Model.Validate(); err != nil {
		t.Errorf("calibrated model invalid: %v", err)
	}
	if len(res.Observations) != 12 {
		t.Errorf("expected 12 observations, got %d", len(res.Observations))
	}
	if res.Model.Beta1 < 0 {
		t.Errorf("negative shuffle coefficient: %g", res.Model.Beta1)
	}
}

func TestCalibrateDefaultsOnZeroOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs timed joins")
	}
	res, err := Calibrate(CalibrationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Beta2 <= 0 {
		t.Errorf("calibration produced non-positive β2: %+v", res.Model)
	}
}
