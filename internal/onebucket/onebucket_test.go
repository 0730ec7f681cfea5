package onebucket

import (
	"testing"

	"bandjoin/internal/costmodel"
	"bandjoin/internal/data"
	"bandjoin/internal/partition"
	"bandjoin/internal/sample"
)

func testContext(t *testing.T, workers, n int) *partition.Context {
	t.Helper()
	s, tt := data.ParetoPair(2, 1.5, n, 1)
	band := data.Symmetric(0.1, 0.1)
	smp, err := sample.Draw(s, tt, band, sample.Options{InputSampleSize: 400, OutputSampleSize: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &partition.Context{Band: band, Workers: workers, Sample: smp, Model: costmodel.Default(), Seed: 3}
}

func TestChooseGrid(t *testing.T) {
	// Equal-sized inputs: the cover should be as square as possible.
	r, c := ChooseGrid(16, 1000, 1000)
	if r*c > 16 || r*c < 12 {
		t.Errorf("ChooseGrid(16) = %dx%d uses %d regions", r, c, r*c)
	}
	if r != 4 || c != 4 {
		t.Errorf("ChooseGrid with equal inputs should be square, got %dx%d", r, c)
	}
	// A much larger T should get more rows (T is replicated r times).
	r2, c2 := ChooseGrid(16, 1000, 100000)
	if r2 > c2 {
		t.Errorf("with |T| >> |S| the cover should favor few rows, got %dx%d", r2, c2)
	}
	if r0, c0 := ChooseGrid(0, 10, 10); r0 != 1 || c0 != 1 {
		t.Errorf("ChooseGrid(0) = %dx%d", r0, c0)
	}
}

func TestPlanAssignmentStructure(t *testing.T) {
	ctx := testContext(t, 12, 2000)
	plan, err := New().Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.(*Plan)
	if p.rows*p.cols != plan.NumPartitions() {
		t.Fatalf("partitions %d != rows*cols %d", plan.NumPartitions(), p.rows*p.cols)
	}
	if plan.NumPartitions() > 12 {
		t.Errorf("1-Bucket uses %d regions for 12 workers", plan.NumPartitions())
	}
	key := []float64{1, 1}
	sParts := plan.AssignS(7, key, nil)
	tParts := plan.AssignT(7, key, nil)
	if len(sParts) != p.cols {
		t.Errorf("S tuple copied to %d regions, want one full row of %d", len(sParts), p.cols)
	}
	if len(tParts) != p.rows {
		t.Errorf("T tuple copied to %d regions, want one full column of %d", len(tParts), p.rows)
	}
	// Exactly one region in common: the row/column intersection.
	common := 0
	for _, a := range sParts {
		for _, b := range tParts {
			if a == b {
				common++
			}
		}
	}
	if common != 1 {
		t.Errorf("row and column intersect in %d regions, want 1", common)
	}
}

func TestAssignmentIsDeterministicPerID(t *testing.T) {
	ctx := testContext(t, 9, 1000)
	plan, err := New().Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	key := []float64{2, 3}
	a := plan.AssignS(42, key, nil)
	b := plan.AssignS(42, key, nil)
	if len(a) != len(b) {
		t.Fatal("assignment changed between calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("assignment changed between calls")
		}
	}
}

func TestRowsSpreadAcrossIDs(t *testing.T) {
	ctx := testContext(t, 25, 1000)
	plan, err := New().Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.(*Plan)
	rows := make(map[int]int)
	for id := int64(0); id < 1000; id++ {
		parts := plan.AssignS(id, []float64{1, 1}, nil)
		rows[parts[0]/p.cols]++
	}
	if len(rows) != p.rows {
		t.Errorf("random row assignment used %d of %d rows", len(rows), p.rows)
	}
	for r, n := range rows {
		if n < 1000/p.rows/3 {
			t.Errorf("row %d received only %d of 1000 tuples", r, n)
		}
	}
}

func TestExplicitGridRespected(t *testing.T) {
	ctx := testContext(t, 10, 500)
	plan, err := (&OneBucket{Rows: 2, Cols: 3}).Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumPartitions() != 6 {
		t.Errorf("explicit 2x3 grid produced %d partitions", plan.NumPartitions())
	}
}

func TestPlanRejectsInvalidContext(t *testing.T) {
	if _, err := New().Plan(&partition.Context{}); err == nil {
		t.Error("invalid context accepted")
	}
}
