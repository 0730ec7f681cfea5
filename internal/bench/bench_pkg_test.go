package bench

import (
	"bytes"
	"strings"
	"testing"

	"bandjoin/internal/data"
	"bandjoin/internal/localjoin"
)

func TestByID(t *testing.T) {
	for _, e := range All() {
		got, ok := ByID(e.ID)
		if !ok || got.ID != e.ID {
			t.Errorf("ByID(%q) not found", e.ID)
		}
	}
	if _, ok := ByID("no-such-table"); ok {
		t.Error("ByID returned an unknown experiment")
	}
}

func TestConfigTuples(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.tuples(200); got != cfg.BaseTuples {
		t.Errorf("tuples(200) = %d, want BaseTuples %d", got, cfg.BaseTuples)
	}
	if got := cfg.tuples(400); got != 2*cfg.BaseTuples {
		t.Errorf("tuples(400) = %d, want %d", got, 2*cfg.BaseTuples)
	}
	if got := cfg.tuples(0.001); got < 500 {
		t.Errorf("tuples floor violated: %d", got)
	}
}

func TestTable2bQuick(t *testing.T) {
	cfg := QuickConfig()
	tbl, err := Table2b(cfg)
	if err != nil {
		t.Fatalf("Table2b: %v", err)
	}
	if len(tbl.Rows) != len(widths3D) {
		t.Fatalf("Table2b produced %d rows, want %d", len(tbl.Rows), len(widths3D))
	}
	for _, row := range tbl.Rows {
		for _, cell := range row.Cells {
			if cell.Err != nil {
				t.Errorf("cell %s failed: %v", cell.Method, cell.Err)
				continue
			}
			if cell.Result.TotalInput < int64(cell.Result.InputS+cell.Result.InputT) {
				t.Errorf("%s total input below |S|+|T|", cell.Method)
			}
		}
	}
	// RecPart-S should never duplicate more than 1-Bucket on this workload.
	for _, row := range tbl.Rows {
		var rec, ob *Cell
		for i := range row.Cells {
			switch row.Cells[i].Method {
			case "RecPart-S":
				rec = &row.Cells[i]
			case "1-Bucket":
				ob = &row.Cells[i]
			}
		}
		if rec != nil && ob != nil && rec.Err == nil && ob.Err == nil {
			if rec.Result.DupOverhead > ob.Result.DupOverhead+0.05 {
				t.Errorf("RecPart-S duplication %.2f exceeds 1-Bucket %.2f",
					rec.Result.DupOverhead, ob.Result.DupOverhead)
			}
		}
	}
	var buf bytes.Buffer
	if err := Render(&buf, tbl); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Table 2b") {
		t.Error("rendered table misses the paper reference")
	}
	buf.Reset()
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines < 2 {
		t.Errorf("CSV export produced only %d lines", lines)
	}
}

func TestTable6RevealsGridWeakness(t *testing.T) {
	cfg := QuickConfig()
	tbl, err := Table6(cfg)
	if err != nil {
		t.Fatalf("Table6: %v", err)
	}
	// On reverse-Pareto data RecPart must achieve (much) lower max-worker
	// input than Grid*, the qualitative claim of Table 6 and Lemma 2.
	checked := 0
	for _, row := range tbl.Rows {
		isReverse := false
		for _, l := range row.Labels {
			if l.Name == "dataset" && strings.HasPrefix(l.Value, "rv-pareto") {
				isReverse = true
			}
		}
		if !isReverse {
			continue
		}
		var rec, gs *Cell
		for i := range row.Cells {
			switch row.Cells[i].Method {
			case "RecPart":
				rec = &row.Cells[i]
			case "Grid*":
				gs = &row.Cells[i]
			}
		}
		if rec == nil || gs == nil || rec.Err != nil || gs.Err != nil {
			continue
		}
		checked++
		if rec.Result.Im > gs.Result.Im {
			t.Errorf("RecPart Im=%d not below Grid* Im=%d on reverse Pareto", rec.Result.Im, gs.Result.Im)
		}
	}
	if checked == 0 {
		t.Error("no reverse-Pareto rows were comparable")
	}
}

func TestWorkloadsQuick(t *testing.T) {
	cfg := QuickConfig()
	tbl, err := Workloads(cfg)
	if err != nil {
		t.Fatalf("Workloads: %v", err)
	}
	if len(tbl.Rows) < 10 {
		t.Fatalf("expected at least 10 workload rows, got %d", len(tbl.Rows))
	}
	var buf bytes.Buffer
	if err := Render(&buf, tbl); err != nil {
		t.Fatalf("Render: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	cfg := QuickConfig()
	tbl, err := Table2b(cfg)
	if err != nil {
		t.Fatalf("Table2b: %v", err)
	}
	sum := Summarize(tbl)
	if len(sum) == 0 {
		t.Fatal("Summarize returned no methods")
	}
	if _, ok := sum["RecPart-S"]; !ok {
		t.Error("Summarize misses RecPart-S")
	}
}

// TestTablesMatchNestedLoop: every joined cell of Tables 2b and 6 at
// QuickConfig reports the output the nested loop finds on its row's inputs
// and band. Neither table estimates a cell, so every cell is checked.
func TestTablesMatchNestedLoop(t *testing.T) {
	cfg := QuickConfig()
	type rowInput struct {
		s, t *data.Relation
		band data.Band
	}
	var rows2b, rows6 []rowInput
	s, tt := cfg.pareto(3, 1.5)
	for _, eps := range widths3D {
		rows2b = append(rows2b, rowInput{s, tt, data.Uniform(3, eps)})
	}
	s, tt = cfg.pareto(3, 2.0)
	rows6 = append(rows6, rowInput{s, tt, data.Uniform(3, width3D)})
	s, tt = cfg.reversePareto(3, 1.5)
	for _, eps := range []float64{1000, 2000} {
		rows6 = append(rows6, rowInput{s, tt, data.Uniform(3, eps)})
	}

	for _, table := range []struct {
		run  func(Config) (*Table, error)
		rows []rowInput
	}{{Table2b, rows2b}, {Table6, rows6}} {
		tbl, err := table.run(cfg)
		if err != nil {
			t.Fatalf("table: %v", err)
		}
		if len(tbl.Rows) != len(table.rows) {
			t.Fatalf("Table %s has %d rows, the test knows the inputs of %d", tbl.ID, len(tbl.Rows), len(table.rows))
		}
		for i, row := range tbl.Rows {
			in := table.rows[i]
			want := localjoin.NestedLoop{}.Join(in.s, in.t, in.band, nil)
			for _, cell := range row.Cells {
				if cell.Err != nil {
					t.Errorf("Table %s row %d %s: %v", tbl.ID, i, cell.Method, cell.Err)
					continue
				}
				if cell.Result.Output != want {
					t.Errorf("Table %s row %d %s: output %d, the nested loop finds %d", tbl.ID, i, cell.Method, cell.Result.Output, want)
				}
			}
		}
	}
}
