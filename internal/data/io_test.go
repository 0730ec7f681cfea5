package data

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	r := NewRelation("r", 3)
	r.Append(1.5, -2, 3e10)
	r.Append(0.0001, 7, -9.25)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV("r2", &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != r.Len() || back.Dims() != r.Dims() {
		t.Fatalf("round trip changed shape: %v vs %v", back, r)
	}
	for i := 0; i < r.Len(); i++ {
		for d := 0; d < r.Dims(); d++ {
			if back.Key(i)[d] != r.Key(i)[d] {
				t.Errorf("value (%d,%d) = %g, want %g", i, d, back.Key(i)[d], r.Key(i)[d])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("bad", strings.NewReader("a,b\n1,notanumber\n")); err == nil {
		t.Error("non-numeric field accepted")
	}
	if _, err := ReadCSV("bad", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadCSV("bad", strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
}
