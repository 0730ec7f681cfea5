package data

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the relation's join attributes to w as CSV, one tuple per
// row, with a header row naming the attributes A1..Ad.
func (r *Relation) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	header := make([]string, r.dims)
	for d := 0; d < r.dims; d++ {
		header[d] = fmt.Sprintf("A%d", d+1)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("data: writing CSV header: %w", err)
	}
	row := make([]string, r.dims)
	for i := 0; i < r.Len(); i++ {
		k := r.Key(i)
		for d, v := range k {
			row[d] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("data: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("data: flushing CSV: %w", err)
	}
	return bw.Flush()
}

// ReadCSV reads a relation previously written by WriteCSV (or any CSV whose
// first row is a header and whose remaining rows are float columns).
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(bufio.NewReader(rd))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV header: %w", err)
	}
	dims := len(header)
	if dims == 0 {
		return nil, fmt.Errorf("data: CSV for relation %q has an empty header", name)
	}
	r := NewRelation(name, dims)
	key := make([]float64, dims)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("data: reading CSV line %d: %w", line, err)
		}
		if len(rec) != dims {
			return nil, fmt.Errorf("data: CSV line %d has %d columns, want %d", line, len(rec), dims)
		}
		for d, field := range rec {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("data: CSV line %d column %d: %w", line, d+1, err)
			}
			key[d] = v
		}
		r.AppendKey(key)
	}
	return r, nil
}
