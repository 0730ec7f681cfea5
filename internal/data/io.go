package data

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/gob"
	"fmt"
	"io"
	"strconv"
)

// relationWire is the gob wire representation of a Relation. Relation keeps
// its fields unexported to protect the flat-storage invariant, so it
// implements gob.GobEncoder/GobDecoder via this struct.
type relationWire struct {
	Name string
	Dims int
	Keys []float64
}

// GobEncode implements gob.GobEncoder.
func (r *Relation) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(relationWire{Name: r.name, Dims: r.dims, Keys: r.keys}); err != nil {
		return nil, fmt.Errorf("data: encoding relation %q: %w", r.name, err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (r *Relation) GobDecode(b []byte) error {
	var w relationWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return fmt.Errorf("data: decoding relation: %w", err)
	}
	if w.Dims < 1 {
		return fmt.Errorf("data: decoded relation %q has invalid dimensionality %d", w.Name, w.Dims)
	}
	if len(w.Keys)%w.Dims != 0 {
		return fmt.Errorf("data: decoded relation %q has %d key values, not a multiple of %d dimensions", w.Name, len(w.Keys), w.Dims)
	}
	r.name = w.Name
	r.dims = w.Dims
	r.keys = w.Keys
	return nil
}

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
