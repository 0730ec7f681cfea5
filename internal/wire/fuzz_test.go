package wire

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSeedChunks are well-formed chunks covering both encodings and both
// layouts; mutations of them reach every decoder branch quickly.
func fuzzSeedChunks() [][]byte {
	enc := NewEncoder(ModeAuto)
	var seeds [][]byte
	add := func(keys []float64, dims int, ids []int64) {
		seeds = append(seeds, append([]byte(nil), enc.EncodeChunk(keys, dims, ids)...))
	}
	add(nil, 2, nil)
	add([]float64{1.5, math.NaN()}, 2, []int64{7})
	decimals := make([]float64, 40)
	sorted := make([]float64, 40)
	raw := make([]float64, 40)
	for i := range decimals {
		decimals[i] = float64((i*7919)%1000) * 1e-3
		sorted[i] = float64(500+3*i) / 100
		raw[i] = math.Sqrt(float64(i + 2))
	}
	add(decimals, 1, seqIDs(40))
	add(sorted, 2, seqIDs(20))
	add(raw, 4, []int64{9, -9, math.MaxInt64, math.MinInt64, 0, 1, 2, 3, 4, 1 << 40})
	return seeds
}

// FuzzDecode feeds arbitrary bytes to the decoder: it must return an error or
// a chunk that re-encodes losslessly, and never panic. Begin bounds the row
// count by MaxChunkRows and the values by MaxChunkValues, which bounds what
// this test and the decoder allocate.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeedChunks() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, chunk []byte) {
		var dec Decoder
		n, dims, err := dec.Begin(chunk)
		if err != nil {
			return
		}
		if n > MaxChunkRows || dims > maxDims || n*(dims+1) > MaxChunkValues {
			t.Fatalf("Begin accepted %d rows x %d dims", n, dims)
		}
		if dims > 4 {
			return // keeps the row-major copy below small
		}
		col := make([]float64, n)
		keys := make([]float64, n*dims)
		for d := 0; d < dims; d++ {
			if _, _, err := dec.KeyColumn(col); err != nil {
				return
			}
			for i, v := range col {
				keys[i*dims+d] = v
			}
		}
		ids := make([]int64, n)
		if err := dec.IDs(ids); err != nil {
			return
		}
		roundTrip(t, keys, dims, ids)
	})
}

// FuzzRoundTrip reinterprets arbitrary bytes as float64 keys and int64 IDs:
// every bit pattern must survive encode and decode unchanged.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))), uint8(1))
	for _, seed := range fuzzSeedChunks() {
		f.Add(seed, uint8(len(seed)%5))
	}
	var decimals []byte
	for m := 0; m < 64; m++ {
		decimals = binary.LittleEndian.AppendUint64(decimals, math.Float64bits(float64(m*m)/1000))
	}
	f.Add(decimals, uint8(1))
	f.Add(decimals, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, dimsByte uint8) {
		dims := int(dimsByte)%8 + 1
		n := len(data) / 8 / dims
		keys := make([]float64, n*dims)
		ids := make([]int64, n)
		for i := range keys {
			keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		// IDs: the first key column's bits, so ID columns see every pattern too.
		for i := range ids {
			ids[i] = int64(math.Float64bits(keys[i*dims]))
		}
		roundTrip(t, keys, dims, ids)
	})
}
