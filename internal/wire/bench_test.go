package wire

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkCodec measures encode and decode of one default-size chunk of
// 8-dimensional keys quantized to three decimals (the shape of the
// repository benchmark's cold-cluster workload) with ascending IDs.
func BenchmarkCodec(b *testing.B) {
	const n, dims = 4096, 8
	rng := rand.New(rand.NewSource(1))
	keys := make([]float64, n*dims)
	for i := range keys {
		keys[i] = math.Round(rng.Float64()*100/1e-3) * 1e-3
	}
	ids := seqIDs(n)
	enc := NewEncoder(ModeAuto)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(RawBytes(n, dims))
		for i := 0; i < b.N; i++ {
			enc.EncodeChunk(keys, dims, ids)
		}
	})
	chunk := enc.EncodeChunk(keys, dims, ids)
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(RawBytes(n, dims))
		var dec Decoder
		col := make([]float64, n)
		out := make([]int64, n)
		for i := 0; i < b.N; i++ {
			if _, _, err := dec.Begin(chunk); err != nil {
				b.Fatal(err)
			}
			for d := 0; d < dims; d++ {
				if _, _, err := dec.KeyColumn(col); err != nil {
					b.Fatal(err)
				}
			}
			if err := dec.IDs(out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(RawBytes(n, dims))/float64(len(chunk)), "ratio")
	})
}
