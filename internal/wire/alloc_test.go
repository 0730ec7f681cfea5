package wire

import (
	"math"
	"testing"
)

// TestWireSteadyStateAllocs pins the hot-path contract: once an encoder and
// decoder have warmed their scratch, encoding and fully decoding a chunk
// performs zero allocations. CI's allocation-check step runs this.
func TestWireSteadyStateAllocs(t *testing.T) {
	const n, dims = 2048, 4
	keys := make([]float64, n*dims)
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			keys[i*dims+d] = math.Round(float64(i*7+d)*0.123*1000) / 1000
		}
		keys[i*dims] = math.Sqrt(float64(i)) // one raw64 column
		ids[i] = int64(i * 3)
	}
	col := make([]float64, n)
	idDst := make([]int64, n)

	enc := NewEncoder(ModeAuto)
	var dec Decoder
	work := func() {
		raw := enc.EncodeChunk(keys, dims, ids)
		gotN, gotDims, err := dec.Begin(raw)
		if err != nil || gotN != n || gotDims != dims {
			t.Fatalf("Begin = (%d, %d, %v)", gotN, gotDims, err)
		}
		for d := 0; d < dims; d++ {
			if _, _, err := dec.KeyColumn(col); err != nil {
				t.Fatalf("KeyColumn: %v", err)
			}
		}
		if err := dec.IDs(idDst); err != nil {
			t.Fatalf("IDs: %v", err)
		}
	}
	work() // warm the scratch buffers
	if avg := testing.AllocsPerRun(20, work); avg != 0 {
		t.Errorf("encode+decode allocates %.1f times per chunk, want 0", avg)
	}
}
