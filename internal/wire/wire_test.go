package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// roundTrip encodes one chunk and decodes it back, failing unless every key
// and ID comes back bit-identical, the reported column extrema are the true
// ones, and the chunk is no larger than raw64 columns plus framing. It
// returns a copy of the encoded chunk.
func roundTrip(t testing.TB, keys []float64, dims int, ids []int64) []byte {
	t.Helper()
	return roundTripWith(t, NewEncoder(ModeAuto), new(Decoder), keys, dims, ids)
}

// roundTripWith is roundTrip through a caller-owned encoder and decoder.
func roundTripWith(t testing.TB, enc *Encoder, dec *Decoder, keys []float64, dims int, ids []int64) []byte {
	t.Helper()
	chunk := append([]byte(nil), enc.EncodeChunk(keys, dims, ids)...)
	// version, two uvarints, one encoding byte per column.
	if limit := RawBytes(len(ids), dims) + 1 + 2*binary.MaxVarintLen64 + int64(dims) + 1; int64(len(chunk)) > limit {
		t.Fatalf("chunk is %d bytes, raw64 columns plus framing are %d", len(chunk), limit)
	}

	n, gotDims, err := dec.Begin(chunk)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if n != len(ids) || gotDims != dims {
		t.Fatalf("Begin = (%d, %d), want (%d, %d)", n, gotDims, len(ids), dims)
	}
	col := make([]float64, n)
	for d := 0; d < dims; d++ {
		min, max, err := dec.KeyColumn(col)
		if err != nil {
			t.Fatalf("KeyColumn(%d): %v", d, err)
		}
		wantMin, wantMax := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			want := keys[i*dims+d]
			if got := col[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("column %d row %d = %v (%x), want %v (%x)",
					d, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if want < wantMin {
				wantMin = want
			}
			if want > wantMax {
				wantMax = want
			}
		}
		if n > 0 && (min != wantMin || max != wantMax) {
			t.Fatalf("column %d stats = [%v, %v], want [%v, %v]", d, min, max, wantMin, wantMax)
		}
	}
	gotIDs := make([]int64, n)
	if err := dec.IDs(gotIDs); err != nil {
		t.Fatalf("IDs: %v", err)
	}
	for i, want := range ids {
		if gotIDs[i] != want {
			t.Fatalf("id %d = %d, want %d", i, gotIDs[i], want)
		}
	}
	return chunk
}

// colInfo is what a test reads back about one encoded column.
type colInfo struct {
	packed bool
	flags  byte
	width  int
}

func (c colInfo) String() string {
	if !c.packed {
		return "raw64"
	}
	return fmt.Sprintf("packed(k=%d mul=%v delta=%v width=%d)",
		c.flags&flagScaleMask, c.flags&flagMul != 0, c.flags&flagDelta != 0, c.width)
}

// columnsOf walks a well-formed chunk and reports each column's encoding.
func columnsOf(t testing.TB, chunk []byte) []colInfo {
	t.Helper()
	pos := 1
	n, w := binary.Uvarint(chunk[pos:])
	pos += w
	dims, w := binary.Uvarint(chunk[pos:])
	pos += w
	var cols []colInfo
	for c := 0; c <= int(dims); c++ {
		enc := chunk[pos]
		pos++
		if enc == encRaw64 {
			cols = append(cols, colInfo{})
			pos += 8 * int(n)
			continue
		}
		ci := colInfo{packed: true, flags: chunk[pos], width: int(chunk[pos+1])}
		pos += plainHeader
		count := int(n)
		if ci.flags&flagDelta != 0 {
			pos += deltaHeader - plainHeader
			count--
		}
		pos += (count*ci.width + 7) / 8
		cols = append(cols, ci)
	}
	if pos != len(chunk) {
		t.Fatalf("walked %d of %d chunk bytes", pos, len(chunk))
	}
	return cols
}

func seqIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

func quantize(v float64, decimals int) float64 {
	p := math.Pow(10, float64(decimals))
	return math.Round(v*p) / p
}

// TestChunkRoundTripShapes covers multi-column chunk shapes the shuffle
// produces.
func TestChunkRoundTripShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	type shape struct {
		keys []float64
		dims int
		ids  []int64
	}
	shapes := map[string]shape{
		"empty":      {nil, 3, nil},
		"single-row": {[]float64{1.25, -3.5, 0}, 3, []int64{42}},
		"specials": {[]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e-300, 123.456}, 1,
			seqIDs(8)},
	}

	// Near-sorted fixed-decimal keys with monotonic IDs: the shape RecPart
	// routing produces from a sorted input.
	sorted := shape{make([]float64, n*2), 2, make([]int64, n)}
	v := 1.0
	for i := 0; i < n; i++ {
		v += quantize(rng.Float64()*0.1, 3)
		sorted.keys[i*2] = quantize(v, 3)
		sorted.keys[i*2+1] = quantize(rng.Float64()*100, 2)
		sorted.ids[i] = int64(i * 3)
	}
	shapes["near-sorted-decimal"] = sorted

	// Decimal-representable but alternating between the ends of the domain,
	// with shuffled IDs.
	adv := shape{make([]float64, n), 1, make([]int64, n)}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			adv.keys[i] = quantize(float64(i)*0.001, 3)
		} else {
			adv.keys[i] = quantize(1e6-float64(i), 3)
		}
		adv.ids[i] = rng.Int63n(1 << 40)
	}
	shapes["adversarial-unsorted"] = adv

	// Full-entropy mantissas over 60 decades.
	raw := shape{make([]float64, n), 1, seqIDs(n)}
	for i := range raw.keys {
		raw.keys[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	}
	shapes["raw-entropy"] = raw

	for name, s := range shapes {
		t.Run(name, func(t *testing.T) { roundTrip(t, s.keys, s.dims, s.ids) })
	}
}

// differingForms returns integers m in [0, limit) with m/1000 != m*1e-3.
func differingForms(limit int) []int {
	var ms []int
	for m := 0; m < limit; m++ {
		if float64(m)/1000 != float64(m)*1e-3 {
			ms = append(ms, m)
		}
	}
	return ms
}

// TestKeyColumnClasses checks, per class of float64 values, both the lossless
// round trip and which encoding the column takes.
func TestKeyColumnClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 4096
	fill := func(f func(i int) float64) []float64 {
		col := make([]float64, n)
		for i := range col {
			col[i] = f(i)
		}
		return col
	}
	differ := differingForms(100000)
	decimal := func(i int) float64 { return float64(rng.Intn(100000)) / 1000 }
	with := func(special float64) []float64 {
		col := fill(decimal)
		col[n/2+1] = special // not a sampled position: only the full pass sees it
		return col
	}
	cases := []struct {
		name string
		col  []float64
		want string // "" = raw64, else the packed flags
	}{
		{"3-decimal m/1000", fill(decimal), "k=3 mul=false"},
		{"3-decimal m*1e-3", fill(func(int) float64 { return float64(rng.Intn(100000)) * 1e-3 }), "k=3 mul=true"},
		{"mixed forms", fill(func(i int) float64 {
			m := float64(differ[rng.Intn(len(differ))])
			if i%2 == 0 {
				return m / 1000
			}
			return m * 1e-3
		}), ""},
		{"integers", fill(func(int) float64 { return float64(rng.Intn(1<<30) - 1<<29) }), "k=0 mul=false"},
		{"6 decimals", fill(func(int) float64 { return float64(rng.Int63n(1e12)) / 1e6 }), "k=6 mul=false"},
		{"7 decimals", fill(func(int) float64 { return float64(rng.Int63n(1e12)*10+1) / 1e7 }), ""},
		{"integers and one unsampled half", func() []float64 {
			col := fill(func(int) float64 { return float64(rng.Intn(1000)) })
			col[n/2+1] = 0.5
			return col
		}(), "k=1 mul=false"},
		{"full-mantissa pareto", fill(func(int) float64 { return math.Pow(1-rng.Float64(), -1/1.5) }), ""},
		{"negative zero", with(math.Copysign(0, -1)), ""},
		{"NaN", with(math.NaN()), ""},
		{"NaN payloads", fill(func(i int) float64 { return math.Float64frombits(0x7ff8000000000000 | uint64(i+1)) }), ""},
		{"+Inf", with(math.Inf(1)), ""},
		{"-Inf", with(math.Inf(-1)), ""},
		{"subnormals", fill(func(i int) float64 { return math.Float64frombits(uint64(i + 1)) }), ""},
		{"scaled past 2^51", with(float64(1<<51) / 1000 * 8), ""},
		{"integer past 2^53", with(float64(1<<53) + 2), ""},
		{"constant", fill(func(int) float64 { return 12.5 }), "k=1 mul=false delta=false width=0"},
		{"sorted decimals", fill(func(i int) float64 { return float64(1000000+3*i) / 100 }), "k=2 mul=false delta=true width=0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := columnsOf(t, roundTrip(t, tc.col, 1, seqIDs(n)))[0]
			switch {
			case tc.want == "" && got.packed:
				t.Fatalf("encoded %v, want raw64", got)
			case tc.want != "" && (!got.packed || !containsAll(got.String(), tc.want)):
				t.Fatalf("encoded %v, want packed %s", got, tc.want)
			}
		})
	}
}

// containsAll reports whether every space-separated field of want occurs in s.
func containsAll(s, want string) bool {
	for _, field := range strings.Fields(want) {
		if !strings.Contains(s, field) {
			return false
		}
	}
	return true
}

// TestQuantizedKeysPack is the regression test for the silent raw64 fallback:
// keys quantized as round(x/1e-3)*1e-3 are m*1e-3, and 13% of those differ
// from m/1000 in the last bit. Both spellings must pack.
func TestQuantizedKeysPack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 4096
	mul := make([]float64, n)
	div := make([]float64, n)
	differ := 0
	for i := range mul {
		x := rng.Float64() * 100
		mul[i] = math.Round(x/1e-3) * 1e-3
		div[i] = math.Round(x*1000) / 1000
		if mul[i] != div[i] {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("test data never distinguishes m*1e-3 from m/1000")
	}
	for name, col := range map[string][]float64{"round(x/1e-3)*1e-3": mul, "m/1000": div} {
		chunk := roundTrip(t, col, 1, seqIDs(n))
		if got := columnsOf(t, chunk)[0]; !got.packed || got.width > 17 {
			t.Errorf("%s: encoded %v, want packed in at most 17 bits", name, got)
		}
		if len(chunk)*3 > n*16 {
			t.Errorf("%s: chunk is %d bytes, want under a third of %d", name, len(chunk), n*16)
		}
	}
}

// TestChunkSizes round-trips packed and raw columns at the row counts where
// the bit stream's word and tail handling change.
func TestChunkSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 4096} {
		for _, width := range []int{0, 1, 3, 8, 13, 31, 56} {
			keys := make([]float64, n*2)
			ids := make([]int64, n)
			for i := 0; i < n; i++ {
				if width > 0 {
					keys[i*2] = float64(rng.Int63n(1<<min(width, 50))) / 100
					ids[i] = rng.Int63n(1 << width)
				}
				keys[i*2+1] = rng.NormFloat64()
			}
			roundTrip(t, keys, 2, ids)
		}
	}
}

// TestCodecReuseAcrossChunkSizes runs one encoder and one decoder over chunks
// of shrinking and growing row counts, the way a sender and a pooled worker
// decoder see them: scratch left over from a larger chunk must not leak into
// a smaller one.
func TestCodecReuseAcrossChunkSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	enc := NewEncoder(ModeAuto)
	var dec Decoder
	for _, n := range rng.Perm(300) {
		keys := make([]float64, n*3)
		for i := range keys {
			keys[i] = math.Round(math.Pow(1-rng.Float64(), -1/1.4)*1000) / 1000
		}
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i*3 + rng.Intn(3))
		}
		roundTripWith(t, enc, &dec, keys, 3, ids)
	}
}

// TestIDColumnWidths drives the ID column through every width class,
// including differences that overflow int64.
func TestIDColumnWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 257
	spread := func(width int) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(rng.Uint64() >> (64 - width))
		}
		ids[0], ids[1] = 0, int64(uint64(1)<<width-1) // pin the extrema
		return ids
	}
	cases := map[string]struct {
		ids    []int64
		packed bool
	}{
		"constant":       {make([]int64, n), true},
		"width 1":        {spread(1), true},
		"width 55":       {spread(55), true},
		"width 56":       {spread(56), true},
		"width 57":       {spread(57), false},
		"width 63":       {spread(63), false},
		"ascending":      {seqIDs(n), true},
		"negative":       {nil, true},
		"descending":     {nil, true},
		"full range":     {nil, false},
		"overflow delta": {nil, false},
		"wrapping steps": {nil, true},
	}
	fill := func(name string, f func(i int) int64) {
		c := cases[name]
		c.ids = make([]int64, n)
		for i := range c.ids {
			c.ids[i] = f(i)
		}
		cases[name] = c
	}
	fill("negative", func(i int) int64 { return -1e15 - rng.Int63n(1000) })
	fill("descending", func(i int) int64 { return 1e12 - int64(i)*7 })
	fill("full range", func(i int) int64 { return int64(rng.Uint64()) })
	fill("overflow delta", func(i int) int64 {
		if i%2 == 0 {
			return math.MaxInt64 - rng.Int63n(1<<60)
		}
		return math.MinInt64 + rng.Int63n(1<<60)
	})
	// A constant step that wraps around int64 every few rows: the plain
	// layout needs 64 bits, the wrapping differences need none.
	fill("wrapping steps", func(i int) int64 { return int64(uint64(i) * 0x3000000000000001) })
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cols := columnsOf(t, roundTrip(t, make([]float64, n), 1, tc.ids))
			if got := cols[1]; got.packed != tc.packed {
				t.Fatalf("ID column encoded %v, want packed=%v", got, tc.packed)
			}
		})
	}
}

func TestDecimalChunksCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4096
	dims := 4
	keys := make([]float64, n*dims)
	base := 0.0
	for i := 0; i < n; i++ {
		base += quantize(rng.Float64()*0.01, 3)
		for d := 0; d < dims; d++ {
			keys[i*dims+d] = quantize(base+rng.Float64()*10, 3)
		}
	}
	raw := int(RawBytes(n, dims))
	if size := len(roundTrip(t, keys, dims, seqIDs(n))); size*3 > raw {
		t.Fatalf("decimal chunk encoded to %d bytes; want at least 3x under raw %d", size, raw)
	}
}

// decodeAll decodes a whole chunk, returning the first error.
func decodeAll(dec *Decoder, chunk []byte) error {
	n, dims, err := dec.Begin(chunk)
	if err != nil {
		return err
	}
	col := make([]float64, n)
	for d := 0; d < dims; d++ {
		if _, _, err := dec.KeyColumn(col); err != nil {
			return err
		}
	}
	return dec.IDs(make([]int64, n))
}

func TestDecoderRejectsMalformedChunks(t *testing.T) {
	enc := NewEncoder(ModeAuto)
	keys := []float64{1.5, 2.5, 3.5, 4.5, 0.1, 0.2, 0.3, 0.4, 1e-9, 2, 3, 4}
	ids := []int64{1, 2, 3, 4, 9, 8, 7, 6, 5, 4, 3, 1 << 40}
	good := append([]byte(nil), enc.EncodeChunk(keys, 1, ids)...)
	var dec Decoder
	if err := decodeAll(&dec, good); err != nil {
		t.Fatalf("good chunk: %v", err)
	}

	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(good); cut++ {
		if decodeAll(&dec, good[:cut]) == nil {
			t.Fatalf("truncated chunk (cut at %d) decoded without error", cut)
		}
	}
	// Bit flips must error or decode — never panic or over-read.
	for pos := 0; pos < len(good); pos++ {
		for _, flip := range []byte{0x01, 0x41, 0x80, 0xff} {
			mut := append([]byte(nil), good...)
			mut[pos] ^= flip
			_ = decodeAll(&dec, mut)
		}
	}

	for name, bad := range map[string][]byte{
		"trailing bytes":         append(append([]byte(nil), good...), 0),
		"parent's chunk version": append([]byte{1}, good[1:]...),
		"future chunk version":   append([]byte{chunkVersion + 1}, good[1:]...),
		// A width-0 packed column has no payload: only the declared row
		// count would size the decode.
		"rows past MaxChunkRows": binary.AppendUvarint([]byte{chunkVersion}, MaxChunkRows+1),
		"zero dims":              {chunkVersion, 4, 0},
		"unknown encoding":       {chunkVersion, 1, 1, 7},
		"packed empty chunk":     append([]byte{chunkVersion, 0, 1, encPacked}, make([]byte, plainHeader)...),
		"width past maxWidth":    append([]byte{chunkVersion, 1, 1, encPacked, 0, maxWidth + 1}, make([]byte, 64)...),
		"scale past maxScale":    append([]byte{chunkVersion, 1, 1, encPacked, maxScale + 1, 0}, make([]byte, 64)...),
		"scaled ID column": append(append([]byte{chunkVersion, 1, 1, encRaw64}, make([]byte, 8)...),
			append([]byte{encPacked, 3, 0}, make([]byte, 16)...)...),
	} {
		if err := decodeAll(&dec, bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// Out-of-order access is rejected.
	if _, _, err := dec.Begin(good); err != nil {
		t.Fatalf("Begin(good): %v", err)
	}
	if err := dec.IDs(make([]int64, len(ids))); err == nil {
		t.Fatal("IDs before KeyColumn should fail")
	}
}

// TestBeginBoundsChunkValues is the regression test for a chunk that asked a
// worker for half a gigabyte: 2^20 rows (MaxChunkRows) of 64 dimensions, every
// column packed at width 0, so that 1 240 bytes declare 65 columns of 2^20
// values. Begin, which sizes nothing yet, must refuse it; a chunk of the same
// shape within the bound still decodes.
func TestBeginBoundsChunkValues(t *testing.T) {
	chunk := func(rows, dims uint64) []byte {
		b := binary.AppendUvarint([]byte{chunkVersion}, rows)
		b = binary.AppendUvarint(b, dims)
		for c := uint64(0); c <= dims; c++ {
			b = append(append(b, encPacked), make([]byte, plainHeader)...)
		}
		return b
	}
	var dec Decoder
	hostile := chunk(1<<20, 64)
	if len(hostile) != 1240 {
		t.Fatalf("the hostile chunk is %d bytes, want 1240", len(hostile))
	}
	if n, dims, err := dec.Begin(hostile); err == nil {
		t.Errorf("Begin accepted a %d-byte chunk declaring %d rows x %d dims", len(hostile), n, dims)
	}
	if _, _, err := dec.Begin(chunk(1<<20/65, 64)); err != nil {
		t.Errorf("Begin refused a chunk within the bound: %v", err)
	}
}
