// Package wire implements the cluster's columnar chunk format (shuffle
// protocol v4, whose shipment streams carry these chunks). A chunk carries n tuples as dims key columns plus one tuple-ID
// column; every column is encoded independently as one of two encodings:
//
//	chunk  := version(1B) uvarint(n) uvarint(dims) column{dims+1}
//	column := 0x00 raw64 | 0x01 packed
//	raw64  := n × 8B little-endian (IEEE-754 bits, or two's-complement IDs)
//	packed := flags(1B) width(1B) lo(8B) hi(8B) [first(8B) dbase(8B)] bits
//	flags  := scale k (bits 0-2) | form (bit 3) | delta (bit 4)
//
// packed is frame-of-reference bit-packing of integers m: plain columns store
// m-lo, delta columns (first and dbase present) store (m[i]-m[i-1])-dbase for
// i >= 1, each in width bits of a little-endian bit stream. lo and hi are the
// integer extrema of the column. Key columns are packed when every value is a
// fixed decimal — v == m/10^k (form 0) or v == m*10^-k (form 1), bit for bit
// — and ship raw64 otherwise; the ID column is packed with k = 0. The encoder
// never produces a column larger than raw64.
//
// Encoder and Decoder own all scratch they need; steady-state EncodeChunk and
// column decoding perform zero allocations (pinned by TestWireSteadyStateAllocs
// and CI's allocation-check step). Decoding is defensive: malformed input from
// the network returns an error, never panics, and allocates at most
// MaxChunkValues values of scratch.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Version is the shuffle protocol version: this package's chunk format inside
// the cluster's shipment streams. It is the wire version advertised in cluster
// Ping replies; a coordinator refuses to ship to a peer that reports an older
// one.
const Version = 5

// chunkVersion is the leading byte of every encoded chunk.
const chunkVersion = 2

// MaxChunkRows bounds the row count a chunk may declare. A packed column of
// width 0 has an empty payload, so the payload cannot bound the count; this
// constant does, and with it what a decoder allocates for one chunk.
const MaxChunkRows = 1 << 20

// MaxChunkValues bounds the values a chunk may declare, rows × (dims + 1)
// counting the ID column: what decoding one chunk makes a worker hold. A chunk
// of width-0 packed columns is a few bytes a column whatever its row count, so
// MaxChunkRows alone would let 1.2 KB ask for 2^20 rows × 64 dims.
const MaxChunkValues = 1 << 20

// MaxChunkBytes bounds an encoded chunk: MaxChunkValues raw64 values, a header
// per column and the chunk header. A packed column is never larger than raw64.
const MaxChunkBytes = 1 + 2*binary.MaxVarintLen64 + 8*MaxChunkValues + (maxDims+1)*(1+deltaHeader)

// maxDims bounds the dimensionality a chunk may declare.
const maxDims = 4096

// Column encodings.
const (
	encRaw64  = 0
	encPacked = 1
)

// Packed-column flags.
const (
	flagScaleMask = 0x07 // decimal scale k
	flagMul       = 0x08 // v == m*10^-k rather than v == m/10^k
	flagDelta     = 0x10 // bits hold consecutive differences
)

const (
	plainHeader = 2 + 16      // flags, width, lo, hi
	deltaHeader = 2 + 16 + 16 // ... first, dbase
)

// maxScale is the largest decimal exponent the encoder probes: values with
// more than 6 fractional decimal digits ship raw.
const maxScale = 6

var (
	pow10    = [maxScale + 1]float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}
	invPow10 = [maxScale + 1]float64{1, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}
)

// roundMagic rounds x to the nearest integer (ties to even) as
// (x+roundMagic)-roundMagic, for |x| < maxScaled.
const (
	roundMagic = 3 << 51
	maxScaled  = 1 << 51
)

// maxWidth is the widest packed value: one unaligned 8-byte load then holds
// any value at any bit offset. Wider columns save under 1/8 and ship raw64.
const maxWidth = 56

// sampleSize is how many values of a column screen a (scale, form) candidate
// before the full verifying pass.
const sampleSize = 32

var (
	errTruncated  = errors.New("wire: truncated chunk")
	errCorrupt    = errors.New("wire: corrupt chunk")
	errColumnSize = errors.New("wire: column length mismatch")
)

// RawBytes returns the number of bytes a chunk of n tuples with the given
// dimensionality occupies row-major and unencoded: 8 bytes per key value plus
// 8 per tuple ID. It is the numerator of the compression-ratio metrics.
func RawBytes(n, dims int) int64 {
	return int64(n) * int64(dims+1) * 8
}

// extrema are the signed bounds of a column's integers and of their
// consecutive (wrapping) differences.
type extrema struct {
	lo, hi, dlo, dhi int64
}

// startExtrema returns the extrema of the one-value column {first}: no
// differences yet.
func startExtrema(first int64) extrema {
	return extrema{lo: first, hi: first, dlo: math.MaxInt64, dhi: math.MinInt64}
}

// packedLayout picks the narrower of the plain and delta layouts for n values
// with the given extrema. ok is false when neither beats raw64.
func packedLayout(n int, ex extrema) (delta bool, width int, ok bool) {
	// hi >= lo as signed values, so the unsigned difference is their distance
	// even when it exceeds MaxInt64.
	width = bits.Len64(uint64(ex.hi) - uint64(ex.lo))
	size := plainHeader + (n*width+7)/8
	if n > 1 {
		dw := bits.Len64(uint64(ex.dhi) - uint64(ex.dlo))
		if dsize := deltaHeader + ((n-1)*dw+7)/8; dsize < size {
			delta, width, size = true, dw, dsize
		}
	}
	return delta, width, width <= maxWidth && size < 8*n
}

// Encoder encodes chunks. It is not safe for concurrent use; every sender
// goroutine owns one. All returned buffers are reused by the next call.
type Encoder struct {
	buf    []byte  // finished chunk
	scaled []int64 // decimal-scaled key column
	sample [sampleSize + 2*maxScale + 2]float64
}

// Mode names the chunk encoding a caller asks NewEncoder for. There is one,
// this package's columnar format; the parameter outlives the modes it used to
// select because the repository's benchmark calls NewEncoder(ModeAuto).
type Mode uint8

// ModeAuto is the columnar format, each column packed or raw64 as its values
// allow.
const ModeAuto Mode = 0

// NewEncoder returns an encoder.
func NewEncoder(Mode) *Encoder { return &Encoder{} }

// EncodeChunk encodes a chunk of n = len(ids) tuples whose keys are the given
// row-major slab (len(keys) == n*dims). The returned slice aliases the
// encoder's internal buffer and is valid until the next call: a sender writes
// it to its stream before encoding the next chunk.
func (e *Encoder) EncodeChunk(keys []float64, dims int, ids []int64) []byte {
	n := len(ids)
	if len(keys) != n*dims {
		panic(fmt.Sprintf("wire: EncodeChunk: %d key values for %d tuples x %d dims", len(keys), n, dims))
	}
	if n > MaxChunkRows || n*(dims+1) > MaxChunkValues {
		panic(fmt.Sprintf("wire: EncodeChunk: %d tuples x %d dims exceed MaxChunkRows or MaxChunkValues", n, dims))
	}
	buf := e.buf[:0]
	buf = append(buf, chunkVersion)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(dims))
	for d := 0; d < dims; d++ {
		buf = e.appendKeyColumn(buf, keys, d, dims, n)
	}
	buf = appendIDColumn(buf, ids)
	e.buf = buf
	return buf
}

// appendKeyColumn encodes column d of the row-major slab: packed when a
// decimal scale represents every value exactly, raw64 otherwise.
func (e *Encoder) appendKeyColumn(buf []byte, keys []float64, d, dims, n int) []byte {
	if flags, ex, ok := e.scaleColumn(keys, d, dims, n); ok {
		if delta, width, ok := packedLayout(n, ex); ok {
			return appendPacked(buf, flags, e.scaled, ex, delta, width)
		}
	}
	buf = append(buf, encRaw64)
	off := len(buf)
	buf = slices.Grow(buf, 8*n)[:off+8*n]
	out := buf[off:]
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(keys[i*dims+d]))
	}
	return buf
}

// appendIDColumn encodes the tuple-ID column: packed with scale 0, or raw64.
func appendIDColumn(buf []byte, ids []int64) []byte {
	if len(ids) > 0 {
		ex := startExtrema(ids[0])
		for i, m := range ids[1:] {
			dm := m - ids[i] // wraps; packBits and unpackBits wrap alike
			ex.lo, ex.hi = min(ex.lo, m), max(ex.hi, m)
			ex.dlo, ex.dhi = min(ex.dlo, dm), max(ex.dhi, dm)
		}
		if delta, width, ok := packedLayout(len(ids), ex); ok {
			return appendPacked(buf, 0, ids, ex, delta, width)
		}
	}
	buf = append(buf, encRaw64)
	for _, m := range ids {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m))
	}
	return buf
}

// scaleExact returns r = round(v*p) and whether v is exactly that integer
// under the given form (p = 10^k, inv = 10^-k): |r| < maxScaled and scaling r
// back yields v's bits, which also rejects -0, NaN and ±Inf.
func scaleExact(v, p, inv float64, mul bool) (float64, bool) {
	r := (v*p + roundMagic) - roundMagic
	var back float64
	if mul {
		back = r * inv
	} else {
		back = r / p
	}
	return r, r > -maxScaled && r < maxScaled && math.Float64bits(back) == math.Float64bits(v)
}

// scaleColumn finds a decimal scale and form under which every value of
// column d is an exact integer, filling e.scaled with the integers. Each
// candidate — k ascending, so the integers are as narrow as the data allows —
// is screened on a small sample of the column, then verified on every value
// by scaleAll. A value that fails the full pass joins the sample, so no later
// candidate pays a full pass to fail on it too.
func (e *Encoder) scaleColumn(keys []float64, d, dims, n int) (flags byte, _ extrema, ok bool) {
	if n == 0 {
		return 0, extrema{}, false
	}
	col := keys[d:]
	sample := e.sample[:0]
	for i := 0; i < min(n, sampleSize); i++ {
		sample = append(sample, col[(i*n/min(n, sampleSize))*dims])
	}
	e.scaled = slices.Grow(e.scaled[:0], n)[:n]
	for k := 0; k <= maxScale; k++ {
		p, inv := pow10[k], invPow10[k]
	form:
		for _, mul := range [2]bool{false, true} {
			if mul && k == 0 {
				break // 10^0: both forms are the same test
			}
			for _, v := range sample {
				if _, ok := scaleExact(v, p, inv, mul); !ok {
					continue form
				}
			}
			ex, bad := scaleAll(e.scaled, col, dims, p, inv, mul)
			if bad >= 0 {
				sample = append(sample, col[bad*dims])
				continue
			}
			flags = byte(k)
			if mul {
				flags |= flagMul
			}
			return flags, ex, true
		}
	}
	return 0, extrema{}, false
}

// scaleAll is the fused gather/scale/verify/extrema pass over one column of a
// row-major slab: out[i] = round(col[i*stride]*p) for every i. It stops at
// the first value that is not exact under (p, inv, mul) and returns its
// index, or -1 when the whole column is exact.
func scaleAll(out []int64, col []float64, stride int, p, inv float64, mul bool) (ex extrema, bad int) {
	r, ok := scaleExact(col[0], p, inv, mul)
	if !ok {
		return ex, 0
	}
	prev := int64(r)
	out[0] = prev
	ex = startExtrema(prev)
	for i := 1; i < len(out); i++ {
		r, ok := scaleExact(col[i*stride], p, inv, mul)
		if !ok {
			return ex, i
		}
		m := int64(r)
		out[i] = m
		ex.lo, ex.hi = min(ex.lo, m), max(ex.hi, m)
		ex.dlo, ex.dhi = min(ex.dlo, m-prev), max(ex.dhi, m-prev)
		prev = m
	}
	return ex, -1
}

// appendPacked appends vals as a packed column in the given layout.
func appendPacked(buf []byte, flags byte, vals []int64, ex extrema, delta bool, width int) []byte {
	base, prev := uint64(ex.lo), uint64(0)
	if delta {
		flags |= flagDelta
		base, prev = uint64(ex.dlo), uint64(vals[0])
	}
	buf = append(buf, encPacked, flags, byte(width))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ex.lo))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ex.hi))
	if delta {
		buf = binary.LittleEndian.AppendUint64(buf, prev)
		buf = binary.LittleEndian.AppendUint64(buf, base)
		vals = vals[1:]
	}
	off := len(buf)
	size := (len(vals)*width + 7) / 8
	// 8 bytes of slack let packBits flush whole words; the slack is cut off.
	buf = slices.Grow(buf, size+8)[:off+size+8]
	packBits(buf[off:], vals, base, prev, delta, uint(width))
	return buf[:off+size]
}

// packBits writes the low w bits of each vals[i]-base — of each
// (vals[i]-vals[i-1])-base under delta, prev standing in for vals[-1] — as a
// little-endian bit stream. out must hold the stream rounded up to whole
// 8-byte words.
func packBits(out []byte, vals []int64, base, prev uint64, delta bool, w uint) {
	if w == 0 {
		return
	}
	var acc uint64
	var fill uint
	for _, m := range vals {
		u := uint64(m) - prev - base
		if delta {
			prev = uint64(m)
		}
		acc |= u << fill
		fill += w
		if fill >= 64 {
			binary.LittleEndian.PutUint64(out, acc)
			out = out[8:]
			fill -= 64
			acc = u >> (w - fill)
		}
	}
	if fill > 0 {
		binary.LittleEndian.PutUint64(out, acc)
	}
}

// unpackBits is the inverse of packBits: it reads len(dst) values of w bits
// from payload, which holds exactly the stream rounded up to whole bytes.
func unpackBits(dst []int64, payload []byte, base, prev uint64, delta bool, w uint) {
	// Values whose 8-byte load stays inside the payload are read in place;
	// the last few are read from a zero-padded copy of the payload's tail.
	fast := 0
	if w > 0 && len(payload) >= 8 {
		fast = min(len(dst), ((len(payload)-8)*8+7)/int(w)+1)
	}
	prev = unpackRun(dst[:fast], payload, 0, base, prev, delta, w)
	var tail [16]byte
	tailOff := max(len(payload)-8, 0)
	copy(tail[:], payload[tailOff:])
	unpackRun(dst[fast:], tail[:], uint(fast)*w-uint(tailOff)*8, base, prev, delta, w)
}

// unpackRun decodes the values whose bits start at bit, bit+w, ... of src,
// every one of which must leave 8 readable bytes from its first byte on. It
// returns the last value, the next run's prev.
func unpackRun(dst []int64, src []byte, bit uint, base, prev uint64, delta bool, w uint) uint64 {
	mask := uint64(1)<<w - 1
	for i := range dst {
		m := binary.LittleEndian.Uint64(src[bit>>3:])>>(bit&7)&mask + base + prev
		if delta {
			prev = m
		}
		dst[i] = int64(m)
		bit += w
	}
	return prev
}

// Decoder decodes chunks. It is not safe for concurrent use. Columns are read
// strictly in order: Begin, then dims calls to KeyColumn, then IDs.
type Decoder struct {
	raw     []byte
	pos     int
	n, dims int
	cols    int     // columns consumed so far
	ints    []int64 // unpacked integers of a packed key column
}

// Begin parses the chunk header and returns the tuple count and
// dimensionality.
func (d *Decoder) Begin(raw []byte) (n, dims int, err error) {
	d.raw = raw
	d.pos = 0
	d.cols = 0
	d.n, d.dims = 0, 0
	if len(raw) < 1 {
		return 0, 0, errTruncated
	}
	if raw[0] != chunkVersion {
		return 0, 0, fmt.Errorf("wire: unsupported chunk version %d (want %d)", raw[0], chunkVersion)
	}
	d.pos = 1
	un, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	ud, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if un > MaxChunkRows || ud == 0 || ud > maxDims || un*(ud+1) > MaxChunkValues {
		return 0, 0, errCorrupt
	}
	d.n, d.dims = int(un), int(ud)
	return d.n, d.dims, nil
}

func (d *Decoder) uvarint() (uint64, error) {
	v, w := binary.Uvarint(d.raw[d.pos:])
	if w <= 0 {
		return 0, errTruncated
	}
	d.pos += w
	return v, nil
}

// take consumes the next size bytes of the chunk.
func (d *Decoder) take(size int) ([]byte, error) {
	if size > len(d.raw)-d.pos {
		return nil, errTruncated
	}
	b := d.raw[d.pos : d.pos+size]
	d.pos += size
	return b, nil
}

// column is one consumed column: the 8n payload bytes of a raw64 column, or
// the header of a packed one whose integers nextColumn has already unpacked.
type column struct {
	raw    []byte
	packed bool
	flags  byte
	lo, hi int64
}

// nextColumn consumes the next column, unpacking a packed column's integers
// into dst (len must be the chunk's tuple count).
func (d *Decoder) nextColumn(dst []int64) (c column, err error) {
	enc, err := d.take(1)
	if err != nil {
		return c, err
	}
	switch enc[0] {
	case encRaw64:
		c.raw, err = d.take(8 * d.n)
		return c, err
	case encPacked:
	default:
		return c, fmt.Errorf("wire: unknown column encoding %d", enc[0])
	}
	hdr, err := d.take(plainHeader)
	if err != nil {
		return c, err
	}
	c.packed, c.flags = true, hdr[0]
	width := int(hdr[1])
	c.lo = int64(binary.LittleEndian.Uint64(hdr[2:]))
	c.hi = int64(binary.LittleEndian.Uint64(hdr[10:]))
	delta := c.flags&flagDelta != 0
	if c.flags&^(flagScaleMask|flagMul|flagDelta) != 0 || c.flags&flagScaleMask > maxScale ||
		width > maxWidth || c.lo > c.hi || d.n == 0 {
		return c, errCorrupt
	}
	base, prev := uint64(c.lo), uint64(0)
	if delta {
		ext, err := d.take(deltaHeader - plainHeader)
		if err != nil {
			return c, err
		}
		prev = binary.LittleEndian.Uint64(ext)
		base = binary.LittleEndian.Uint64(ext[8:])
		dst[0] = int64(prev)
		dst = dst[1:]
	}
	payload, err := d.take((len(dst)*width + 7) / 8)
	if err != nil {
		return c, err
	}
	unpackBits(dst, payload, base, prev, delta, uint(width))
	return c, nil
}

// KeyColumn decodes the next key column into dst (len must be the chunk's
// tuple count) and returns the column's min and max values.
func (d *Decoder) KeyColumn(dst []float64) (min, max float64, err error) {
	if d.cols >= d.dims {
		return 0, 0, errors.New("wire: KeyColumn after all key columns were read")
	}
	if len(dst) != d.n {
		return 0, 0, errColumnSize
	}
	if cap(d.ints) < d.n {
		d.ints = make([]int64, d.n)
	}
	ints := d.ints[:d.n]
	c, err := d.nextColumn(ints)
	if err != nil {
		return 0, 0, err
	}
	d.cols++
	if d.n == 0 {
		return 0, 0, nil
	}
	if !c.packed {
		min, max = math.Inf(1), math.Inf(-1)
		for i := range dst {
			v := math.Float64frombits(binary.LittleEndian.Uint64(c.raw[i*8:]))
			dst[i] = v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return min, max, nil
	}
	// Scaling is monotone, so the column's extrema are the scaled integer
	// extrema of the header.
	k := c.flags & flagScaleMask
	if c.flags&flagMul != 0 {
		inv := invPow10[k]
		for i, m := range ints {
			dst[i] = float64(m) * inv
		}
		return float64(c.lo) * inv, float64(c.hi) * inv, nil
	}
	p := pow10[k]
	for i, m := range ints {
		dst[i] = float64(m) / p
	}
	return float64(c.lo) / p, float64(c.hi) / p, nil
}

// IDs decodes the tuple-ID column into dst (len must be the chunk's tuple
// count). It must be called after every key column has been read, and fails
// if bytes remain after the column.
func (d *Decoder) IDs(dst []int64) error {
	if d.cols != d.dims {
		return fmt.Errorf("wire: IDs called after %d of %d key columns", d.cols, d.dims)
	}
	if len(dst) != d.n {
		return errColumnSize
	}
	c, err := d.nextColumn(dst)
	if err != nil {
		return err
	}
	d.cols++
	if c.packed && c.flags&(flagScaleMask|flagMul) != 0 {
		return errCorrupt
	}
	if !c.packed {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(c.raw[i*8:]))
		}
	}
	if d.pos != len(d.raw) {
		return errCorrupt
	}
	return nil
}
