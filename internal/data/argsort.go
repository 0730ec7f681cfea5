package data

import (
	"math"
	"sync"
)

// argsortScratch holds the buffers of one Argsort; they are pooled, so the
// steady state of a caller that sorts columns of one size allocates nothing.
type argsortScratch struct {
	keys, keys2 []uint64
	idx, idx2   []int32
}

var argsortPool = sync.Pool{New: func() any { return new(argsortScratch) }}

// Argsort writes the indices 0..len(col)-1 into out ordered by col's value:
// ascending, NaN last, ties (−0 and +0 are one) in index order — the order
// of a stable comparison sort. It is a stable byte-wise LSD radix sort over the
// order-preserving integer encoding of the keys. Byte positions on which every
// key agrees are skipped, so the near-constant exponent bytes of typical data
// cost only their histogram pass.
func Argsort(col []float64, out []int32) {
	n := len(col)
	if n == 0 {
		return
	}
	a := argsortPool.Get().(*argsortScratch)
	defer argsortPool.Put(a)
	keys, tmpK := resize(a.keys, n), resize(a.keys2, n)
	idx, tmpI := resize(a.idx, n), resize(a.idx2, n)
	for i, v := range col {
		keys[i] = floatSortKey(v)
		idx[i] = int32(i)
	}
	for shift := 0; shift < 64; shift += 8 {
		var count [256]int
		for _, k := range keys {
			count[byte(k>>shift)]++
		}
		if count[byte(keys[0]>>shift)] == n {
			continue // all keys share this byte
		}
		pos := 0
		var start [256]int
		for b := 0; b < 256; b++ {
			start[b] = pos
			pos += count[b]
		}
		for i, k := range keys {
			b := byte(k >> shift)
			tmpK[start[b]] = k
			tmpI[start[b]] = idx[i]
			start[b]++
		}
		keys, tmpK = tmpK, keys
		idx, tmpI = tmpI, idx
	}
	copy(out, idx)
	// The buffers may have swapped an odd number of times; either way the
	// scratch keeps all four.
	a.keys, a.keys2 = keys, tmpK
	a.idx, a.idx2 = idx, tmpI
}

// floatSortKey maps a float64 to a uint64 whose unsigned order is the float
// order with NaN above +Inf: negative values are bit-complemented, the others
// get the sign bit set. −0 maps where +0 does and every NaN to the top, so that
// values comparing equal (or, among NaNs, alike) share a key.
func floatSortKey(v float64) uint64 {
	switch {
	case v != v:
		return math.MaxUint64
	case v == 0:
		return 1 << 63
	}
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// resize returns buf with length n, reusing its storage when large enough;
// the contents are unspecified.
func resize[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}
