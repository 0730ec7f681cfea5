package sample

import (
	"encoding/binary"
	"math"
	"sync"

	"bandjoin/internal/data"
)

// A band's pairs are a subset of the pairs of any band that contains it, and
// filtering a sorted list keeps its order. So the sorted pair list ForBand
// subsamples can be reproduced exactly from a covering band's list, and an
// InputSample asked many nearby bands joins once per rung — the band with
// every width rounded up onto a fixed ladder — and filters from then on.
//
// The filter tests each pair with Band.Matches, the float expressions the
// ε-grid tests. For finite widths x ≤ x', fl(s−x') ≤ fl(s−x) and
// fl(s+x) ≤ fl(s+x') at every s, ±Inf and NaN keys included, because rounding
// is monotone; so a pair the band matches, the rung matches too. A rung width
// that rounds up to +Inf breaks this (Inf−Inf is NaN, which matches nothing,
// while a finite band matches an infinite key to itself), so such a band joins
// directly.

// rungPairLimit bounds a cached rung's list at this many times
// OutputSampleSize pairs. Beyond it the list costs more memory than the
// sampled keys it indexes (16 × 4 000 pairs is 512 KiB against 2 MiB of keys
// at the defaults), and the band's own join collects and sorts so many pairs
// that skipping the probe saves little; bands under such a rung join
// directly, so the rung's join is paid once.
const rungPairLimit = 16

// rungZero is the exponent that stands for a zero width, which stays zero so
// an exact-key dimension keeps its grid.
const rungZero = math.MinInt32

// rung is one rung's sorted pair list, joined once by the first band that
// misses it.
type rung struct {
	once   sync.Once
	pairs  []uint64
	tooBig bool // the join exceeded rungPairLimit and pairs stays nil
}

// ladder is the k-th value of the rung ladder, 2^(k/4).
func ladder(k int) float64 { return math.Exp2(float64(k) / 4) }

// rungWidth rounds w up onto the ladder: it returns the exponent of the
// smallest ladder value ≥ w and that value, or rungZero and 0 for w == 0.
// Exp2 and Log2 can round below the exact value, so the ≥ is checked on the
// computed ladder value.
func rungWidth(w float64) (k int, x float64) {
	if w == 0 {
		return rungZero, 0
	}
	k = int(math.Ceil(4 * math.Log2(w)))
	for ladder(k) < w {
		k++
	}
	return k, ladder(k)
}

// rungOf returns the rung that covers band: its key, the integer exponents of
// every width, and the band itself. ok is false when a width rounds up to
// +Inf.
func rungOf(band data.Band) (key string, rb data.Band, ok bool) {
	d := band.Dims()
	buf := make([]byte, 0, 8*d)
	rb = data.Band{Low: make([]float64, d), High: make([]float64, d)}
	for i := range d {
		kl, xl := rungWidth(band.Low[i])
		kh, xh := rungWidth(band.High[i])
		if math.IsInf(xl, 1) || math.IsInf(xh, 1) {
			return "", data.Band{}, false
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(kl)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(kh)))
		rb.Low[i], rb.High[i] = xl, xh
	}
	return string(buf), rb, true
}

// pairs returns every pair of the sample join under band, sorted, in a slice
// the caller owns. The first band asked of the InputSample joins directly and
// caches nothing, so a one-shot Draw pays what it always did; from the second
// on, a band is filtered from its rung's list, which the first band to miss
// the rung joins. A rung that overflows, or whose list exceeds the bound,
// leaves its bands to join directly.
func (is *InputSample) pairs(band data.Band, order []int32, rank []uint32) []uint64 {
	key, rb, ok := rungOf(band)
	is.mu.Lock()
	first := !is.asked
	is.asked = true
	var r *rung
	if ok && !first {
		if r = is.rungs[key]; r == nil {
			if is.rungs == nil {
				is.rungs = make(map[string]*rung)
			}
			r = &rung{}
			is.rungs[key] = r
		}
	}
	is.mu.Unlock()
	if r == nil {
		return is.join(band, rank)
	}
	var fresh []uint64
	r.once.Do(func() {
		fresh = is.join(rb, rank)
		if len(fresh) > rungPairLimit*is.Opts.OutputSampleSize {
			r.tooBig = true
			return
		}
		r.pairs = fresh
		is.hold(int64(len(fresh)) * 8)
	})
	switch {
	case fresh != nil:
		return is.filter(fresh, band, order)
	case r.tooBig:
		return is.join(band, rank)
	}
	return is.filter(r.pairs, band, order)
}

// filter returns the pairs of list that band matches, in list's order.
func (is *InputSample) filter(list []uint64, band data.Band, order []int32) []uint64 {
	var out []uint64
	for _, p := range list {
		if band.Matches(is.S.Key(int(p>>32)), is.T.Key(int(order[uint32(p)]))) {
			out = append(out, p)
		}
	}
	return out
}
