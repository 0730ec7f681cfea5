package data

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestArgsortIsTheStableSort compares the radix argsort with a stable
// comparison sort (NaN last) on columns full of ties, both zeros, both NaN
// signs, infinities and far-apart exponents, sizes up and down so that the
// pooled buffers are reused.
func TestArgsortIsTheStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specials := []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for _, n := range []int{0, 1, 2, 257, 5000, 300} {
		col := make([]float64, n)
		for i := range col {
			switch rng.Intn(4) {
			case 0:
				col[i] = specials[rng.Intn(len(specials))]
			case 1:
				col[i] = float64(rng.Intn(7) - 3)
			case 2:
				col[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(80)-40)
			default:
				col[i] = rng.NormFloat64()
			}
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			x, y := col[a], col[b]
			switch {
			case x < y || (y != y && x == x):
				return -1
			case x > y || (x != x && y == y):
				return 1
			}
			return 0
		})
		got := make([]int32, n)
		Argsort(col, got)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: the argsort is not the stable sort's", n)
		}
	}
	constant := []float64{2.5, 2.5, 2.5}
	got := make([]int32, 3)
	Argsort(constant, got) // every byte position skipped
	if !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("constant column: order %v", got)
	}
}
