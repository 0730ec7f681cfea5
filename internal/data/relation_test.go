package data

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRelationPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRelation accepted zero dimensions")
		}
	}()
	NewRelation("bad", 0)
}

func TestRelationAppendAndKey(t *testing.T) {
	r := NewRelation("r", 3)
	r.Append(1, 2, 3)
	r.Append(4, 5, 6)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.Key(1); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Errorf("Key(1) = %v, want [4 5 6]", got)
	}
	if r.Dims() != 3 {
		t.Errorf("Dims = %d, want 3", r.Dims())
	}
}

func TestRelationAppendPanicsOnWrongArity(t *testing.T) {
	r := NewRelation("r", 2)
	defer func() {
		if recover() == nil {
			t.Error("Append accepted a key of wrong arity")
		}
	}()
	r.Append(1)
}

func TestRelationCloneIsIndependent(t *testing.T) {
	r := NewRelation("orig", 1)
	r.Append(1)
	c := r.Clone("copy")
	c.Append(2)
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone is not independent: orig %d, copy %d", r.Len(), c.Len())
	}
	if c.Name() != "copy" {
		t.Errorf("clone name = %q", c.Name())
	}
	if r.Clone("").Name() != "orig" {
		t.Error("Clone with empty name should keep the original name")
	}
}

func TestRelationSlice(t *testing.T) {
	r := NewRelation("r", 1)
	for i := 0; i < 10; i++ {
		r.Append(float64(i))
	}
	s := r.Slice("mid", 3, 7)
	if s.Len() != 4 {
		t.Fatalf("Slice len = %d, want 4", s.Len())
	}
	if s.Key(0)[0] != 3 || s.Key(3)[0] != 6 {
		t.Errorf("Slice content wrong: %v .. %v", s.Key(0), s.Key(3))
	}
	defer func() {
		if recover() == nil {
			t.Error("Slice accepted an out-of-range interval")
		}
	}()
	r.Slice("bad", 5, 20)
}

func TestRelationStringer(t *testing.T) {
	r := NewRelation("r", 2)
	r.Append(1, 2)
	if got := r.String(); got == "" {
		t.Error("String() is empty")
	}
}

// TestRelationKeyRoundTrip is a property test: any appended key is read back
// verbatim at its index.
func TestRelationKeyRoundTrip(t *testing.T) {
	f := func(keys [][3]float64) bool {
		r := NewRelation("q", 3)
		for _, k := range keys {
			r.Append(k[0], k[1], k[2])
		}
		if r.Len() != len(keys) {
			return false
		}
		for i, k := range keys {
			got := r.Key(i)
			if got[0] != k[0] || got[1] != k[1] || got[2] != k[2] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestNewRelationFromKeys(t *testing.T) {
	keys := []float64{1, 2, 3, 4, 5, 6}
	r := NewRelationFromKeys("f", 2, keys)
	if r.Len() != 3 || r.Dims() != 2 {
		t.Fatalf("got %d tuples x %dD, want 3 x 2D", r.Len(), r.Dims())
	}
	if k := r.Key(1); k[0] != 3 || k[1] != 4 {
		t.Errorf("Key(1) = %v, want [3 4]", k)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRelationFromKeys accepted a non-multiple key slice")
		}
	}()
	NewRelationFromKeys("bad", 2, []float64{1, 2, 3})
}

func TestAppendRows(t *testing.T) {
	src := NewRelation("src", 2)
	for i := 0; i < 5; i++ {
		src.Append(float64(i), float64(10*i))
	}
	dst := NewRelation("dst", 2)
	dst.Append(-1, -2)
	dst.AppendRows(src, 1, 4)
	if dst.Len() != 4 {
		t.Fatalf("Len = %d, want 4", dst.Len())
	}
	for i := 0; i < 3; i++ {
		want := src.Key(i + 1)
		got := dst.Key(i + 1)
		if got[0] != want[0] || got[1] != want[1] {
			t.Errorf("row %d = %v, want %v", i+1, got, want)
		}
	}
	// Appended rows are copies, not aliases.
	src.Key(1)[0] = 999
	if dst.Key(1)[0] == 999 {
		t.Error("AppendRows aliased the source storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("AppendRows accepted mismatched dimensionality")
		}
	}()
	other := NewRelation("o", 3)
	other.Append(1, 2, 3)
	dst.AppendRows(other, 0, 1)
}

func TestAppendRowsRangeChecks(t *testing.T) {
	src := NewRelation("src", 1)
	src.Append(1)
	dst := NewRelation("dst", 1)
	defer func() {
		if recover() == nil {
			t.Error("AppendRows accepted an out-of-range interval")
		}
	}()
	dst.AppendRows(src, 0, 2)
}

func TestKeyAt(t *testing.T) {
	r := NewRelation("k", 3)
	r.Append(1, 2, 3)
	r.Append(4, 5, 6)
	if r.KeyAt(1, 2) != 6 || r.KeyAt(0, 0) != 1 {
		t.Errorf("KeyAt mismatch: got (%g, %g)", r.KeyAt(1, 2), r.KeyAt(0, 0))
	}
}

func TestReserve(t *testing.T) {
	r := NewRelation("r", 2)
	r.Append(1, 2)
	r.Reserve(100)
	before := &r.keys[0]
	for i := 0; i < 100; i++ {
		r.Append(float64(i), float64(i))
	}
	if &r.keys[0] != before {
		t.Error("Reserve did not prevent reallocation")
	}
	if r.Len() != 101 {
		t.Errorf("Len = %d, want 101", r.Len())
	}
}

func TestGrowRowsSetColumn(t *testing.T) {
	r := NewRelation("g", 3)
	r.Append(1, 2, 3)
	base := r.GrowRows(4)
	if base != 1 || r.Len() != 5 {
		t.Fatalf("GrowRows: base=%d len=%d", base, r.Len())
	}
	for d := 0; d < 3; d++ {
		col := []float64{10 + float64(d), 20 + float64(d), 30 + float64(d), 40 + float64(d)}
		r.SetColumn(base, d, col)
	}
	for i := 0; i < 4; i++ {
		for d := 0; d < 3; d++ {
			want := float64((i+1)*10 + d)
			if got := r.KeyAt(base+i, d); got != want {
				t.Fatalf("row %d dim %d = %v, want %v", i, d, got, want)
			}
		}
	}
	slab := r.KeysRange(1, 3)
	if len(slab) != 6 || slab[0] != 10 || slab[5] != 22 {
		t.Fatalf("KeysRange view wrong: %v", slab)
	}
}
