// Package data provides the fundamental data model for distributed band-joins:
// relations stored as flat columnar-style key arrays, band-join conditions
// (symmetric and asymmetric), axis-aligned regions of the join-attribute space,
// and generators for the synthetic and real-like datasets used in the paper's
// evaluation (Pareto, reverse Pareto, ebird/cloud surrogates, PTF surrogate).
package data

import (
	"fmt"
	"slices"
)

// Relation is a collection of tuples participating in a band-join. Only the
// join attributes (the "key") are stored explicitly; any non-join payload is
// identified by the tuple index, which acts as a stable tuple ID.
//
// Keys are stored in a single flat slice in row-major order so that a relation
// with millions of tuples costs one allocation for the key data and produces
// no per-tuple garbage. Key(i) returns a subslice aliasing that storage.
type Relation struct {
	name string
	dims int
	keys []float64 // len == n*dims, row-major
}

// NewRelation returns an empty relation with the given name and number of
// join attributes (dimensions). It panics if dims < 1.
func NewRelation(name string, dims int) *Relation {
	if dims < 1 {
		panic(fmt.Sprintf("data: relation %q must have at least one dimension, got %d", name, dims))
	}
	return &Relation{name: name, dims: dims}
}

// NewRelationCapacity returns an empty relation with storage pre-allocated for
// n tuples.
func NewRelationCapacity(name string, dims, n int) *Relation {
	r := NewRelation(name, dims)
	if n > 0 {
		r.keys = make([]float64, 0, n*dims)
	}
	return r
}

// NewRelationFromKeys returns a relation that adopts the given flat key slice
// (row-major, len(keys) must be a multiple of dims). The slice is not copied;
// the caller must not modify it afterwards. This is the zero-copy constructor
// the parallel shuffle uses to wrap partition buffers it filled directly.
func NewRelationFromKeys(name string, dims int, keys []float64) *Relation {
	r := NewRelation(name, dims)
	if len(keys)%dims != 0 {
		panic(fmt.Sprintf("data: relation %q: %d key values is not a multiple of %d dimensions", name, len(keys), dims))
	}
	r.keys = keys
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Dims returns the number of join attributes.
func (r *Relation) Dims() int { return r.dims }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.keys) / r.dims }

// Key returns the join-attribute values of tuple i. The returned slice aliases
// the relation's storage and must not be modified or retained across Append.
func (r *Relation) Key(i int) []float64 {
	return r.keys[i*r.dims : (i+1)*r.dims : (i+1)*r.dims]
}

// KeyAt returns attribute d of tuple i without forming a subslice. It is the
// accessor hot loops use (e.g. building sort keys over one dimension).
func (r *Relation) KeyAt(i, d int) float64 {
	return r.keys[i*r.dims+d]
}

// Append adds a tuple with the given join-attribute values. It panics if the
// number of values does not match the relation's dimensionality.
func (r *Relation) Append(key ...float64) {
	if len(key) != r.dims {
		panic(fmt.Sprintf("data: relation %q expects %d join attributes, got %d", r.name, r.dims, len(key)))
	}
	r.keys = append(r.keys, key...)
}

// AppendKey adds a tuple without the variadic copy; key must have length Dims.
func (r *Relation) AppendKey(key []float64) {
	if len(key) != r.dims {
		panic(fmt.Sprintf("data: relation %q expects %d join attributes, got %d", r.name, r.dims, len(key)))
	}
	r.keys = append(r.keys, key...)
}

// AppendRows bulk-appends tuples [lo, hi) of src with a single copy. It panics
// if the dimensionalities differ or the range is out of bounds.
func (r *Relation) AppendRows(src *Relation, lo, hi int) {
	if src.dims != r.dims {
		panic(fmt.Sprintf("data: relation %q (%dD) cannot append rows of %q (%dD)", r.name, r.dims, src.name, src.dims))
	}
	if lo < 0 || hi > src.Len() || lo > hi {
		panic(fmt.Sprintf("data: AppendRows range [%d,%d) out of bounds for relation of %d tuples", lo, hi, src.Len()))
	}
	r.keys = append(r.keys, src.keys[lo*src.dims:hi*src.dims]...)
}

// Cap returns the number of tuples the key storage holds without reallocation.
func (r *Relation) Cap() int { return cap(r.keys) / r.dims }

// Reserve grows the key storage capacity so that n further tuples can be
// appended without reallocation.
func (r *Relation) Reserve(n int) {
	need := len(r.keys) + n*r.dims
	if cap(r.keys) >= need {
		return
	}
	grown := make([]float64, len(r.keys), need)
	copy(grown, r.keys)
	r.keys = grown
}

// KeysRange returns the row-major key storage of tuples [lo, hi) as a
// zero-copy view. The caller must not retain it across Append, and must treat
// it as read-only unless it owns rows it has just reserved with GrowRows: the
// one writer is exec's routed fill of a partition (AppendRouted and
// ExecutePlan), gathering its routed rows into them. It is also the slab the
// columnar wire encoder gathers from.
func (r *Relation) KeysRange(lo, hi int) []float64 {
	if lo < 0 || hi > r.Len() || lo > hi {
		panic(fmt.Sprintf("data: key range [%d,%d) out of bounds for relation of %d tuples", lo, hi, r.Len()))
	}
	return r.keys[lo*r.dims : hi*r.dims : hi*r.dims]
}

// GrowRows appends n tuples and returns the index of the first, so columnar
// decoders can reserve a block of rows and fill it one dimension at a time
// with SetColumn. Rows carved out of already reserved capacity are not
// cleared: their values are unspecified until every dimension has been set.
func (r *Relation) GrowRows(n int) int {
	base := r.Len()
	r.keys = slices.Grow(r.keys, n*r.dims)[:len(r.keys)+n*r.dims]
	return base
}

// Truncate drops every tuple from index n on, undoing a GrowRows whose
// columns could not all be filled.
func (r *Relation) Truncate(n int) {
	if n < 0 || n > r.Len() {
		panic(fmt.Sprintf("data: Truncate(%d) out of bounds for relation of %d tuples", n, r.Len()))
	}
	r.keys = r.keys[:n*r.dims]
}

// SetColumn overwrites attribute d of tuples [base, base+len(vals)) — one
// strided scatter per decoded column, the receiving half of the columnar wire
// format.
func (r *Relation) SetColumn(base, d int, vals []float64) {
	if d < 0 || d >= r.dims || base < 0 || base+len(vals) > r.Len() {
		panic(fmt.Sprintf("data: SetColumn(base=%d, d=%d, n=%d) out of bounds for %dD relation of %d tuples",
			base, d, len(vals), r.dims, r.Len()))
	}
	keys := r.keys[base*r.dims:]
	for i, v := range vals {
		keys[i*r.dims+d] = v
	}
}

// SetKey overwrites the join-attribute values of tuple i. It panics if the
// number of values does not match the relation's dimensionality. It exists for
// owned, mutable relations (e.g. a reservoir sample being merged); relations
// shared across goroutines must never be mutated through it.
func (r *Relation) SetKey(i int, key []float64) {
	if len(key) != r.dims {
		panic(fmt.Sprintf("data: relation %q expects %d join attributes, got %d", r.name, r.dims, len(key)))
	}
	copy(r.keys[i*r.dims:(i+1)*r.dims], key)
}

// Extend returns a new relation holding the receiver's tuples followed by
// delta's. The receiver is never mutated, so readers holding it (concurrent
// shuffles, sample draws) keep a consistent snapshot; when the receiver's
// storage has spare capacity the result appends into it in place (sharing the
// immutable prefix), otherwise the keys are copied once into storage grown
// with doubling headroom, so a chain of Extends costs amortized O(|delta|).
//
// Because an in-place extension writes past the receiver's length, only one
// lineage may ever extend a given relation: callers (the engine's Append path)
// must serialize Extends of the same relation and must always adopt the
// returned snapshot as the new head of the lineage.
func (r *Relation) Extend(delta *Relation) *Relation {
	if delta.dims != r.dims {
		panic(fmt.Sprintf("data: relation %q (%dD) cannot be extended by %q (%dD)", r.name, r.dims, delta.name, delta.dims))
	}
	need := len(r.keys) + len(delta.keys)
	keys := r.keys
	if cap(keys) < need {
		keys = make([]float64, len(r.keys), need+need/2)
		copy(keys, r.keys)
	}
	keys = append(keys, delta.keys...)
	return &Relation{name: r.name, dims: r.dims, keys: keys}
}

// Clone returns a deep copy of the relation, optionally under a new name.
func (r *Relation) Clone(name string) *Relation {
	if name == "" {
		name = r.name
	}
	out := &Relation{name: name, dims: r.dims, keys: make([]float64, len(r.keys))}
	copy(out.keys, r.keys)
	return out
}

// Slice returns a new relation containing tuples [lo, hi). The key data is
// copied so the result is independent of the receiver.
func (r *Relation) Slice(name string, lo, hi int) *Relation {
	if lo < 0 || hi > r.Len() || lo > hi {
		panic(fmt.Sprintf("data: slice [%d,%d) out of range for relation of %d tuples", lo, hi, r.Len()))
	}
	out := NewRelationCapacity(name, r.dims, hi-lo)
	out.AppendRows(r, lo, hi)
	return out
}

// Suffix returns tuples [lo, Len) as a zero-copy view under the receiver's
// name: an appended delta, routed or merged without a copy. The view stays
// valid because nothing writes below a relation's Len (Extend writes past
// it), and its capacity ends at the receiver's Len, so appending to the view
// copies instead of writing into the receiver's spare storage.
func (r *Relation) Suffix(lo int) *Relation {
	return &Relation{name: r.name, dims: r.dims, keys: r.KeysRange(lo, r.Len())}
}

// String implements fmt.Stringer.
func (r *Relation) String() string {
	return fmt.Sprintf("%s(%d tuples, %dD)", r.name, r.Len(), r.dims)
}
