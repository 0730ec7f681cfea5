package localjoin

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bandjoin/internal/data"
)

// TestResolveS: the structure ResolveS returns for a reordered, grown S has
// exactly the lists Prepare would resolve for that S — whatever GOMAXPROCS
// splits the rows into — over the very T side it was handed (shared, not
// rebuilt), and leaves the structure it came from as it was.
func TestResolveS(t *testing.T) {
	s, tt, band := denseCellInputs(3 * resolveMinRows)
	sealed := s.Slice("s", 0, 2*resolveMinRows)
	old := Prepare(EpsGrid{}, sealed, tt, band).(*preparedEpsGrid)
	if got := UnresolvedS(old, s); got != resolveMinRows {
		t.Fatalf("UnresolvedS = %d for %d appended rows", got, resolveMinRows)
	}
	oldStarts, oldCells := slices.Clone(old.sStarts), slices.Clone(old.sCells)

	// The fold's S: every row, in another order.
	shuffled := data.NewRelationCapacity("s", 2, s.Len())
	for _, i := range rand.New(rand.NewSource(9)).Perm(s.Len()) {
		shuffled.AppendKey(s.Key(i))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := Prepare(EpsGrid{}, shuffled, tt, band).(*preparedEpsGrid)
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		got := ResolveS(old, shuffled).(*preparedEpsGrid)
		if !slices.Equal(got.sStarts, want.sStarts) || !slices.Equal(got.sCells, want.sCells) {
			t.Fatalf("GOMAXPROCS=%d: the resolved lists differ from one serial Prepare's", procs)
		}
		if &got.g.rows[0] != &old.g.rows[0] || &got.g.tab[0] != &old.g.tab[0] || &got.g.starts[0] != &old.g.starts[0] {
			t.Fatalf("GOMAXPROCS=%d: ResolveS rebuilt the T side", procs)
		}
		if UnresolvedS(got, shuffled) != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d rows left unresolved", procs, UnresolvedS(got, shuffled))
		}
		if n, m := got.Probe(shuffled, nil), want.Probe(shuffled, nil); n != m || n == 0 {
			t.Fatalf("GOMAXPROCS=%d: probe counts %d pairs, Prepare's structure %d", procs, n, m)
		}
	}
	if !slices.Equal(old.sStarts, oldStarts) || !slices.Equal(old.sCells, oldCells) {
		t.Fatal("ResolveS modified the structure it was given")
	}

	// Structures without per-row S state come back as they are.
	for _, alg := range []Algorithm{SortProbe{}, GridSortScan{}} {
		p := Prepare(alg, sealed, tt, band)
		if UnresolvedS(p, s) != 0 || ResolveS(p, s) != p {
			t.Errorf("%s: a structure without cell lists reports unresolved rows or was replaced", alg.Name())
		}
	}
	if UnresolvedS(nil, s) != 0 || ResolveS(nil, s) != nil {
		t.Error("no structure: unresolved rows or a structure out of nothing")
	}
}

// TestReleaseIsForSoleOwners: Release recycles only a PrepareOnce ε-grid no
// other structure shares. Released beside a Prepare structure, a non-grid
// PrepareOnce structure, nil, and a PrepareOnce grid that ResolveS has shared,
// then churned by PrepareOnce builds over other inputs, every survivor still
// probes exactly the nested loop's pairs; a sole owner's grid is rebuilt in by
// the next PrepareOnce.
func TestReleaseIsForSoleOwners(t *testing.T) {
	s, tt, band := denseCellInputs(2 * resolveMinRows)
	other, otherT := data.ParetoPair(2, 1.2, resolveMinRows, 7)
	otherBand := data.Uniform(2, 0.05)
	pairs := func(probe func(Emit) int64) [][2]int {
		var out [][2]int
		probe(func(si, ti int, _, _ []float64) { out = append(out, [2]int{si, ti}) })
		slices.SortFunc(out, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })
		return out
	}
	want := pairs(func(emit Emit) int64 { return NestedLoop{}.Join(s, tt, band, emit) })
	if len(want) == 0 {
		t.Fatal("the nested loop has no pairs; the inputs exercise nothing")
	}

	prepared := Prepare(EpsGrid{}, s, tt, band)
	sorted := PrepareOnce(GridSortScan{}, s, tt, band)
	once := PrepareOnce(EpsGrid{}, s, tt, band)
	shared := ResolveS(once, s)
	for _, p := range []PreparedT{nil, prepared, sorted, once, shared} {
		Release(p)
	}
	for range 4 {
		Release(PrepareOnce(EpsGrid{}, other, otherT, otherBand))
	}
	for name, p := range map[string]PreparedT{"Prepare": prepared, "PrepareOnce sort-scan": sorted, "PrepareOnce shared by ResolveS": once, "ResolveS": shared} {
		if got := pairs(func(emit Emit) int64 { return p.Probe(s, emit) }); !slices.Equal(got, want) {
			t.Errorf("%s: %d pairs after the releases, the nested loop has %d (or they differ)", name, len(got), len(want))
		}
	}

	// A sole owner's grid goes back to the pool, once.
	sole := PrepareOnce(EpsGrid{}, s, tt, band).(*preparedEpsGrid)
	Release(sole)
	Release(sole)
	if sole.pooled.Load() {
		t.Error("a released grid is still marked as its owner's")
	}
	if !raceEnabled { // the race detector's pool drops items at random
		if next := PrepareOnce(EpsGrid{}, other, otherT, otherBand); next != PreparedT(sole) {
			t.Error("the next PrepareOnce did not build in the released grid")
		}
	}
}
