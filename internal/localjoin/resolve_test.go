package localjoin

import (
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
