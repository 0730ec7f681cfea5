package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/onebucket"
)

// fillEntry gives e partition pid with n lattice rows a side.
func fillEntry(e *Entry[int], pid, n int) {
	rng := rand.New(rand.NewSource(int64(pid)))
	p := e.Partition(pid, 2)
	s, sIDs := latticeRows(rng, n, 0)
	t, tIDs := latticeRows(rng, n, 0)
	appendRows(p, false, s, sIDs)
	appendRows(p, true, t, tIDs)
}

// entryBytes is Bytes over every partition of the registry's entries under ids.
func entryBytes(r *Registry[int], ids ...string) int64 {
	var parts []*Partition
	for _, id := range ids {
		if e := r.Get(id); e != nil {
			_, ps := e.Partitions()
			parts = append(parts, ps...)
		}
	}
	return Bytes(parts)
}

// TestRegistryOpenDeleteClear: Open creates an entry once and returns it after;
// Delete drops only the entry it is given, so a stale one cannot drop the entry
// that replaced it; Clear drops all; Len and Bytes count what is there, and an
// entry's partitions are listed in id order with the ids Partition made.
func TestRegistryOpenDeleteClear(t *testing.T) {
	var r Registry[int]
	if r.Get("a") != nil || r.Len() != 0 || r.Bytes() != 0 || r.Delete(nil) || r.Clear() != 0 {
		t.Fatal("the zero registry is not empty")
	}
	a := r.Open("a")
	if r.Open("a") != a || r.Get("a") != a || a.Sealed() {
		t.Fatal("Open did not return the one unsealed entry it made")
	}
	fillEntry(a, 7, 5)
	fillEntry(a, 2, 9)
	if p := a.Partition(7, 2); a.Partition(7, 2) != p {
		t.Fatal("Partition made a second partition 7")
	}
	pids, parts := a.Partitions()
	if !slices.Equal(pids, []int{2, 7}) || parts[0] != a.Partition(2, 2) || parts[1] != a.Partition(7, 2) {
		t.Fatalf("Partitions listed %v", pids)
	}
	b := r.Open("b")
	fillEntry(b, 0, 3)
	if r.Len() != 2 || r.Bytes() != entryBytes(&r, "a", "b") || r.Bytes() != (2*14+2*3)*(2*8+8) {
		t.Fatalf("Len %d, Bytes %d, want 2 and %d", r.Len(), r.Bytes(), entryBytes(&r, "a", "b"))
	}

	if !r.Delete(a) || r.Delete(a) || r.Get("a") != nil {
		t.Fatal("Delete did not drop a exactly once")
	}
	a2 := r.Open("a")
	if a2 == a || r.Delete(a) || r.Get("a") != a2 {
		t.Fatal("a stale entry's Delete dropped the entry that replaced it")
	}
	if r.Len() != 2 || r.Bytes() != entryBytes(&r, "b") {
		t.Fatalf("after the delete: Len %d, Bytes %d, want 2 and %d", r.Len(), r.Bytes(), entryBytes(&r, "b"))
	}
	if n := r.Clear(); n != 2 || r.Len() != 0 || r.Get("b") != nil || r.Bytes() != 0 {
		t.Fatalf("Clear dropped %d, left %d", n, r.Len())
	}
}

// TestRegistrySealCap: Seal seals an entry's partitions, and with a limit
// evicts the least recently sealed entries past it, never an unsealed one and
// never the entry just sealed, even when that leaves the registry past the
// limit.
func TestRegistrySealCap(t *testing.T) {
	var r Registry[int]
	band := data.Symmetric(0.5, 0.5)
	seal := func(id string, wantEvicted int, wantIDs ...string) {
		t.Helper()
		e := r.Open(id)
		if n := r.Seal(e, band, 2); n != wantEvicted || !e.Sealed() {
			t.Fatalf("sealing %s evicted %d, want %d (sealed %v)", id, n, wantEvicted, e.Sealed())
		}
		var ids []string
		for _, id := range []string{"a", "b", "c", "u", "v"} {
			if r.Get(id) != nil {
				ids = append(ids, id)
			}
		}
		if !slices.Equal(ids, wantIDs) {
			t.Fatalf("after sealing %s the registry holds %v, want %v", id, ids, wantIDs)
		}
	}

	fillEntry(r.Open("u"), 0, 50) // unsealed throughout: a fill in progress
	a := r.Open("a")
	fillEntry(a, 0, 50)
	seal("a", 0, "a", "u")
	if pids, parts := a.Partitions(); len(pids) != 1 || !dim0Sorted(parts[0].s) || parts[0].band == "" {
		t.Fatal("Seal did not presort and prepare the entry's partition")
	}
	seal("b", 1, "b", "u")      // a is the oldest sealed
	seal("a", 1, "a", "u")      // a anew: b is the oldest sealed
	r.Open("v")                 // a second fill in progress
	seal("a", 0, "a", "u", "v") // past the limit, but only unsealed others remain
	seal("c", 1, "c", "u", "v") // a goes, then only unsealed others remain
	if r.Seal(r.Open("b"), band, 0); r.Len() != 4 {
		t.Fatalf("an unlimited Seal left %d entries, want 4", r.Len())
	}
}

// TestRegistryBytesDoesNotWaitOnFill: a scrape's Bytes returns while another
// goroutine holds an entry's Fill for writing, as the in-process plane does
// through a whole cold fill.
func TestRegistryBytesDoesNotWaitOnFill(t *testing.T) {
	var r Registry[int]
	e := r.Open("a")
	fillEntry(e, 0, 10)
	locked, release := make(chan struct{}), make(chan struct{})
	go func() {
		e.Fill.Lock()
		close(locked)
		<-release
		e.Fill.Unlock()
	}()
	<-locked
	defer close(release)
	got := make(chan int64, 1)
	go func() { got <- r.Bytes() }()
	select {
	case b := <-got:
		if b != entryBytes(&r, "a") {
			t.Errorf("Bytes %d, want %d", b, entryBytes(&r, "a"))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Bytes waited on a held Fill")
	}
}

// TestRegistryConcurrentOps runs Open, Partition, appends, Seal with a limit,
// Delete, Len and Bytes from several goroutines at once, for the race
// detector; the registry must end holding no more sealed entries than its
// limit.
func TestRegistryConcurrentOps(t *testing.T) {
	var r Registry[int]
	band := data.Symmetric(0.5, 0.5)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprint(i % 6)
				e := r.Open(id)
				fillEntry(e, i%3, 4)
				switch i % 4 {
				case 0:
					r.Seal(e, band, 3)
				case 1:
					r.Delete(e)
				default:
					r.Len()
					r.Bytes()
					e.Partitions()
				}
			}
		}()
	}
	wg.Wait()
	sealed := 0
	for i := 0; i < 6; i++ {
		if e := r.Get(fmt.Sprint(i)); e != nil && e.Sealed() {
			sealed++
		}
	}
	if sealed > 3 {
		t.Errorf("%d sealed entries resident under a limit of 3", sealed)
	}
}

// TestEntryCatchUpRule: CatchUp hands nothing to its delivery while the entry
// is unsealed (an eager catch-up of a cold fill in progress) or covers the
// relations; once sealed and short, it delivers the rows past the covered
// prefixes, tuple IDs offset by them. A failed delivery advances neither the
// prefixes nor the routed total, so the next CatchUp delivers the same rows.
func TestEntryCatchUpRule(t *testing.T) {
	ctx := context.Background()
	s, tt := data.ParetoPair(2, 1.5, 300, 7)
	band := data.Symmetric(0.2, 0.2)
	plan := planFor(t, onebucket.New(), s, tt, band, 4)
	fillS, fillT := s.Slice("S", 0, 200), tt.Slice("T", 0, 250)

	var r Registry[struct{}]
	e := r.Open("p")
	var got []*Routed
	var fail error
	deliver := func(rt *Routed) error {
		got = append(got, rt)
		return fail
	}
	if _, _, err := e.CatchUp(ctx, plan, s, tt, deliver); err != nil || len(got) != 0 {
		t.Fatalf("CatchUp of an unsealed entry: err %v, %d deliveries; want none", err, len(got))
	}
	e.Fill.Lock()
	err := e.Absorb(ctx, plan, fillS, fillT, deliver)
	e.Fill.Unlock()
	if err != nil {
		t.Fatalf("Absorb: %v", err)
	}
	r.Seal(e, band, 0)
	filled := got[0].TotalInput
	if total, _, err := e.CatchUp(ctx, plan, fillS, fillT, deliver); err != nil || len(got) != 1 || total != filled {
		t.Fatalf("CatchUp of a fresh entry: err %v, %d deliveries, total %d; want 1 delivery, total %d", err, len(got), total, filled)
	}

	fail = errors.New("delivery refused")
	for range 2 {
		if _, _, err := e.CatchUp(ctx, plan, s, tt, deliver); !errors.Is(err, fail) {
			t.Fatalf("CatchUp with a refused delivery: err %v, want %v", err, fail)
		}
		if rt := got[len(got)-1]; rt.S.Base != 200 || rt.T.Base != 250 {
			t.Fatalf("the catch-up routed from rows %d and %d, want 200 and 250", rt.S.Base, rt.T.Base)
		}
	}
	fail = nil
	total, absorbed, err := e.CatchUp(ctx, plan, s, tt, deliver)
	if err != nil || len(got) != 4 || absorbed <= 0 {
		t.Fatalf("CatchUp after the refusals: err %v, %d deliveries, absorbed %v; want a fourth delivery", err, len(got), absorbed)
	}
	if want := filled + got[3].TotalInput; total != want || got[3].S.Base != 200 || got[3].T.Base != 250 {
		t.Errorf("after the catch-up the total is %d from rows %d and %d, want %d from 200 and 250", total, got[3].S.Base, got[3].T.Base, want)
	}
	if _, _, err := e.CatchUp(ctx, plan, s, tt, deliver); err != nil || len(got) != 4 {
		t.Errorf("CatchUp of a caught-up entry: err %v, %d deliveries; want still 4", err, len(got))
	}
}
