package cluster

import (
	"cmp"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bandjoin/internal/data"
	"bandjoin/internal/exec"
)

// shipmentFixture is a worker holding a sealed retained plan "p" with a 2-d
// partition 0, for a shipment to land beside or in.
func shipmentFixture(t *testing.T) *Worker {
	w := NewWorker("fuzzed")
	r := data.NewRelation("r", 2)
	r.Append(1, 2)
	r.Append(1.5, 2.5)
	if _, err := ship(w, toPlan("p"), testPart{s: r, t: r}); err != nil {
		t.Fatalf("seeding p: %v", err)
	}
	if err := w.Seal(&SealArgs{PlanID: "p", Band: data.Symmetric(0.5, 0.5)}, &SealReply{}); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return w
}

// FuzzShipment throws arbitrary bytes, as the stream after the magic, at
// shipmentFixture's worker. Whatever arrives, the worker must not panic, must
// answer with its own error or none, must leave every partition with as many
// IDs as rows, and must hold nothing of a one-shot stream once it has
// answered. The checked-in seeds are one refusal each: a chunk whose
// dimensionality is not its partition's, a delta that names no plan, counts
// past their bounds (the negative shipment numbers, partition ids and row
// counts of the RPC this stream replaced), an unknown frame, and a partition
// announcing 2^40 rows.
func FuzzShipment(f *testing.F) {
	r := data.NewRelation("r", 2)
	r.Append(1, 2)
	r.Append(1.25, 2.25)
	f.Add(encodeShipment(oneShotOf(data.Symmetric(0.5, 0.5)), testPart{s: r, t: r}.frames)) // an honest one-shot stream
	f.Fuzz(func(t *testing.T, stream []byte) {
		w := shipmentFixture(t)
		ids := []string{"p"} // the plans the stream may have touched
		w.SetShipHook(func(ev *ShipEvent) error {
			if ev.At == ShipOpen {
				ids = append(ids, ev.PlanID)
			}
			return nil
		})
		_, err := shipBytes(w, stream)
		if err != nil && !strings.HasPrefix(err.Error(), "cluster: ") {
			t.Fatalf("the stream ended with an error not the worker's: %v", err)
		}
		w.Drain(0)
		if n, b := w.oneShots.Load(), w.oneShotBytes.Load(); n != 0 || b != 0 {
			t.Fatalf("%d one-shot streams holding %d bytes open after the reply", n, b)
		}
		for _, id := range ids {
			e := w.retained.Get(id)
			if e == nil {
				continue
			}
			pids, parts := e.Partitions()
			for i, p := range parts {
				pid := pids[i]
				_, _, held, unlock := exec.LockForProbe([]int{pid}, []*exec.Partition{p}, data.Symmetric(make([]float64, p.Dims())...), nil)
				in := held[0]
				unlock()
				if in.S.Len() != len(in.SIDs) || in.T.Len() != len(in.TIDs) {
					t.Fatalf("plan %q partition %d holds %d/%d rows and %d/%d IDs", id, pid, in.S.Len(), in.T.Len(), len(in.SIDs), len(in.TIDs))
				}
			}
		}
	})
}

// TestShipmentSeedsRefuseAsNamed runs every checked-in FuzzShipment seed at
// shipmentFixture's worker and requires the refusal the seed is named for.
// FuzzShipment itself only checks that nothing panics, so without this a
// change to the stream's header could leave every seed failing early on some
// other check, and the corpus would test nothing.
func TestShipmentSeedsRefuseAsNamed(t *testing.T) {
	want := map[string]string{
		"chunk-dims-not-partition-dims": "partition 0 chunk has 4 dims, want 2",
		"delta-without-retain":          "a delta shipment names no retained plan",
		"negative-attempt-on-delta":     "a shipment header of 0 dimensions, shipment 18446744073709551615",
		"negative-expect-s":             "a partition frame of partition 0, 18446744073709551615 and 2 rows",
		"negative-partition":            "a partition frame of partition 18446744073709551615, 3 and 0 rows",
		"negative-side-total":           "a partition frame of partition 7, 0 and 18446744073709551611 rows",
		"side-neither-s-nor-t":          "unknown frame 0x55",
		"side-total-2-to-the-40":        "reading a chunk of partition 0: unexpected EOF",
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzShipment/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("%d seeds in testdata/fuzz/FuzzShipment, %d named here", len(files), len(want))
	}
	for _, file := range files {
		name := filepath.Base(file)
		refusal, ok := want[name]
		if !ok {
			t.Errorf("seed %s has no expected refusal", name)
			continue
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		stream, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if header != "go test fuzz v1" || !ok || err != nil {
			t.Fatalf("seed %s is not one []byte value: %v", name, err)
		}
		_, err = shipBytes(shipmentFixture(t), []byte(stream))
		if err == nil || !strings.Contains(err.Error(), refusal) {
			t.Errorf("seed %s: got %v, want a refusal containing %q", name, err, refusal)
		}
	}
}

// joinFixture is a worker holding a sealed retained plan "p" of two 2-d
// partitions (IDs pid*100 + row), and those partitions, which a one-shot
// stream (joinOneShot) ships as job "j". It returns the worker and each
// partition's S and T.
func joinFixture(t testing.TB) (*Worker, [][2]*data.Relation) {
	w := NewWorker("join-fixture")
	parts := make([][2]*data.Relation, 2)
	for pid := range parts {
		for side := range parts[pid] {
			r := data.NewRelation([]string{"S", "T"}[side], 2)
			for i := 0; i < 12; i++ {
				r.Append(float64(pid)+float64(i*(side+2)%7)/8, float64(i%(3+side))/5)
			}
			parts[pid][side] = r
		}
	}
	if _, err := ship(w, toPlan("p"), fixtureParts(parts)...); err != nil {
		t.Fatalf("seeding p: %v", err)
	}
	if err := w.Seal(&SealArgs{PlanID: "p", Band: data.Symmetric(0.25, 0.25)}, &SealReply{}); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return w, parts
}

// fixtureParts are joinFixture's partitions as a shipment's.
func fixtureParts(parts [][2]*data.Relation) []testPart {
	var out []testPart
	for pid, sides := range parts {
		ids := make([]int64, sides[0].Len())
		for i := range ids {
			ids[i] = int64(pid*100 + i)
		}
		out = append(out, testPart{pid: pid, s: sides[0], t: sides[1], sIDs: ids, tIDs: ids})
	}
	return out
}

// joinOneShot joins parts through a one-shot stream under args (its PlanID
// aside).
func joinOneShot(w *Worker, parts [][2]*data.Relation, args *JoinArgs) (*JoinReply, error) {
	hdr := ShipHeader{JoinArgs: *args}
	hdr.PlanID = ""
	return ship(w, hdr, fixtureParts(parts)...)
}

// joinFixtureDefinition is the band-join of joinFixture's partitions by the
// nested loop, as (S ID, T ID) pairs sorted like Result.Pairs.
func joinFixtureDefinition(parts [][2]*data.Relation, band data.Band) []exec.Pair {
	var out []exec.Pair
	for pid, sides := range parts {
		for _, p := range definitionPairs(sides[0], sides[1], band) {
			out = append(out, exec.Pair{S: int64(pid*100) + p.S, T: int64(pid*100) + p.T})
		}
	}
	return out
}

// replyPairs flattens a Join reply's collected pairs, sorted like
// Result.Pairs.
func replyPairs(reply *JoinReply) []exec.Pair {
	var out []exec.Pair
	for _, ps := range reply.Partitions {
		for k := range ps.PairS {
			out = append(out, exec.Pair{S: ps.PairS[k], T: ps.PairT[k]})
		}
	}
	slices.SortFunc(out, func(a, b exec.Pair) int {
		return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.T, b.T))
	})
	return out
}

// FuzzJoinArgs throws hostile join arguments at joinFixture's worker: any job
// (the fixture's partitions in a one-shot stream, the sealed plan, one it does
// not hold), either lifecycle, any morsel size, with or
// without pairs, and any band — NaN, negative, infinite, or of the wrong
// dimensionality. A retained join is the Join RPC; a one-shot one is a stream
// carrying job "j"'s partitions, or none for another job. Whatever arrives,
// the worker must not panic; it must refuse an invalid band, a band whose
// dimensionality is not its partitions', and a retained join of a plan it
// does not hold sealed; and otherwise it must answer the band-join
// definition's pair count (and pairs, when collected) over the partitions the
// named job holds.
func FuzzJoinArgs(f *testing.F) {
	f.Add(uint8(0), false, 0, true, 0.25, 0.25, 0.1, 0.1, uint8(1)) // an honest one-shot join
	f.Add(uint8(1), true, 3, false, 0.5, 0.0, 0.2, 0.0, uint8(1))   // an honest retained Join, another band
	// The hostile seeds are in testdata/fuzz/FuzzJoinArgs.
	f.Fuzz(func(t *testing.T, job uint8, retained bool, morselRows int, collect bool,
		low0, high0, low1, high1 float64, bandDims uint8) {
		w, parts := joinFixture(t)
		d := int(bandDims%3) + 1
		band := data.Band{Low: []float64{low0, low1, low0}[:d], High: []float64{high0, high1, high0}[:d]}
		args := &JoinArgs{PlanID: []string{"j", "p", "new"}[job%3], Band: band, CollectPairs: collect,
			MorselRows: morselRows}

		reply := &JoinReply{}
		var err error
		switch {
		case retained:
			err = w.Join(args, reply)
		case args.PlanID == "j":
			reply, err = joinOneShot(w, parts, args)
		default:
			reply, err = joinOneShot(w, nil, args)
		}
		holds := args.PlanID == "p" && retained || args.PlanID == "j" && !retained
		refused := band.Validate() != nil || holds && d != 2 || retained && args.PlanID != "p"
		if refused {
			if err == nil {
				t.Fatalf("join accepted %+v (retained %v)", args, retained)
			}
			return
		}
		if err != nil {
			t.Fatalf("join refused %+v (retained %v): %v", args, retained, err)
		}
		var want []exec.Pair
		if holds {
			want = joinFixtureDefinition(parts, band)
		}
		var got int64
		for _, ps := range reply.Partitions {
			got += ps.Output
		}
		if got != int64(len(want)) {
			t.Fatalf("join %+v counted %d pairs, the definition has %d", args, got, len(want))
		}
		if collect && !slices.Equal(replyPairs(reply), want) {
			t.Fatalf("join %+v collected pairs that differ from the definition's", args)
		}
	})
}

// FuzzRegistryOps drives a worker's retained-plan registry, and its one-shot
// streams, through up to 32 operations over two ids, one byte each: a
// one-shot, retained or delta stream of one row with a shipment number 0–3, a
// Seal, a numbered, final or all-plan Evict, and a Join. Whatever the
// sequence, no call may panic, and every error must be the worker's own.
// Then, after a final Evict of both ids, every stream and every Seal of the
// sequence lands again — late, as the network may deliver it — and must leave
// no stream open and no plan resident.
func FuzzRegistryOps(f *testing.F) {
	f.Add([]byte{35, 49, 1, 2, 0, 4, 23, 6, 3})
	// The seed that found the late-stream leak is in testdata/fuzz/FuzzRegistryOps.
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := NewWorker("fuzzed")
		band := data.Symmetric(0.5, 0.5)
		clean := func(what string, err error) {
			if err != nil && !strings.HasPrefix(err.Error(), "cluster: ") {
				t.Fatalf("%s: %v", what, err)
			}
		}
		var late []func() error
		for _, op := range ops[:min(len(ops), 32)] {
			kind, id, attempt := op%8, []string{"a", "b"}[op/8%2], int(op/16%4)
			switch kind {
			case 0, 1, 7:
				row := data.NewRelation("r", 2)
				row.Append(float64(op%4), 1)
				p := testPart{s: row, sIDs: []int64{int64(op)}}
				if op/64%2 == 1 {
					p = testPart{t: row, tIDs: []int64{int64(op)}}
				}
				hdr := ShipHeader{JoinArgs: JoinArgs{Band: band}, Attempt: attempt}
				if kind != 0 {
					hdr.PlanID, hdr.Delta = id, kind == 7
				}
				stream := func() error {
					_, err := ship(w, hdr, p)
					return err
				}
				late = append(late, stream)
				clean("stream", stream())
			case 2:
				seal := func() error { return w.Seal(&SealArgs{PlanID: id, Band: band}, &SealReply{}) }
				late = append(late, seal)
				clean("Seal", seal())
			case 3:
				clean("Evict", w.Evict(&EvictArgs{PlanID: id, Attempt: attempt + 1}, &EvictReply{}))
			case 4:
				clean("Evict", w.Evict(&EvictArgs{PlanID: id}, &EvictReply{}))
			case 5:
				clean("Evict", w.Evict(&EvictArgs{}, &EvictReply{}))
			case 6:
				clean("Join", w.Join(&JoinArgs{PlanID: id, Band: band, CollectPairs: true}, &JoinReply{}))
			}
		}
		for _, id := range []string{"a", "b"} {
			clean("Evict", w.Evict(&EvictArgs{PlanID: id}, &EvictReply{}))
		}
		for _, call := range late {
			clean("late call", call())
		}
		var pong PingReply
		if err := w.Ping(&PingArgs{}, &pong); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		if pong.Jobs != 0 || w.Retained() != 0 {
			t.Errorf("%d streams open and %d plans resident after every id was closed", pong.Jobs, w.Retained())
		}
	})
}
