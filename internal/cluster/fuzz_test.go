package cluster

import (
	"cmp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bandjoin/internal/data"
	"bandjoin/internal/exec"
)

// FuzzLoadArgs throws hostile Load arguments at a worker that holds a
// transient job ("j") and a sealed retained plan ("p"), each with a 2-d
// partition 0. The chunk itself is an honest encoding of `rows` rows of `dims`
// attributes (hostile chunk bytes are FuzzDecode's business); everything
// around it is the fuzzer's. Whatever arrives, Load must not panic, must leave
// every partition with as many IDs as rows, must not allocate beyond what
// TestHostileSideTotalReservesLittle allows a small chunk, and must refuse
// the arguments no coordinator sends: a negative partition, shipment number
// or expected count, a side other than S or T, a chunk whose dimensionality
// is not its partition's, a delta without retain.
func FuzzLoadArgs(f *testing.F) {
	f.Add(uint8(0), 0, "S", 0, 3, 0, false, false, uint8(3), uint8(1)) // an honest Load
	// The hostile seeds, one per refusal, are in testdata/fuzz/FuzzLoadArgs.
	f.Fuzz(func(t *testing.T, job uint8, partition int, side string, attempt, expectS, expectT int,
		retain, delta bool, rows, dims uint8) {
		w := NewWorker("fuzzed")
		seed := func(jobID string, retain bool) {
			for _, side := range []string{"S", "T"} {
				r := data.NewRelation(side, 2)
				r.Append(1, 2)
				r.Append(1.5, 2.5)
				if err := w.Load(&LoadArgs{JobID: jobID, Side: side, Columnar: chunkOf(r, []int64{0, 1}), Retain: retain}, &LoadReply{}); err != nil {
					t.Fatalf("seeding %s: %v", jobID, err)
				}
			}
		}
		seed("j", false)
		seed("p", true)
		if err := w.Seal(&SealArgs{PlanID: "p", Band: data.Symmetric(0.5, 0.5)}, &SealReply{}); err != nil {
			t.Fatalf("Seal: %v", err)
		}

		d := int(dims%8) + 1
		chunk := data.NewRelation("c", d)
		ids := make([]int64, rows)
		key := make([]float64, d)
		for i := range ids {
			ids[i] = int64(i)
			key[0] = float64(i) / 4
			chunk.AppendKey(key)
		}
		args := &LoadArgs{
			JobID: []string{"j", "p", "new"}[job%3], Partition: partition, Side: side, Columnar: chunkOf(chunk, ids),
			Attempt: attempt, ExpectS: expectS, ExpectT: expectT, Retain: retain, Delta: delta,
			Band: data.Symmetric(0.5, 0.5),
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := w.Load(args, &LoadReply{})
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("a %d-row, %d-d chunk announcing %d/%d rows allocated %d bytes", rows, d, expectS, expectT, grown)
		}
		resident := partition == 0 && (args.JobID == "j" && !retain || args.JobID == "p" && retain)
		hostile := partition < 0 || attempt < 0 || expectS < 0 || expectT < 0 || (delta && !retain) ||
			side != "S" && side != "T" || resident && d != 2
		if hostile && err == nil {
			t.Errorf("hostile Load accepted: %+v", args)
		}
		w.Drain(0) // a transient Load may have started a background prepare
		for _, job := range []*jobState{w.jobs["j"], w.jobs["new"], &w.retained["p"].jobState} {
			if job == nil {
				continue
			}
			for pid, p := range job.partitions {
				_, held, unlock := exec.LockForProbe([]*exec.Partition{p.part}, data.Symmetric(make([]float64, p.part.Dims())...), nil, 1)
				in := held[0]
				unlock()
				if in.S.Len() != len(in.SIDs) || in.T.Len() != len(in.TIDs) {
					t.Fatalf("partition %d holds %d/%d rows and %d/%d IDs", pid, in.S.Len(), in.T.Len(), len(in.SIDs), len(in.TIDs))
				}
			}
		}
	})
}

// joinFixture is a worker holding a transient job "j" and a sealed retained
// plan "p", each with the same two 2-d partitions (IDs pid*100 + row). The
// transient Loads announce their counts and the seed band, so a background
// build may be in flight or done when a Join arrives. It returns the worker
// and each partition's S and T.
func joinFixture(t testing.TB) (*Worker, [][2]*data.Relation) {
	seedBand := data.Symmetric(0.25, 0.25)
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
	for _, job := range []string{"j", "p"} {
		for pid, sides := range parts {
			for side, r := range sides {
				ids := make([]int64, r.Len())
				for i := range ids {
					ids[i] = int64(pid*100 + i)
				}
				args := &LoadArgs{JobID: job, Partition: pid, Side: []string{"S", "T"}[side], Columnar: chunkOf(r, ids), Retain: job == "p"}
				if job == "j" {
					args.ExpectS, args.ExpectT, args.Band = sides[0].Len(), sides[1].Len(), seedBand
				}
				if err := w.Load(args, &LoadReply{}); err != nil {
					t.Fatalf("seeding %s partition %d: %v", job, pid, err)
				}
			}
		}
	}
	if err := w.Seal(&SealArgs{PlanID: "p", Band: seedBand}, &SealReply{}); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return w, parts
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

// FuzzJoinArgs throws hostile Join arguments at joinFixture's worker: any job
// id (the transient job, the sealed plan, one it does not hold), either
// lifecycle, any parallelism and morsel size, with or without pairs, and any
// band — NaN, negative, infinite, or of the wrong dimensionality. Whatever
// arrives, Join must not panic; it must refuse an invalid band, a band whose
// dimensionality is not its partitions', and a retained join of a plan it
// does not hold sealed; and otherwise it must answer the band-join
// definition's pair count (and pairs, when collected) over the partitions the
// named job holds.
func FuzzJoinArgs(f *testing.F) {
	f.Add(uint8(0), false, 2, 0, true, 0.25, 0.25, 0.1, 0.1, uint8(1)) // an honest transient Join
	f.Add(uint8(1), true, 0, 3, false, 0.5, 0.0, 0.2, 0.0, uint8(1))   // an honest retained Join, another band
	// The hostile seeds are in testdata/fuzz/FuzzJoinArgs.
	f.Fuzz(func(t *testing.T, job uint8, retained bool, parallelism, morselRows int, collect bool,
		low0, high0, low1, high1 float64, bandDims uint8) {
		w, parts := joinFixture(t)
		defer w.Drain(0) // a transient Load may have started a background prepare
		d := int(bandDims%3) + 1
		band := data.Band{Low: []float64{low0, low1, low0}[:d], High: []float64{high0, high1, high0}[:d]}
		args := &JoinArgs{JobID: []string{"j", "p", "new"}[job%3], Band: band, CollectPairs: collect,
			Parallelism: parallelism, Retained: retained, MorselRows: morselRows}

		var reply JoinReply
		err := w.Join(args, &reply)
		holds := args.JobID == "p" && retained || args.JobID == "j" && !retained
		refused := band.Validate() != nil || holds && d != 2 || retained && args.JobID != "p"
		if refused {
			if err == nil {
				t.Fatalf("Join accepted %+v", args)
			}
			return
		}
		if err != nil {
			t.Fatalf("Join refused %+v: %v", args, err)
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
			t.Fatalf("Join %+v counted %d pairs, the definition has %d", args, got, len(want))
		}
		if collect && !slices.Equal(replyPairs(&reply), want) {
			t.Fatalf("Join %+v collected pairs that differ from the definition's", args)
		}
	})
}

// FuzzRegistryOps drives a worker's job table and retained-plan registry
// through up to 32 operations over two ids, one byte each: a transient or
// retained Load of one row with a shipment number 0–3, a Seal, a mid-query or
// final Reset, a numbered, final or all-plan Evict, and a transient or
// retained Join. Whatever the sequence, no call may panic, and every error must
// be the worker's own. Then, after a final Reset and a final Evict of both
// ids, every Load of the sequence lands again — late, as the network may
// deliver it — and must leave no job and no plan resident.
func FuzzRegistryOps(f *testing.F) {
	f.Add([]byte{41, 55, 1, 2, 0, 8, 26, 6, 4})
	// The seed that found the late-Load leak is in testdata/fuzz/FuzzRegistryOps.
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := NewWorker("fuzzed")
		defer w.Drain(0) // a transient Load may have started a background prepare
		band := data.Symmetric(0.5, 0.5)
		clean := func(what string, err error) {
			if err != nil && !strings.HasPrefix(err.Error(), "cluster: ") {
				t.Fatalf("%s: %v", what, err)
			}
		}
		var loads []*LoadArgs
		for _, op := range ops[:min(len(ops), 32)] {
			kind, id, attempt := op%9, []string{"a", "b"}[op/9%2], int(op/18%4)
			switch kind {
			case 0, 1:
				row := data.NewRelation("r", 2)
				row.Append(float64(op%4), 1)
				args := &LoadArgs{JobID: id, Side: []string{"S", "T"}[op/72%2], Columnar: chunkOf(row, []int64{int64(op)}),
					Attempt: attempt, Retain: kind == 1, ExpectS: 1, ExpectT: 1, Band: band}
				loads = append(loads, args)
				clean("Load", w.Load(args, &LoadReply{}))
			case 2:
				clean("Seal", w.Seal(&SealArgs{PlanID: id, Band: band}, &SealReply{}))
			case 3, 4:
				clean("Reset", w.Reset(&ResetArgs{JobID: id, Attempt: attempt + 1, Final: kind == 4}, &ResetReply{}))
			case 5:
				clean("Evict", w.Evict(&EvictArgs{PlanID: id, Attempt: attempt + 1}, &EvictReply{}))
			case 6:
				clean("Evict", w.Evict(&EvictArgs{PlanID: id}, &EvictReply{}))
			case 7:
				clean("Evict", w.Evict(&EvictArgs{}, &EvictReply{}))
			case 8:
				clean("Join", w.Join(&JoinArgs{JobID: id, Band: band, Retained: attempt%2 == 1, CollectPairs: true}, &JoinReply{}))
			}
		}
		for _, id := range []string{"a", "b"} {
			clean("Reset", w.Reset(&ResetArgs{JobID: id, Final: true}, &ResetReply{}))
			clean("Evict", w.Evict(&EvictArgs{PlanID: id}, &EvictReply{}))
		}
		for _, args := range loads {
			clean("late Load", w.Load(args, &LoadReply{}))
		}
		var pong PingReply
		if err := w.Ping(&PingArgs{}, &pong); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		if pong.Jobs != 0 || w.Retained() != 0 {
			t.Errorf("%d jobs and %d plans resident after every id was closed", pong.Jobs, w.Retained())
		}
	})
}
