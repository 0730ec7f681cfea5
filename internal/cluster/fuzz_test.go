package cluster

import (
	"runtime"
	"testing"

	"bandjoin/internal/data"
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
				if p.s.Len() != len(p.sIDs) || p.t.Len() != len(p.tIDs) {
					t.Fatalf("partition %d holds %d/%d rows and %d/%d IDs", pid, p.s.Len(), p.t.Len(), len(p.sIDs), len(p.tIDs))
				}
			}
		}
	})
}
