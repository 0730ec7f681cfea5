package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/onebucket"
	"bandjoin/internal/wire"
)

// decimalPair returns a Pareto pair with keys quantized to three decimals —
// the fixed-precision shape (PTF-style) the columnar format bit-packs.
// Full-entropy float64 mantissas ship raw64 by design.
func decimalPair(dims, n int, seed int64) (*data.Relation, *data.Relation) {
	s, t := data.ParetoPair(dims, 1.4, n, seed)
	quantize := func(r *data.Relation) *data.Relation {
		q := data.NewRelationCapacity(r.Name(), r.Dims(), r.Len())
		k := make([]float64, r.Dims())
		for i := 0; i < r.Len(); i++ {
			copy(k, r.Key(i))
			for d := range k {
				k[d] = math.Round(k[d]*1000) / 1000
			}
			q.AppendKey(k)
		}
		return q
	}
	return quantize(s), quantize(t)
}

// workerLoadTotals sums the Load-path byte counters across a local cluster's
// workers straight from their metrics.
func workerLoadTotals(lc *LocalCluster) (wire, raw, preps int64) {
	for _, w := range lc.Handles() {
		wire += w.m.loadBytes.Value()
		raw += w.m.loadRawBytes.Value()
		preps += w.m.pipelinedPreps.Value()
	}
	return
}

// TestColumnarShuffleMatchesDefinition runs a plan over decimal data on the
// cluster and requires exactly the pairs of the nested loop. The shuffle must
// also move measurably fewer payload bytes than the raw row-major footprint,
// report where its codec time went, and run the pipelined background
// preparations.
func TestColumnarShuffleMatchesDefinition(t *testing.T) {
	s, tt := decimalPair(3, 900, 41)
	band := data.Symmetric(0.05, 0.05, 0.05)
	want := definitionPairs(s, tt, band)
	if len(want) == 0 {
		t.Fatal("test data joins to nothing")
	}

	lc, err := StartLocal(3)
	if err != nil {
		t.Fatalf("StartLocal: %v", err)
	}
	defer lc.Stop()
	coord, err := Dial(lc.Addrs())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer coord.Close()

	res, err := coord.Run(context.Background(), core.NewRecPartS(),
		s, tt, band, Options{CollectPairs: true, Seed: 7, ChunkSize: 128})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	samePairs(t, "cluster vs nested loop", res.Pairs, want)
	if raw := res.TotalInput * int64(8*(s.Dims()+1)); res.ShuffleRawBytes != raw {
		t.Errorf("ShuffleRawBytes = %d, want %d (8 bytes per key value and per ID of every routed tuple)", res.ShuffleRawBytes, raw)
	}
	gotWire, gotRaw, preps := workerLoadTotals(lc)
	if gotRaw != res.ShuffleRawBytes {
		t.Errorf("workers decoded %d raw bytes, coordinator shipped %d", gotRaw, res.ShuffleRawBytes)
	}
	if 2*gotWire >= gotRaw {
		t.Errorf("moved %d payload bytes for %d raw bytes; want at least 2x compression on decimal data", gotWire, gotRaw)
	}
	if preps == 0 {
		t.Error("no pipelined background preparations ran on a transient run")
	}
	if res.ShuffleEncodeBusy <= 0 || res.ShuffleDecodeBusy <= 0 {
		t.Errorf("shuffle codec time not reported: encode %v, decode %v", res.ShuffleEncodeBusy, res.ShuffleDecodeBusy)
	}
	// The workers' histogram sums seconds as floats; allow its rounding.
	if want := time.Duration(decodeNanos(lc)); (res.ShuffleDecodeBusy - want).Abs() > time.Microsecond {
		t.Errorf("ShuffleDecodeBusy = %v, workers measured %v", res.ShuffleDecodeBusy, want)
	}

	if _, err := coord.Run(context.Background(), core.NewRecPartS(),
		s, tt, band, Options{ChunkSize: wire.MaxChunkRows + 1}); err == nil {
		t.Fatal("a chunk size past wire.MaxChunkRows was accepted")
	}
}

// TestCoordinatorRefusesOldWorker makes workers advertise an older wire
// version — 0, a peer that predates the field, and the version before this
// one. There is one wire format: the coordinator must not ship to such a
// worker, alone or among current ones, and the query must fail with an error
// that names both versions, leaving nothing on any worker.
func TestCoordinatorRefusesOldWorker(t *testing.T) {
	s, tt := decimalPair(2, 700, 43)
	band := data.Symmetric(0.05, 0.05)
	for _, tc := range []struct {
		version int
		old     []int
	}{
		{0, []int{0, 1, 2}},
		{wire.Version - 1, []int{1}},
	} {
		lc, err := StartLocal(3)
		if err != nil {
			t.Fatalf("StartLocal: %v", err)
		}
		for _, i := range tc.old {
			lc.Handles()[i].SetWireVersion(tc.version)
		}
		coord, err := Dial(lc.Addrs())
		if err != nil {
			lc.Stop()
			t.Fatalf("Dial: %v", err)
		}
		// 1-Bucket sends T to every partition, so every worker is shipped to.
		_, err = coord.Run(context.Background(), onebucket.New(), s, tt, band, Options{ChunkSize: 128})
		if err == nil {
			t.Errorf("workers %v at wire version %d: the run succeeded", tc.old, tc.version)
		} else {
			for _, want := range []string{fmt.Sprintf("reads wire version %d", tc.version), fmt.Sprintf("ships version %d", wire.Version)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("workers %v at wire version %d: error %q does not say %q", tc.old, tc.version, err, want)
				}
			}
		}
		for i, w := range lc.Handles() {
			var pong PingReply
			if err := w.Ping(&PingArgs{}, &pong); err != nil || pong.Jobs != 0 {
				t.Errorf("worker %d after the refused run: Ping err %v, %d jobs resident, want 0", i, err, pong.Jobs)
			}
			if slices.Contains(tc.old, i) && w.m.loadChunks.Value() != 0 {
				t.Errorf("old worker %d received %d chunks", i, w.m.loadChunks.Value())
			}
		}
		coord.Close()
		lc.Stop()
	}
}

func decodeNanos(lc *LocalCluster) (total int64) {
	for _, w := range lc.Handles() {
		total += int64(w.m.decodeSeconds.Sum() * 1e9)
	}
	return
}

// TestBadColumnarChunkLeavesPartitionIntact is the regression test for a
// chunk that fails part-way through decoding: its stream must fail cleanly and
// leave the partition exactly as it was, so that the streams that follow into
// the same retained partition and the Join see only whole rows, each with its
// ID. A header declaring more rows than wire.MaxChunkRows must be refused
// before anything is sized by it.
func TestBadColumnarChunkLeavesPartitionIntact(t *testing.T) {
	s, tt := decimalPair(2, 300, 53)
	band := data.Symmetric(0.05, 0.05)
	ids := make([]int64, s.Len())
	for i := range ids {
		ids[i] = int64(i)
	}
	enc := wire.NewEncoder(wire.ModeAuto)
	chunk := func(r *data.Relation, lo, hi int) []byte {
		return append([]byte(nil), enc.EncodeChunk(r.KeysRange(lo, hi), r.Dims(), ids[lo:hi])...)
	}
	const half = 150
	first := chunk(s, 0, half)
	// Every key column decodes and the ID column is cut short; the chunk ends
	// inside a key column after an earlier one was already scattered.
	truncated, halved := first[:len(first)-3], first[:len(first)/2]

	w := NewWorker("w")
	load := func(rowsS, rowsT int, payloads ...[]byte) error {
		_, err := shipBytes(w, encodeShipment(toPlan("p"), func(sw *shipWriter) {
			sw.partition(0, rowsS, rowsT)
			for _, p := range payloads {
				sw.chunk(p)
			}
		}))
		return err
	}
	if err := load(half, 0, truncated); err == nil {
		t.Fatal("chunk cut short in its ID column was accepted")
	}
	if err := load(0, half, halved); err == nil {
		t.Fatal("chunk cut short in a key column was accepted")
	}
	oversize := binary.AppendUvarint([]byte{first[0]}, wire.MaxChunkRows+1)
	oversize = append(oversize, 2)
	if err := load(half, 0, oversize); err == nil {
		t.Fatal("chunk declaring more than MaxChunkRows rows was accepted")
	}
	if err := load(s.Len(), tt.Len(), first, chunk(s, half, s.Len()), chunk(tt, 0, half), chunk(tt, half, tt.Len())); err != nil {
		t.Fatalf("valid chunks after the bad ones: %v", err)
	}
	checkRetainedJoin(t, w, "p", s, tt, band)
}

// checkRetainedJoin seals plan id on w, joins it, and checks the join with
// checkJoin.
func checkRetainedJoin(t *testing.T, w *Worker, id string, s, tt *data.Relation, band data.Band) {
	t.Helper()
	if err := w.Seal(&SealArgs{PlanID: id, Band: band}, &SealReply{}); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	var jr JoinReply
	if err := w.Join(&JoinArgs{PlanID: id, Band: band, CollectPairs: true}, &jr); err != nil {
		t.Fatalf("Join: %v", err)
	}
	checkJoin(t, jr.Partitions, s, tt, band)
}

// checkJoin checks a join's partitions: each must hold exactly s and tt with
// row indices as IDs, and their pairs must be the nested loop's. Unless a side
// is empty, the data must join to something.
func checkJoin(t *testing.T, parts []exec.PartitionStats, s, tt *data.Relation, band data.Band) {
	t.Helper()
	var got []exec.Pair
	for _, ps := range parts {
		if ps.InputS != s.Len() || ps.InputT != tt.Len() {
			t.Fatalf("partition holds %d x %d rows, want %d x %d", ps.InputS, ps.InputT, s.Len(), tt.Len())
		}
		for i := range ps.PairS {
			got = append(got, exec.Pair{S: ps.PairS[i], T: ps.PairT[i]})
		}
	}
	want := definitionPairs(s, tt, band)
	if len(want) == 0 && s.Len() > 0 && tt.Len() > 0 {
		t.Fatal("test data joins to nothing")
	}
	sort.Slice(got, func(a, b int) bool {
		if got[a].S != got[b].S {
			return got[a].S < got[b].S
		}
		return got[a].T < got[b].T
	})
	samePairs(t, "worker join vs nested loop", got, want)
}

// TestHostileSideTotalReservesLittle: a side's row count in a partition frame
// arrives unvalidated from the network and sizes a reservation. A frame
// claiming 2^40 rows to come must cost no more than a small multiple of the
// rows its chunk carries (honoured as sent it is a 16 TiB allocation, which
// kills the process); one past the counts' bound (what a negative count
// encodes as) is refused; honest streams then land in the same retained
// partition and join.
func TestHostileSideTotalReservesLittle(t *testing.T) {
	s, tt := decimalPair(2, 300, 53)
	band := data.Symmetric(0.05, 0.05)
	ids := make([]int64, s.Len())
	for i := range ids {
		ids[i] = int64(i)
	}
	enc := wire.NewEncoder(wire.ModeAuto)
	w := NewWorker("w")
	const half = 150
	for side, rel := range map[string]*data.Relation{"S": s, "T": tt} {
		load := func(lo, hi, total int) error {
			payload := append([]byte(nil), enc.EncodeChunk(rel.KeysRange(lo, hi), rel.Dims(), ids[lo:hi])...)
			_, err := shipBytes(w, encodeShipment(toPlan("p"), func(sw *shipWriter) {
				if side == "S" {
					sw.partition(0, total, 0)
				} else {
					sw.partition(0, 0, total)
				}
				sw.chunk(payload)
			}))
			return err
		}
		if err := load(0, half, -1); err == nil {
			t.Errorf("%s: a negative total was accepted", side)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := load(0, half, 1<<40); err == nil {
			t.Errorf("%s: a stream ending 2^40 rows short of its partition's count was accepted", side)
		}
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s: a %d-row chunk announcing 2^40 rows allocated %d bytes", side, half, grown)
		}
		if err := load(half, rel.Len(), rel.Len()-half); err != nil {
			t.Fatalf("%s: honest stream after the inflated one: %v", side, err)
		}
	}
	checkRetainedJoin(t, w, "p", s, tt, band)
}
