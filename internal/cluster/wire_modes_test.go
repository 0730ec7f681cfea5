package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
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

// TestCompressionModesMatchOracle runs the same plan under both wire modes and
// requires bit-identical pairs, with "off" (the v1 packed plane) as the
// reference. On decimal data the columnar plane must also move measurably
// fewer payload bytes than the raw row-major footprint, report where its codec
// time went, and run the pipelined background preparations.
func TestCompressionModesMatchOracle(t *testing.T) {
	s, tt := decimalPair(3, 900, 41)
	band := data.Symmetric(0.05, 0.05, 0.05)

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

	oracle, err := coord.Run(context.Background(), core.NewRecPartS(),
		s, tt, band, Options{CollectPairs: true, Seed: 7, ChunkSize: 128, Compression: "off"})
	if err != nil {
		t.Fatalf("oracle run (off): %v", err)
	}
	if len(oracle.Pairs) == 0 {
		t.Fatal("oracle produced no pairs")
	}
	if oracle.ShuffleRawBytes == 0 {
		t.Error("off mode reported zero ShuffleRawBytes; raw accounting must cover the v1 plane too")
	}
	if oracle.ShuffleEncodeBusy != 0 || oracle.ShuffleDecodeBusy != 0 {
		t.Errorf("off mode reported codec time (encode %v, decode %v) without running the codec",
			oracle.ShuffleEncodeBusy, oracle.ShuffleDecodeBusy)
	}

	for _, mode := range []string{"", "auto"} {
		t.Run("mode="+mode, func(t *testing.T) {
			wireBefore, rawBefore, _ := workerLoadTotals(lc)
			decodedBefore := decodeNanos(lc)
			res, err := coord.Run(context.Background(), core.NewRecPartS(),
				s, tt, band, Options{CollectPairs: true, Seed: 7, ChunkSize: 128, Compression: mode})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			samePairs(t, "mode "+mode+" vs off", res.Pairs, oracle.Pairs)
			if res.ShuffleRawBytes != oracle.ShuffleRawBytes {
				t.Errorf("ShuffleRawBytes = %d, want %d (raw accounting is payload-independent)",
					res.ShuffleRawBytes, oracle.ShuffleRawBytes)
			}
			wireAfter, rawAfter, preps := workerLoadTotals(lc)
			gotWire, gotRaw := wireAfter-wireBefore, rawAfter-rawBefore
			if gotRaw != res.ShuffleRawBytes {
				t.Errorf("workers decoded %d raw bytes, coordinator shipped %d", gotRaw, res.ShuffleRawBytes)
			}
			if 2*gotWire >= gotRaw {
				t.Errorf("mode %q moved %d payload bytes for %d raw bytes; want at least 2x compression on decimal data",
					mode, gotWire, gotRaw)
			}
			if preps == 0 {
				t.Error("no pipelined background preparations ran on a streaming transient run")
			}
			if res.ShuffleEncodeBusy <= 0 || res.ShuffleDecodeBusy <= 0 {
				t.Errorf("shuffle codec time not reported: encode %v, decode %v", res.ShuffleEncodeBusy, res.ShuffleDecodeBusy)
			}
			// The workers' histogram sums seconds as floats; allow its rounding.
			if want := time.Duration(decodeNanos(lc) - decodedBefore); (res.ShuffleDecodeBusy - want).Abs() > time.Microsecond {
				t.Errorf("ShuffleDecodeBusy = %v, workers measured %v", res.ShuffleDecodeBusy, want)
			}
		})
	}

	for _, mode := range []string{"zstd", "delta", "lz4"} {
		if _, err := coord.Run(context.Background(), core.NewRecPartS(),
			s, tt, band, Options{Compression: mode}); err == nil {
			t.Fatalf("compression mode %q was accepted", mode)
		}
	}
	if _, err := coord.Run(context.Background(), core.NewRecPartS(),
		s, tt, band, Options{ChunkSize: wire.MaxChunkRows + 1}); err == nil {
		t.Fatal("a chunk size past wire.MaxChunkRows was accepted")
	}
}

// TestWireVersionNegotiationFallback forces workers to advertise an older wire
// version — 0, a peer that predates the field, and 2, the previous columnar
// format this coordinator no longer encodes: the coordinator must fall back to
// v1 packed chunks per connection (no columnar decoding on the worker) and
// still produce the all-current run's pairs. A mixed cluster — one old worker
// among new ones — must also work.
func TestWireVersionNegotiationFallback(t *testing.T) {
	s, tt := decimalPair(2, 700, 43)
	band := data.Symmetric(0.05, 0.05)

	setup := func(t *testing.T, version int, oldWorkers ...int) (*LocalCluster, *Coordinator) {
		lc, err := StartLocal(3)
		if err != nil {
			t.Fatalf("StartLocal: %v", err)
		}
		t.Cleanup(lc.Stop)
		for _, i := range oldWorkers {
			lc.Handles()[i].SetWireVersion(version)
		}
		coord, err := Dial(lc.Addrs())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(coord.Close)
		return lc, coord
	}

	lcNew, coordNew := setup(t, wire.Version)
	oracle, err := coordNew.Run(context.Background(), core.NewRecPartS(),
		s, tt, band, Options{CollectPairs: true, Seed: 3, ChunkSize: 128})
	if err != nil {
		t.Fatalf("all-current run: %v", err)
	}
	if decoded := decodeNanos(lcNew); decoded == 0 {
		t.Error("all-current cluster decoded no columnar chunks")
	}

	cases := []struct {
		name    string
		version int
		old     []int
	}{
		{"all-v0", 0, []int{0, 1, 2}},
		{"mixed-v0", 0, []int{1}},
		{"all-parent", wire.Version - 1, []int{0, 1, 2}},
		{"mixed-parent", wire.Version - 1, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lc, coord := setup(t, tc.version, tc.old...)
			res, err := coord.Run(context.Background(), core.NewRecPartS(),
				s, tt, band, Options{CollectPairs: true, Seed: 3, ChunkSize: 128})
			if err != nil {
				t.Fatalf("run against old workers: %v", err)
			}
			samePairs(t, tc.name+" vs all-current", res.Pairs, oracle.Pairs)
			for _, i := range tc.old {
				if n := lc.Handles()[i].m.decodeSeconds.Sum(); n != 0 {
					t.Errorf("old worker %d decoded columnar chunks (%.9fs); negotiation did not fall back", i, n)
				}
			}
			if res.ShuffleRawBytes == 0 {
				t.Error("fallback run reported zero ShuffleRawBytes")
			}
		})
	}
}

func decodeNanos(lc *LocalCluster) (total int64) {
	for _, w := range lc.Handles() {
		total += int64(w.m.decodeSeconds.Sum() * 1e9)
	}
	return
}

// TestCompressedDeltaAppendMatchesUncompressed ships a retained plan from base
// prefixes and absorbs the appended suffix under compressed and uncompressed
// wire modes: the warm results must be bit-identical, and both warm runs must
// move zero bytes.
func TestCompressedDeltaAppendMatchesUncompressed(t *testing.T) {
	fullS, fullT := decimalPair(2, 800, 47)
	band := data.Symmetric(0.05, 0.05)
	baseS, baseT := extendPair(fullS, fullT, 550, 600)

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

	plan, pctx := retainPlanFor(t, core.NewRecPartS(), baseS, baseT, band, 3)
	type outcome struct {
		output int64
		pairs  []string
	}
	outcomes := make(map[string]outcome)
	for _, mode := range []string{"off", "auto"} {
		opts := Options{PlanID: "delta-comp-" + mode, CollectPairs: true, ChunkSize: 128, Compression: mode}
		if _, err := coord.RunPlan(context.Background(), plan, pctx, baseS, baseT, band, opts); err != nil {
			t.Fatalf("cold RunPlan (%s): %v", mode, err)
		}
		if err := coord.AbsorbPlan(context.Background(), plan, pctx, fullS, fullT, opts); err != nil {
			t.Fatalf("AbsorbPlan (%s): %v", mode, err)
		}
		warm, err := coord.RunPlan(context.Background(), plan, pctx, fullS, fullT, band, opts)
		if err != nil {
			t.Fatalf("warm RunPlan (%s): %v", mode, err)
		}
		if warm.ShuffleBytes != 0 || warm.ShuffleRPCs != 0 {
			t.Errorf("warm run (%s) shuffled bytes=%d rpcs=%d, want 0/0", mode, warm.ShuffleBytes, warm.ShuffleRPCs)
		}
		pairs := make([]string, len(warm.Pairs))
		for i, p := range warm.Pairs {
			pairs[i] = fmt.Sprintf("%d|%d", p.S, p.T)
		}
		outcomes[mode] = outcome{output: warm.Output, pairs: pairs}
	}
	off, auto := outcomes["off"], outcomes["auto"]
	if off.output != auto.output {
		t.Fatalf("warm output differs: off=%d auto=%d", off.output, auto.output)
	}
	if len(off.pairs) != len(auto.pairs) {
		t.Fatalf("warm pair count differs: off=%d auto=%d", len(off.pairs), len(auto.pairs))
	}
	for i := range off.pairs {
		if off.pairs[i] != auto.pairs[i] {
			t.Fatalf("warm pair %d differs: off=%s auto=%s", i, off.pairs[i], auto.pairs[i])
		}
	}
}

// TestBadColumnarChunkLeavesPartitionIntact is the regression test for a
// chunk that fails part-way through decoding: its Load must fail cleanly and
// leave the partition exactly as it was, so that the chunks that follow and
// the Join see only whole rows, each with its ID. A header declaring more rows
// than wire.MaxChunkRows must be refused before anything is sized by it.
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
	load := func(side string, payload []byte) error {
		return w.Load(&LoadArgs{JobID: "j", Partition: 0, Side: side, Columnar: payload}, &LoadReply{})
	}
	if err := load("S", truncated); err == nil {
		t.Fatal("chunk cut short in its ID column was accepted")
	}
	if err := load("T", halved); err == nil {
		t.Fatal("chunk cut short in a key column was accepted")
	}
	oversize := binary.AppendUvarint([]byte{first[0]}, wire.MaxChunkRows+1)
	oversize = append(oversize, 2)
	if err := load("S", oversize); err == nil {
		t.Fatal("chunk declaring more than MaxChunkRows rows was accepted")
	}
	for _, l := range []struct {
		side    string
		payload []byte
	}{{"S", first}, {"S", chunk(s, half, s.Len())}, {"T", chunk(tt, 0, half)}, {"T", chunk(tt, half, tt.Len())}} {
		if err := load(l.side, l.payload); err != nil {
			t.Fatalf("valid %s chunk after the bad ones: %v", l.side, err)
		}
	}
	checkWorkerJoin(t, w, s, tt, band)
}

// checkWorkerJoin joins job "j" on w, whose single partition must hold exactly
// s and tt with row indices as IDs, and compares the pairs with a nested loop.
func checkWorkerJoin(t *testing.T, w *Worker, s, tt *data.Relation, band data.Band) {
	t.Helper()
	var jr JoinReply
	if err := w.Join(&JoinArgs{JobID: "j", Band: band, CollectPairs: true}, &jr); err != nil {
		t.Fatalf("Join: %v", err)
	}
	var got []exec.Pair
	for _, ps := range jr.Partitions {
		if ps.InputS != s.Len() || ps.InputT != tt.Len() {
			t.Fatalf("partition holds %d x %d rows, want %d x %d", ps.InputS, ps.InputT, s.Len(), tt.Len())
		}
		for i := range ps.PairS {
			got = append(got, exec.Pair{S: ps.PairS[i], T: ps.PairT[i]})
		}
	}
	var want []exec.Pair
	for i := 0; i < s.Len(); i++ {
		for j := 0; j < tt.Len(); j++ {
			if band.Matches(s.Key(i), tt.Key(j)) {
				want = append(want, exec.Pair{S: int64(i), T: int64(j)})
			}
		}
	}
	if len(want) == 0 {
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

// TestHostileSideTotalReservesLittle: SideTotal arrives unvalidated from the
// network and sizes a reservation. A Load claiming 2^40 rows to come, on the
// columnar and on the packed path, must cost no more than a small multiple of
// the rows it carries (honoured as sent it is a 16 TiB allocation, which kills
// the process); a negative one is refused; honest chunks then load and join.
func TestHostileSideTotalReservesLittle(t *testing.T) {
	s, tt := decimalPair(2, 300, 53)
	band := data.Symmetric(0.05, 0.05)
	ids := make([]int64, s.Len())
	for i := range ids {
		ids[i] = int64(i)
	}
	enc := wire.NewEncoder(wire.ModeAuto)
	w := NewWorker("w")
	loadS := func(lo, hi, total int) error { // columnar path
		payload := append([]byte(nil), enc.EncodeChunk(s.KeysRange(lo, hi), s.Dims(), ids[lo:hi])...)
		return w.Load(&LoadArgs{JobID: "j", Side: "S", Columnar: payload, SideTotal: total}, &LoadReply{})
	}
	loadT := func(lo, hi, total int) error { // packed path
		pc := &PackedChunk{Dims: tt.Dims(), Keys: tt.PackKeysLE(lo, hi), IDs: data.PackInt64sLE(ids[lo:hi]), SideTotal: total}
		return w.Load(&LoadArgs{JobID: "j", Side: "T", Packed: pc}, &LoadReply{})
	}
	const half = 150
	for name, load := range map[string]func(lo, hi, total int) error{"columnar": loadS, "packed": loadT} {
		if err := load(0, half, -1); err == nil {
			t.Errorf("%s: negative SideTotal was accepted", name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := load(0, half, 1<<40); err != nil {
			t.Fatalf("%s: chunk with an inflated SideTotal: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
			t.Errorf("%s: a %d-row chunk announcing 2^40 rows allocated %d bytes", name, half, grown)
		}
		if err := load(half, s.Len(), s.Len()); err != nil {
			t.Fatalf("%s: honest chunk after the inflated one: %v", name, err)
		}
	}
	checkWorkerJoin(t, w, s, tt, band)
}
