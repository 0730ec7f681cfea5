package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/exec"
	"bandjoin/internal/partition"
	"bandjoin/internal/wire"
)

// loadKey identifies a chunk frame by everything the worker sees of it but
// the stream's header.
func loadKey(pid int, side string, expectS, expectT int, chunk []byte) string {
	return fmt.Sprintf("%d|%s|%d|%d|%x", pid, side, expectS, expectT, chunk)
}

// materializedStream is what shipping exec.Shuffle's output sends: every
// non-empty partition side cut into chunks of chunkSize rows and encoded from
// the partition's rows. It also reports whether some chunk holds rows from
// both sides of a routing-shard boundary of its relation (shards ranges each),
// i.e. spans two shards' row lists.
func materializedStream(parts []*exec.PartitionInput, s, t *data.Relation, chunkSize, shards int) (keys []string, raw int64, spans bool) {
	enc := wire.NewEncoder(wire.ModeAuto)
	for pid, p := range parts {
		if p == nil {
			continue
		}
		for _, side := range []struct {
			name   string
			rel    *data.Relation
			ids    []int64
			source *data.Relation
		}{{"S", p.S, p.SIDs, s}, {"T", p.T, p.TIDs, t}} {
			for lo := 0; lo < side.rel.Len(); lo += chunkSize {
				hi := min(lo+chunkSize, side.rel.Len())
				chunk := enc.EncodeChunk(side.rel.KeysRange(lo, hi), side.rel.Dims(), side.ids[lo:hi])
				keys = append(keys, loadKey(pid, side.name, p.S.Len(), p.T.Len(), chunk))
				raw += wire.RawBytes(hi-lo, side.rel.Dims())
				for k := 1; k < shards; k++ {
					bound := int64(side.source.Len() * k / shards)
					spans = spans || (side.ids[lo] < bound && bound <= side.ids[hi-1])
				}
			}
		}
	}
	slices.Sort(keys)
	return keys, raw, spans
}

// TestRoutedShipMatchesMaterialized: the coordinator ships from routed row
// lists, gathering each chunk out of the source relations, and what reaches
// the workers must be what shipping the materialised shuffle would have sent —
// the same chunks byte for byte (so the same bytes on the wire and the same
// chunk count), the same rows resident in every partition — on the transient
// and the retained path, with chunks that span two shards' lists, and when a
// shipment dies on the wire and is repeated.
func TestRoutedShipMatchesMaterialized(t *testing.T) {
	// Four routing shards whatever the machine: a partition side's list is
	// then in four pieces and the 100-row chunks cross their ends.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s, tt := decimalPair(2, 900, 29)
	band := data.Symmetric(0.05, 0.05)
	want := definitionPairs(s, tt, band)
	const chunkSize = 100
	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 2)
	parts, totalInput, err := exec.Shuffle(context.Background(), plan, s, tt, 3)
	if err != nil {
		t.Fatalf("Shuffle: %v", err)
	}
	wantLoads, wantRaw, spans := materializedStream(parts, s, tt, chunkSize, 4)
	if !spans {
		t.Fatal("no chunk spans two shards' lists; the test data stages nothing")
	}
	nonEmpty := 0
	for _, p := range parts {
		if p != nil {
			nonEmpty++
		}
	}

	for _, tc := range []struct {
		name     string
		retained bool
		dropAt   int // the chunk, counted over the cluster, whose connection dies; 0 = none
	}{
		{"transient", false, 0},
		{"retained", true, 0},
		{"transient/reship", false, 3},
		{"retained/reship", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type seenChunk struct {
				pid, attempt int
				key          string
			}
			var mu sync.Mutex
			var seen []seenChunk
			coord, workers := startTapped(t, 2, func(_ int, ev *ShipEvent) error {
				if ev.At != ShipChunk {
					return nil
				}
				mu.Lock()
				defer mu.Unlock()
				side := map[bool]string{false: "S", true: "T"}[ev.T]
				seen = append(seen, seenChunk{ev.Partition, ev.Attempt, loadKey(ev.Partition, side, ev.RowsS, ev.RowsT, ev.Chunk)})
				if len(seen) == tc.dropAt {
					ev.Conn.Close()
					return errors.New("connection dropped by the test")
				}
				return nil
			})
			opts := Options{CollectPairs: true, ChunkSize: chunkSize, Seed: 9}
			if tc.retained {
				opts.PlanID = "plan|" + tc.name
			}
			res, err := coord.RunPlan(context.Background(), plan, pctx, s, tt, band, opts)
			if err != nil {
				t.Fatalf("RunPlan: %v", err)
			}
			samePairs(t, "pairs vs nested loop", res.Pairs, want)
			if res.TotalInput != totalInput {
				t.Errorf("TotalInput %d, Shuffle's %d", res.TotalInput, totalInput)
			}

			// The chunks that count are those of each partition's last shipment.
			last := make(map[int]int)
			for _, a := range seen {
				last[a.pid] = max(last[a.pid], a.attempt)
			}
			var got []string
			for _, a := range seen {
				if a.attempt == last[a.pid] {
					got = append(got, a.key)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, wantLoads) {
				t.Fatalf("%d chunks reached the workers, shipping the materialised shuffle sends %d (or they differ)", len(got), len(wantLoads))
			}
			if tc.dropAt == 0 {
				if res.ShuffleRPCs != int64(len(wantLoads)) || len(seen) != len(wantLoads) {
					t.Errorf("%d chunk frames (%d seen), want one per chunk, %d", res.ShuffleRPCs, len(seen), len(wantLoads))
				}
				if res.ShuffleRawBytes != wantRaw {
					t.Errorf("raw shuffle bytes %d, want %d", res.ShuffleRawBytes, wantRaw)
				}
			} else if res.Retries == 0 || len(seen) <= len(wantLoads) {
				t.Errorf("retries %d, %d chunks: the shipment was never repeated", res.Retries, len(seen))
			}
			if !tc.retained {
				return
			}
			// The plan is resident: every partition holds exactly the
			// materialised partition's rows (sealed, so in dim-0 order; chunks
			// may also have landed out of order).
			resident := 0
			for _, w := range workers {
				pids, ps := w.retained.Get(opts.PlanID).Partitions()
				for i, p := range ps {
					pid := pids[i]
					resident++
					_, _, held, unlock := exec.LockForProbe([]int{pid}, []*exec.Partition{p}, band, nil)
					in := held[0]
					sameRows(t, fmt.Sprintf("partition %d S", pid), in.S, in.SIDs, parts[pid].S, parts[pid].SIDs)
					sameRows(t, fmt.Sprintf("partition %d T", pid), in.T, in.TIDs, parts[pid].T, parts[pid].TIDs)
					unlock()
				}
			}
			if resident != nonEmpty {
				t.Errorf("%d partitions resident, want %d", resident, nonEmpty)
			}
		})
	}
}

// sameRows checks that two (relation, IDs) pairs hold the same tuples, in any
// order.
func sameRows(t *testing.T, label string, a *data.Relation, aIDs []int64, b *data.Relation, bIDs []int64) {
	t.Helper()
	rows := func(r *data.Relation, ids []int64) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = fmt.Sprint(id, r.Key(i))
		}
		slices.Sort(out)
		return out
	}
	if a.Len() != len(aIDs) || !slices.Equal(rows(a, aIDs), rows(b, bIDs)) {
		t.Errorf("%s: resident rows differ from the materialised partition's (%d vs %d)", label, a.Len(), b.Len())
	}
}

// TestRoutedShipConcurrentAppend: a routed shipment reads the caller's
// relations while it ships, and Engine.Append may be extending them in place
// meanwhile (Relation.Extend writes past the snapshot's length, into storage
// the snapshot shares). The row lists name only rows below that length, so
// the query's answer is the nested loop's over the snapshot — and -race sees
// no conflicting access. The overlap is staged: the first chunk to arrive
// holds the shipment until an append has happened, and appends continue until
// the query returns.
func TestRoutedShipConcurrentAppend(t *testing.T) {
	full, tt := data.ParetoPair(2, 1.3, 1200, 71)
	band := data.Symmetric(0.3, 0.3)
	const snapshot = 500
	// A head with room to grow, so every Extend below appends in place.
	room := data.NewRelationCapacity("S", 2, full.Len())
	s := room.Extend(full.Slice("S", 0, snapshot))
	want := definitionPairs(full.Slice("S", 0, snapshot), tt, band)

	appended := make(chan struct{})
	var once sync.Once
	coord, _ := startTapped(t, 2, func(int, *ShipEvent) error {
		<-appended
		return nil
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		head := s
		for at := snapshot; at < full.Len(); at += 10 {
			head = head.Extend(full.Slice("S", at, at+10))
			once.Do(func() { close(appended) })
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	res, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, Options{CollectPairs: true, ChunkSize: 16})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.InputS != snapshot {
		t.Errorf("the query joined %d S rows, its snapshot has %d", res.InputS, snapshot)
	}
	samePairs(t, "pairs vs nested loop over the snapshot", res.Pairs, want)
}

// cancelOnRoute is a plan whose first S assignment cancels a context: the
// query is cancelled while it routes.
type cancelOnRoute struct {
	partition.Plan
	cancel context.CancelFunc
}

func (p *cancelOnRoute) AssignS(id int64, key []float64, dst []int) []int {
	p.cancel()
	return p.Plan.AssignS(id, key, dst)
}

// TestCancelBetweenRoutingAndShipping: a cancellation that arrives during the
// routing pass is honoured before anything is shipped, on both paths.
func TestCancelBetweenRoutingAndShipping(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.3, 300, 5)
	band := data.Symmetric(0.3, 0.3)
	plan, pctx := retainPlanFor(t, core.NewRecPartS(), s, tt, band, 2)
	for _, planID := range []string{"", "plan|cancelled"} {
		var mu sync.Mutex
		loads := 0
		coord, _ := startTapped(t, 2, func(_ int, ev *ShipEvent) error {
			mu.Lock()
			defer mu.Unlock()
			loads++
			return nil
		})
		ctx, cancel := context.WithCancel(context.Background())
		_, err := coord.RunPlan(ctx, &cancelOnRoute{Plan: plan, cancel: cancel}, pctx, s, tt, band, Options{PlanID: planID})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("plan id %q: RunPlan cancelled while routing: got %v, want context.Canceled", planID, err)
		}
		mu.Lock()
		if loads != 0 {
			t.Errorf("plan id %q: %d shipment events came after the cancellation", planID, loads)
		}
		mu.Unlock()
	}
}
