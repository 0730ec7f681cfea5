package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bandjoin/internal/data"
)

// chunked writes one partition's frame announcing s's and t's rows, then
// their chunks of at most rows rows each, IDs the row numbers.
func chunked(sw *shipWriter, pid int, s, t *data.Relation, rows int) {
	sw.partition(pid, s.Len(), t.Len())
	for _, rel := range []*data.Relation{s, t} {
		for lo := 0; lo < rel.Len(); lo += rows {
			hi := min(lo+rows, rel.Len())
			sw.chunk(chunkOf(rel.Slice(rel.Name(), lo, hi), seqIDs(lo, hi-lo)))
		}
	}
}

// TestPipelinedPrepareAtPartitionEnd: a one-shot stream's partition is
// complete when its rows reach the counts its frame announced, S first, and
// the worker starts preparing it in the background right then — while the
// next partition is still arriving, and when one side is empty — and the join
// at the stream's end returns exactly the nested loop's pairs.
func TestPipelinedPrepareAtPartitionEnd(t *testing.T) {
	s, tt := decimalPair(2, 100, 67)
	band := data.Symmetric(0.05, 0.05)
	empty := data.NewRelation("empty", 2)
	// Partition 1 is one far-away row a side.
	far := data.NewRelation("far", 2)
	far.Append(100, 100)
	for _, tc := range []struct {
		name string
		s, t *data.Relation
	}{
		{"full", s, tt},
		{"empty-T", s, empty},
		{"empty-S", empty, tt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorker("w")
			w.SetShipHook(func(ev *ShipEvent) error {
				if ev.At != ShipChunk || ev.Partition != 1 {
					return nil
				}
				for deadline := time.Now().Add(10 * time.Second); w.m.pipelinedPreps.Value() < 1; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						return errors.New("partition 0 was not prepared while partition 1 arrived")
					}
				}
				return nil
			})
			reply, err := shipBytes(w, encodeShipment(oneShotOf(band), func(sw *shipWriter) {
				chunked(sw, 0, tc.s, tc.t, 30)
				chunked(sw, 1, far, far, 30)
			}))
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			if n := w.m.pipelinedPreps.Value(); n < 1 || n > 2 {
				t.Fatalf("%d pipelined prepares of 2 partitions, want partition 0's and at most one more", n)
			}
			if len(reply.Partitions) != 2 || reply.Partitions[1].Output != 1 {
				t.Fatalf("reply %+v, want partition 1's one pair beside partition 0", reply.Partitions)
			}
			checkJoin(t, reply.Partitions[:1], tc.s, tc.t, band)
		})
	}
}

// TestShipmentRefusesRowsPastCounts: rows that landed on a transient
// partition after its background structure was built used to be missed by the
// join, which probed the stale structure. A partition is now complete when
// its rows reach the counts its frame announced, so a chunk past them, on
// either side, is refused, and the stream holds nothing afterwards.
func TestShipmentRefusesRowsPastCounts(t *testing.T) {
	s, tt := decimalPair(2, 80, 71)
	band := data.Symmetric(0.1, 0.1)
	for _, side := range []string{"S", "T"} {
		w := NewWorker("w")
		_, err := shipBytes(w, encodeShipment(oneShotOf(band), func(sw *shipWriter) {
			sw.partition(0, 40, 40)
			if side == "S" {
				sw.chunk(chunkOf(s, seqIDs(0, 80)))
				return
			}
			sw.chunk(chunkOf(s.Slice("S", 0, 40), seqIDs(0, 40)))
			sw.chunk(chunkOf(tt, seqIDs(0, 80)))
		}))
		if err == nil || !strings.Contains(err.Error(), "to come") {
			t.Errorf("%s: 80 rows for a partition announcing 40: err = %v, want a refusal", side, err)
		}
		if n := w.oneShots.Load() + w.oneShotBytes.Load(); n != 0 {
			t.Errorf("%s: the refused stream left state open", side)
		}
	}
}
