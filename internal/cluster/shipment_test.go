package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync"
	"testing"

	"bandjoin/internal/core"
	"bandjoin/internal/data"
	"bandjoin/internal/wire"
)

// testPart is one partition of a hand-made shipment: its S and T rows (nil
// for none) and their tuple IDs (nil for the row numbers).
type testPart struct {
	pid        int
	s, t       *data.Relation
	sIDs, tIDs []int64
}

// frames writes the partition's frame and one chunk a side.
func (p testPart) frames(sw *shipWriter) {
	sides, ids := [2]*data.Relation{p.s, p.t}, [2][]int64{p.sIDs, p.tIDs}
	var rows [2]int
	for side, rel := range sides {
		if rel != nil {
			rows[side] = rel.Len()
			if ids[side] == nil {
				ids[side] = seqIDs(0, rel.Len())
			}
		}
	}
	sw.partition(p.pid, rows[0], rows[1])
	for side, rel := range sides {
		if rows[side] > 0 {
			sw.chunk(chunkOf(rel, ids[side]))
		}
	}
}

// encodeShipment is a stream's bytes after its magic: hdr, what frames
// writes, the end frame.
func encodeShipment(hdr ShipHeader, frames func(sw *shipWriter)) []byte {
	var buf bytes.Buffer
	sw := newShipWriter(&buf, nil, 0)
	sw.header(&hdr)
	if frames != nil {
		frames(sw)
	}
	sw.end()
	return buf.Bytes()
}

// shipBytes writes a shipment stream — the magic, then raw, then the end of
// the input — to w over an in-memory connection that the worker splits as
// Serve does, and returns its reply: the join of a one-shot stream, the
// refusal as an error.
func shipBytes(w *Worker, raw []byte) (*JoinReply, error) {
	client, server := net.Pipe()
	conn := &scriptedConn{Conn: server, r: bytes.NewReader(append(shipMagic[:], raw...))}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if c, stream, err := SplitConn(conn); err == nil && stream {
			w.ServeShipment(c)
		} else {
			server.Close()
		}
	}()
	var rep shipReply
	err := gob.NewDecoder(client).Decode(&rep)
	client.Close()
	<-done
	switch {
	case err != nil:
		return nil, err
	case rep.Err != "":
		return nil, errors.New(rep.Err)
	}
	return rep.Join, nil
}

// scriptedConn reads a fixed input, then EOF, and writes to its Conn.
type scriptedConn struct {
	net.Conn
	r io.Reader
}

func (c *scriptedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// ship streams parts to w under hdr and returns the worker's reply.
func ship(w *Worker, hdr ShipHeader, parts ...testPart) (*JoinReply, error) {
	return shipBytes(w, encodeShipment(hdr, func(sw *shipWriter) {
		for _, p := range parts {
			p.frames(sw)
		}
	}))
}

// toPlan is the header of a stream shipping into retained plan id.
func toPlan(id string) ShipHeader { return ShipHeader{JoinArgs: JoinArgs{PlanID: id}} }

// oneShotOf is the header of a one-shot stream joined under band.
func oneShotOf(band data.Band) ShipHeader {
	return ShipHeader{JoinArgs: JoinArgs{Band: band, CollectPairs: true}}
}

// startTapped serves n fresh workers, each with hook (which it calls from
// every stream's goroutine, also concurrently) as its ship hook, and dials
// them.
func startTapped(t *testing.T, n int, hook func(slot int, ev *ShipEvent) error) (*Coordinator, []*Worker) {
	t.Helper()
	var workers []*Worker
	var addrs []string
	for slot := 0; slot < n; slot++ {
		w := NewWorker("tapped")
		w.SetShipHook(func(ev *ShipEvent) error { return hook(slot, ev) })
		workers = append(workers, w)
		addrs = append(addrs, serveWorker(t, w))
	}
	coord, err := Dial(addrs)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord, workers
}

// serveWorker serves w on an ephemeral loopback port until the test ends.
func serveWorker(t *testing.T, w *Worker) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go Serve(w, ln)
	return ln.Addr().String()
}

// TestStaleLoadAcrossReshippedPlan: shipments used to be numbered from 0 in
// every shipPartitions call, so a stream that outlived its whole shipment — the
// plan failed or was evicted, and a later query shipped it again under the
// same fingerprint — carried number 0 into a shipment that was number 0 too,
// and the worker joined its rows beside their reshipped copies. Shipments are
// numbered per coordinator now, and the clearing that precedes a plan's
// shipment tells every worker its number. The late stream is staged, not
// raced: the first shipment's first chunk is kept, and replayed on its worker,
// as a stream under that shipment's header, at the moment the second
// shipment's first chunk arrives there.
func TestStaleLoadAcrossReshippedPlan(t *testing.T) {
	s, tt := data.ParetoPair(2, 1.3, 300, 61)
	band := data.Symmetric(0.4, 0.4)
	want := definitionPairs(s, tt, band)

	var mu sync.Mutex
	var stale *ShipEvent
	var staleBytes []byte
	staleSlot, replay, replayed := -1, false, false
	var replayErr error
	var workers []*Worker
	coord, tapped := startTapped(t, 2, func(slot int, ev *ShipEvent) error {
		if ev.At != ShipChunk {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case replay && !replayed && slot == staleSlot:
			replayed = true
			// Replayed outside the lock: the replay's own chunks come here.
			mu.Unlock()
			_, err := shipBytes(workers[slot], staleBytes)
			mu.Lock()
			replayErr = err
		case stale == nil:
			kept := *ev
			stale, staleSlot = &kept, slot
			// A whole stream, whose one partition is the chunk's rows.
			var dec wire.Decoder
			n, _, _ := dec.Begin(ev.Chunk)
			rows := [2]int{n, 0}
			if ev.T {
				rows = [2]int{0, n}
			}
			staleBytes = encodeShipment(ev.ShipHeader, func(sw *shipWriter) {
				sw.partition(ev.Partition, rows[0], rows[1])
				sw.chunk(ev.Chunk)
			})
		}
		return nil
	})
	mu.Lock()
	workers = tapped
	mu.Unlock()

	opts := Options{CollectPairs: true, ChunkSize: 64, PlanID: "plan|stale", Seed: 9}
	res, err := coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
	if err != nil {
		t.Fatalf("first query: %v", err)
	}
	samePairs(t, "first shipment", res.Pairs, want)
	coord.EvictPlan(opts.PlanID)

	mu.Lock()
	replay = true
	mu.Unlock()
	res, err = coord.Run(context.Background(), core.NewRecPartS(), s, tt, band, opts)
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if res.WarmPartitions || !replayed {
		t.Fatalf("the plan was not shipped again (warm %v, replayed %v); the test stages nothing", res.WarmPartitions, replayed)
	}
	if replayErr == nil {
		t.Errorf("a Load of shipment %d was accepted into the plan's next shipment", stale.Attempt)
	}
	samePairs(t, "second shipment", res.Pairs, want)
}
