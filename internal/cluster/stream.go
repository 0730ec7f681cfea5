package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"

	"bandjoin/internal/data"
	"bandjoin/internal/wire"
)

// A shipment is one ordered stream per (shipment, worker), on a connection of
// its own to the worker's RPC address, all integers little-endian:
//
//	stream    := magic headerFrame PlanID Band.Low Band.High partition* 'E'
//	partition := 'P' partitionFrame chunk*
//	chunk     := uint32(len) wire chunk
//
// A partition's chunks are its S rows, then its T rows: it is complete when
// they reach its counts. Every count a worker reads is network input, bounded
// before it sizes anything. The worker answers with one reply (shipReply).
const (
	framePartition = 'P'
	frameEnd       = 'E'

	flagDelta   = 1
	flagCollect = 2

	// maxBandDims is the most dimensions a chunk may declare, so the most a
	// band that joins anything can have.
	maxBandDims = 4096
	maxCount    = 1 << 48
)

// headerFrame and partitionFrame are the fixed parts of a stream's header and
// of a partition's frame.
type headerFrame struct {
	Flags         uint8
	Attempt       uint64
	MorselRows    int64
	PlanLen, Dims uint16
}

type partitionFrame struct{ Pid, RowsS, RowsT uint64 }

// shipMagic opens every shipment stream; a connection that starts otherwise
// is net/rpc's. It carries the wire version, so a stream of another version is
// no stream to this worker.
var shipMagic = [8]byte{'b', 'j', 's', 'h', 'i', 'p', 0, wire.Version}

// ShipHeader is a shipment stream's first frame. With PlanID empty, the
// stream is a one-shot query's shipment; set, it is kept: its partitions go
// into that retained plan, which the worker seals at the stream's end. Either
// is joined at its end under its JoinArgs, over the partitions it carried, and
// answered with the join. A Delta stream appends partitions into a sealed
// retained plan and joins nothing.
type ShipHeader struct {
	JoinArgs
	Delta bool
	// Attempt numbers the stream among all the streams its coordinator ever
	// sends: one counter per coordinator, starting at 1, so a later shipment
	// under the same plan id has a higher number. A worker refuses a kept
	// stream numbered below what the plan was last cleared for
	// (EvictArgs.Attempt): a stream of an aborted shipment that the worker
	// reads only after the clearing would land in the reshipped plan.
	Attempt int
}

// SplitConn reads the first bytes of a connection a worker accepted and
// reports whether they open a shipment stream, which it then consumes. The
// returned connection is the one to serve, to ServeShipment or to net/rpc,
// with the bytes read and not consumed put back.
func SplitConn(conn net.Conn) (net.Conn, bool, error) {
	pc := &peekedConn{Conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
	head, err := pc.r.Peek(len(shipMagic))
	if err != nil && len(head) == 0 {
		return nil, false, err
	}
	if string(head) != string(shipMagic[:]) {
		return pc, false, nil
	}
	_, err = pc.r.Discard(len(shipMagic))
	return pc, true, err
}

// peekedConn is a connection read through the buffer SplitConn peeked into.
type peekedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *peekedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// readerOf returns the buffered reader of a connection from SplitConn, or a
// new one.
func readerOf(conn net.Conn) *bufio.Reader {
	if pc, ok := conn.(*peekedConn); ok {
		return pc.r
	}
	return bufio.NewReaderSize(conn, 64<<10)
}

// shipWriter writes one shipment stream. With conn set, every frame's write
// carries a deadline of timeout.
type shipWriter struct {
	bw      *bufio.Writer
	conn    net.Conn
	timeout time.Duration
	// bytes counts what the stream has written.
	bytes int64
}

func newShipWriter(w io.Writer, conn net.Conn, timeout time.Duration) *shipWriter {
	return &shipWriter{bw: bufio.NewWriterSize(w, 64<<10), conn: conn, timeout: timeout}
}

func (sw *shipWriter) Write(b []byte) (int, error) {
	if sw.conn != nil && sw.timeout > 0 {
		sw.conn.SetWriteDeadline(time.Now().Add(sw.timeout))
	}
	n, err := sw.bw.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// write writes the frame parts in order, stopping at the first error.
func (sw *shipWriter) write(parts ...any) error {
	for _, p := range parts {
		if err := binary.Write(sw, binary.LittleEndian, p); err != nil {
			return err
		}
	}
	return nil
}

func (sw *shipWriter) header(h *ShipHeader) error {
	f := headerFrame{Attempt: uint64(h.Attempt), MorselRows: int64(h.MorselRows),
		PlanLen: uint16(len(h.PlanID)), Dims: uint16(len(h.Band.Low))}
	if len(h.PlanID) > math.MaxUint16 || len(h.Band.Low) > maxBandDims || len(h.Band.High) != len(h.Band.Low) {
		return fmt.Errorf("cluster: no shipment header holds a plan id of %d bytes and a band of %d and %d dimensions",
			len(h.PlanID), len(h.Band.Low), len(h.Band.High))
	}
	if h.Delta {
		f.Flags |= flagDelta
	}
	if h.CollectPairs {
		f.Flags |= flagCollect
	}
	return sw.write(&f, []byte(h.PlanID), h.Band.Low, h.Band.High)
}

func (sw *shipWriter) partition(pid, rowsS, rowsT int) error {
	return sw.write(uint8(framePartition), &partitionFrame{uint64(pid), uint64(rowsS), uint64(rowsT)})
}

func (sw *shipWriter) chunk(c []byte) error { return sw.write(uint32(len(c)), c) }

// end writes the end frame and flushes the stream.
func (sw *shipWriter) end() error {
	if err := sw.write(uint8(frameEnd)); err != nil {
		return err
	}
	return sw.bw.Flush()
}

// shipReader reads one shipment stream.
type shipReader struct {
	r   *bufio.Reader
	buf []byte
}

func (sr *shipReader) read(v any) error { return binary.Read(sr.r, binary.LittleEndian, v) }

func (sr *shipReader) header() (h ShipHeader, err error) {
	var f headerFrame
	if err = sr.read(&f); err != nil {
		return h, fmt.Errorf("reading the shipment header: %w", err)
	}
	switch {
	case f.Flags&^(flagDelta|flagCollect) != 0:
		return h, fmt.Errorf("unknown shipment flags %#x", f.Flags)
	case f.Dims > maxBandDims || f.Attempt > math.MaxInt64:
		return h, fmt.Errorf("a shipment header of %d dimensions, shipment %d", f.Dims, f.Attempt)
	}
	id := make([]byte, f.PlanLen)
	h.Band = data.Band{Low: make([]float64, f.Dims), High: make([]float64, f.Dims)}
	if _, err = io.ReadFull(sr.r, id); err == nil {
		if err = sr.read(h.Band.Low); err == nil {
			err = sr.read(h.Band.High)
		}
	}
	if err != nil {
		return h, fmt.Errorf("reading the shipment header: %w", err)
	}
	h.PlanID, h.Attempt, h.MorselRows = string(id), int(f.Attempt), int(f.MorselRows)
	h.Delta, h.CollectPairs = f.Flags&flagDelta != 0, f.Flags&flagCollect != 0
	if h.Delta && h.PlanID == "" {
		return h, errors.New("a delta shipment names no retained plan")
	}
	return h, nil
}

// partition reads the next frame: a partition's id and row counts, or, with
// end set, the end frame.
func (sr *shipReader) partition() (pid int, rows [2]int, end bool, err error) {
	tag, err := sr.r.ReadByte()
	switch {
	case err != nil:
		return 0, rows, false, err
	case tag == frameEnd:
		return 0, rows, true, nil
	case tag != framePartition:
		return 0, rows, false, fmt.Errorf("unknown frame %#x", tag)
	}
	var f partitionFrame
	if err := sr.read(&f); err != nil {
		return 0, rows, false, fmt.Errorf("reading a partition frame: %w", err)
	}
	if f.Pid > math.MaxInt32 || f.RowsS > maxCount || f.RowsT > maxCount {
		return 0, rows, false, fmt.Errorf("a partition frame of partition %d, %d and %d rows", f.Pid, f.RowsS, f.RowsT)
	}
	return int(f.Pid), [2]int{int(f.RowsS), int(f.RowsT)}, false, nil
}

// chunk reads a chunk frame. The chunk is valid until the next call. Its
// buffer grows only as the bytes arrive, so a declared length costs no more
// than about twice what follows it.
func (sr *shipReader) chunk() ([]byte, error) {
	var n uint32
	if err := sr.read(&n); err != nil {
		return nil, err
	}
	if n > wire.MaxChunkBytes {
		return nil, fmt.Errorf("a chunk of %d bytes, past wire.MaxChunkBytes", n)
	}
	sr.buf = sr.buf[:0]
	for len(sr.buf) < int(n) {
		step := min(int(n)-len(sr.buf), max(len(sr.buf), 4096))
		sr.buf = slices.Grow(sr.buf, step)[:len(sr.buf)+step]
		if _, err := io.ReadFull(sr.r, sr.buf[len(sr.buf)-step:]); err != nil {
			return nil, err
		}
	}
	return sr.buf, nil
}

// shipReply is a worker's one answer to a stream: the time it spent decoding
// chunks, the error that ended the stream, if any, and the join of a one-shot
// or kept stream. It is gob-encoded, as an RPC reply is: it is the coordinator's input,
// from a worker it trusts, where the stream is the worker's, from the network.
type shipReply struct {
	DecodeNanos int64
	Err         string
	Join        *JoinReply
}
