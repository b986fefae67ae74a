package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// A Worker hosts remote shuffle partitions for the TCP transport: the
// byte buffers of targets placed on it live in its connections, not in the
// coordinator process. The coordinator pushes every batch routed to a
// remotely placed target over the wire to the worker hosting it; when the
// target's collector (which runs on the coordinator, where the UDFs are)
// consumes the stream, the worker relays the frames back in arrival order.
// This is the external-shuffle-service shape: workers own shuffle bytes
// and survive independently of any one flow, while operator execution
// stays on the coordinator. Because all of a worker's per-flow state is
// connection-scoped, job teardown is connection teardown — closing a job's
// transport frees everything the job put on its workers, with no
// distributed garbage collection.
//
// Wire protocol: every connection opens with a 6-byte handshake (magic
// "bbfw", version, connection kind). A shuffle connection then carries
// data/EOS frames (see frame.go), relayed back verbatim. A control
// connection answers single-byte ops: ping (health checks; the pong
// carries the worker's relay counters so sweeps collect traffic totals
// for free) and a length-prefixed echo (bandwidth calibration).
type Worker struct {
	ln net.Listener

	// Relay traffic totals across all shuffle connections since start,
	// reported in every pong payload. Atomics: each shuffle connection's
	// handler increments them concurrently.
	relayFrames atomic.Int64
	relayBytes  atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Handshake constants.
var handshakeMagic = [4]byte{'b', 'b', 'f', 'w'}

const (
	// protocolVersion 2: the pong reply grew a 16-byte relay-counter
	// payload (u64 frames, u64 bytes, little-endian).
	protocolVersion byte = 2

	connKindControl byte = 0
	connKindShuffle byte = 1

	controlPing  byte = 'p'
	controlPong  byte = 'o'
	controlCalib byte = 'c'

	// maxCalibPayload caps a calibration echo request.
	maxCalibPayload = 16 << 20
)

// NewWorker wraps a listener. Serve accepts connections until Close.
func NewWorker(ln net.Listener) *Worker {
	return &Worker{ln: ln, conns: map[net.Conn]struct{}{}}
}

// Addr returns the listen address (for workers bound to port 0).
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// RelayStats returns the worker's lifetime relay totals: data frames and
// bytes forwarded between shuffle senders and collectors. The same totals
// ride every ping reply (PingStats).
func (w *Worker) RelayStats() (frames, bytes int64) {
	return w.relayFrames.Load(), w.relayBytes.Load()
}

// Serve accepts and serves connections until the worker is closed. It
// returns nil after Close, or the listener's error.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conns[conn] = struct{}{}
		w.wg.Add(1)
		w.mu.Unlock()
		go w.serveConn(conn)
	}
}

// Close stops accepting, closes every live connection (aborting the
// shuffles they carry), and waits for the connection handlers to finish.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	err := w.ln.Close()
	w.wg.Wait()
	return err
}

func (w *Worker) serveConn(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	kind, err := readHandshake(br)
	if err != nil {
		return
	}
	switch kind {
	case connKindControl:
		w.serveControl(br, conn)
	case connKindShuffle:
		w.serveShuffle(br, conn)
	}
}

// serveControl answers health pings and calibration echoes until the
// connection closes.
func (w *Worker) serveControl(br *bufio.Reader, conn net.Conn) {
	bw := bufio.NewWriter(conn)
	for {
		op, err := br.ReadByte()
		if err != nil {
			return
		}
		switch op {
		case controlPing:
			var pong [1 + 16]byte
			pong[0] = controlPong
			binary.LittleEndian.PutUint64(pong[1:9], uint64(w.relayFrames.Load()))
			binary.LittleEndian.PutUint64(pong[9:17], uint64(w.relayBytes.Load()))
			if _, err := bw.Write(pong[:]); err != nil || bw.Flush() != nil {
				return
			}
		case controlCalib:
			var lenBuf [4]byte
			if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
				return
			}
			n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
			if n <= 0 || n > maxCalibPayload {
				return
			}
			payload := make([]byte, n)
			if _, err := io.ReadFull(br, payload); err != nil {
				return
			}
			if bw.WriteByte(controlCalib) != nil {
				return
			}
			if _, err := bw.Write(lenBuf[:]); err != nil {
				return
			}
			if _, err := bw.Write(payload); err != nil {
				return
			}
			if bw.Flush() != nil {
				return
			}
		default:
			return
		}
	}
}

// serveShuffle relays one shuffle connection: every frame the coordinator
// pushes is validated and echoed back in arrival order — the worker is
// where the bytes of its hosted targets live between send and collect. The
// relay ends at the EOS frame (echoed so the coordinator's demultiplexer
// sees end of stream after the last data frame) or on any error, whose
// connection teardown the coordinator surfaces as a job error. A frame is
// written out before the next is read, so one payload buffer serves the
// whole connection.
func (w *Worker) serveShuffle(br *bufio.Reader, conn net.Conn) {
	bw := bufio.NewWriter(conn)
	var buf []byte
	for {
		f, err := readFrame(br, buf)
		if err != nil {
			return
		}
		if err := writeFrame(bw, f); err != nil {
			return
		}
		if f.op == frameEOS {
			bw.Flush()
			return
		}
		buf = f.payload
		w.relayFrames.Add(1)
		w.relayBytes.Add(int64(dataFrameHeaderSize + len(f.payload)))
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// writeHandshake sends the connection preamble for the given kind.
func writeHandshake(conn io.Writer, kind byte) error {
	h := []byte{handshakeMagic[0], handshakeMagic[1], handshakeMagic[2], handshakeMagic[3], protocolVersion, kind}
	_, err := conn.Write(h)
	return err
}

// readHandshake validates the preamble and returns the connection kind.
func readHandshake(r io.Reader) (byte, error) {
	var h [6]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, err
	}
	if [4]byte(h[:4]) != handshakeMagic {
		return 0, errors.New("transport: bad handshake magic")
	}
	if h[4] != protocolVersion {
		return 0, fmt.Errorf("transport: protocol version %d, want %d", h[4], protocolVersion)
	}
	if h[5] != connKindControl && h[5] != connKindShuffle {
		return 0, fmt.Errorf("transport: unknown connection kind %d", h[5])
	}
	return h[5], nil
}
