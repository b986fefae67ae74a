package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blackboxflow/internal/record"
)

// Dialer is the connection seam of the TCP transport: how coordinator-side
// connections to workers are made. The default dials real TCP; fault
// harnesses install a FaultDialer to fire connection faults at exact
// operation indices (see faultconn.go), mirroring faultfs for disks.
type Dialer interface {
	DialContext(ctx context.Context, addr string) (net.Conn, error)
}

// netDialer is the default Dialer.
type netDialer struct{}

func (netDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// TCPConfig configures a TCP transport.
type TCPConfig struct {
	// Workers are the flowworker addresses hosting remote partitions.
	// At least one is required.
	Workers []string
	// LocalSlots is the number of placement slots kept in the coordinator
	// process per placement rotation: target t is local when
	// t mod (LocalSlots+len(Workers)) < LocalSlots, and hosted by a worker
	// otherwise. Zero places every target on a worker.
	LocalSlots int
	// Dialer makes worker connections; nil dials real TCP.
	Dialer Dialer
}

// TCP is the multi-process transport: targets placed on workers have their
// shuffle bytes pushed over a per-(session, worker) connection to the
// worker hosting them and streamed back to the target's coordinator-side
// collector — the external-shuffle-service double hop (see Worker). Local
// placement slots keep the in-process channel handoff. Batches cross the
// wire in the record wire codec framed per frame.go.
type TCP struct {
	cfg    TCPConfig
	dialer Dialer

	mu     sync.Mutex
	closed bool
	open   map[*tcpShuffle]struct{}
}

// NewTCP returns a TCP transport over the configured workers.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("transport: TCP transport needs at least one worker")
	}
	if cfg.LocalSlots < 0 {
		return nil, fmt.Errorf("transport: negative LocalSlots %d", cfg.LocalSlots)
	}
	d := cfg.Dialer
	if d == nil {
		d = netDialer{}
	}
	return &TCP{cfg: cfg, dialer: d, open: map[*tcpShuffle]struct{}{}}, nil
}

// placement returns the worker index hosting a target, or -1 for a local
// placement slot.
func (t *TCP) placement(target int) int {
	slots := t.cfg.LocalSlots + len(t.cfg.Workers)
	s := target % slots
	if s < t.cfg.LocalSlots {
		return -1
	}
	return s - t.cfg.LocalSlots
}

// Close aborts every open session and refuses new ones. It is the
// transport-level teardown jobs run when a job ends: all worker-side state
// is connection-scoped, so closing the connections frees it.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	open := make([]*tcpShuffle, 0, len(t.open))
	for s := range t.open {
		open = append(open, s)
	}
	t.mu.Unlock()
	for _, s := range open {
		s.Close()
	}
	return nil
}

// OpenShuffle dials one shuffle connection per worker that hosts at least
// one of the session's targets and starts a demultiplexer per connection.
func (t *TCP) OpenShuffle(ctx context.Context, spec Spec) (Shuffle, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("transport: TCP transport is closed")
	}
	t.mu.Unlock()

	s := &tcpShuffle{
		channelShuffle: newChannelShuffle(spec),
		owner:          t,
		remote:         make([]*tcpWorkerConn, spec.Targets),
	}

	// Group targets by hosting worker; dial each worker once.
	conns := map[int]*tcpWorkerConn{}
	for target := 0; target < spec.Targets; target++ {
		wi := t.placement(target)
		if wi < 0 {
			continue
		}
		wc, ok := conns[wi]
		if !ok {
			conn, err := t.dialer.DialContext(ctx, t.cfg.Workers[wi])
			if err != nil {
				teardownConns(conns)
				return nil, fmt.Errorf("transport: dial worker %s: %w", t.cfg.Workers[wi], err)
			}
			if err := writeHandshake(conn, connKindShuffle); err != nil {
				conn.Close()
				teardownConns(conns)
				return nil, fmt.Errorf("transport: handshake with worker %s: %w", t.cfg.Workers[wi], err)
			}
			wc = &tcpWorkerConn{conn: conn, addr: t.cfg.Workers[wi]}
			conns[wi] = wc
			s.conns = append(s.conns, wc)
		}
		wc.targets = append(wc.targets, target)
		s.remote[target] = wc
	}
	for _, wc := range s.conns {
		go s.demux(wc)
	}
	t.mu.Lock()
	t.open[s] = struct{}{}
	t.mu.Unlock()
	return s, nil
}

// Calibrate measures each worker's control-connection round-trip time
// (min of a few pings) and effective echo bandwidth (payload out and back,
// the same double hop a remotely placed shuffle batch pays) and averages
// across workers.
func (t *TCP) Calibrate(ctx context.Context) (Calibration, error) {
	var sumBPS float64
	var sumRTT time.Duration
	for _, addr := range t.cfg.Workers {
		conn, err := t.dialer.DialContext(ctx, addr)
		if err != nil {
			return Calibration{}, fmt.Errorf("transport: calibrate %s: %w", addr, err)
		}
		rtt, bps, err := calibrateConn(conn)
		conn.Close()
		if err != nil {
			return Calibration{}, fmt.Errorf("transport: calibrate %s: %w", addr, err)
		}
		sumRTT += rtt
		sumBPS += bps
	}
	n := float64(len(t.cfg.Workers))
	return Calibration{BytesPerSec: sumBPS / n, RTT: sumRTT / time.Duration(len(t.cfg.Workers))}, nil
}

// calibrateConn runs the ping and echo rounds on one control connection.
func calibrateConn(conn net.Conn) (time.Duration, float64, error) {
	const (
		pings      = 5
		calibChunk = 1 << 20
		calibSends = 3
	)
	if err := writeHandshake(conn, connKindControl); err != nil {
		return 0, 0, err
	}
	br := bufio.NewReader(conn)
	rtt := time.Duration(1<<63 - 1)
	for i := 0; i < pings; i++ {
		start := time.Now()
		if _, err := pingConn(conn, br); err != nil {
			return 0, 0, err
		}
		if d := time.Since(start); d < rtt {
			rtt = d
		}
	}
	payload := make([]byte, calibChunk)
	for i := range payload {
		payload[i] = byte(i)
	}
	// One warm-up echo, then the timed rounds.
	if err := echoConn(conn, br, payload[:4096]); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i := 0; i < calibSends; i++ {
		if err := echoConn(conn, br, payload); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	bps := float64(calibSends*calibChunk) / elapsed.Seconds()
	return rtt, bps, nil
}

// WorkerStats is a worker's health-ping result: the measured round-trip
// time plus the relay counters the worker reports in its pong payload —
// data frames (and their wire bytes) relayed across all shuffle
// connections since the worker started.
type WorkerStats struct {
	RTT    time.Duration
	Frames int64
	Bytes  int64
}

// Ping health-checks a worker over a fresh control connection; d nil dials
// real TCP. It returns nil when the worker answers the ping.
func Ping(ctx context.Context, addr string, d Dialer) error {
	_, err := PingStats(ctx, addr, d)
	return err
}

// PingStats health-checks a worker and returns its measured RTT plus the
// worker's self-reported relay counters; d nil dials real TCP.
func PingStats(ctx context.Context, addr string, d Dialer) (WorkerStats, error) {
	if d == nil {
		d = netDialer{}
	}
	conn, err := d.DialContext(ctx, addr)
	if err != nil {
		return WorkerStats{}, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	if err := writeHandshake(conn, connKindControl); err != nil {
		return WorkerStats{}, err
	}
	start := time.Now()
	st, err := pingConn(conn, bufio.NewReader(conn))
	if err != nil {
		return WorkerStats{}, err
	}
	st.RTT = time.Since(start)
	return st, nil
}

// pingConn runs one ping round: a pong byte followed by the worker's
// 16-byte counter payload (u64 frames, u64 bytes relayed, little-endian).
func pingConn(conn net.Conn, br *bufio.Reader) (WorkerStats, error) {
	if _, err := conn.Write([]byte{controlPing}); err != nil {
		return WorkerStats{}, err
	}
	var reply [1 + 16]byte
	if _, err := io.ReadFull(br, reply[:]); err != nil {
		return WorkerStats{}, err
	}
	if reply[0] != controlPong {
		return WorkerStats{}, fmt.Errorf("transport: ping answered %d, want pong", reply[0])
	}
	return WorkerStats{
		Frames: int64(binary.LittleEndian.Uint64(reply[1:9])),
		Bytes:  int64(binary.LittleEndian.Uint64(reply[9:17])),
	}, nil
}

func echoConn(conn net.Conn, br *bufio.Reader, payload []byte) error {
	hdr := make([]byte, 1, 5)
	hdr[0] = controlCalib
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := conn.Write(hdr); err != nil {
		return err
	}
	if _, err := conn.Write(payload); err != nil {
		return err
	}
	back := make([]byte, 5)
	if _, err := io.ReadFull(br, back); err != nil {
		return err
	}
	if back[0] != controlCalib {
		return fmt.Errorf("transport: echo answered op %d", back[0])
	}
	if n := binary.LittleEndian.Uint32(back[1:]); int(n) != len(payload) {
		return fmt.Errorf("transport: echo returned %d bytes, sent %d", n, len(payload))
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		return err
	}
	return nil
}

// tcpWorkerConn is one session's connection to one worker: the write side
// is mutex-serialized across the engine's sender goroutines (frames from
// one sender to one target stay in order, the property the canonical-order
// equivalence relies on), the read side is owned by the session's demux
// goroutine.
type tcpWorkerConn struct {
	conn    net.Conn
	addr    string
	targets []int

	// Traffic counters for WireStats. Atomics because the write side
	// (senders under mu) and the read side (demux goroutine) update them
	// concurrently, and the engine reads them after its collectors drain
	// while a demux goroutine may still be winding down.
	framesOut, framesIn atomic.Int64
	bytesOut, bytesIn   atomic.Int64

	mu  sync.Mutex
	buf []byte
	err error // sticky write-side error
}

// sendBatch encodes and writes one batch, recycling it either way.
func (wc *tcpWorkerConn) sendBatch(target int, b *record.Batch) error {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.err != nil {
		record.PutBatch(b)
		return wc.err
	}
	wc.buf = appendDataFrame(wc.buf[:0], target, b)
	record.PutBatch(b)
	if _, err := wc.conn.Write(wc.buf); err != nil {
		wc.err = fmt.Errorf("transport: write to worker %s: %w", wc.addr, err)
		return wc.err
	}
	wc.framesOut.Add(1)
	wc.bytesOut.Add(int64(len(wc.buf)))
	return nil
}

// sendEOS writes the end-of-stream frame.
func (wc *tcpWorkerConn) sendEOS() {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.err != nil {
		return
	}
	if _, err := wc.conn.Write([]byte{frameEOS}); err != nil {
		wc.err = fmt.Errorf("transport: write to worker %s: %w", wc.addr, err)
	}
}

// tcpShuffle is one open TCP session: a channelShuffle — one receive
// stream per target and the sender count — in which the stream of a target
// placed on a worker is fed and closed by that worker's demux, not by the
// senders. A local placement slot is the in-process handoff unchanged.
type tcpShuffle struct {
	*channelShuffle
	owner  *TCP
	remote []*tcpWorkerConn // per-target, nil when placed locally
	conns  []*tcpWorkerConn

	mu      sync.Mutex
	closed  bool
	recvErr error
}

// failTargets records a terminal receive-side error and ends the streams
// of one connection's targets. The error is published before the channels
// close, so a collector that sees its stream end observes it.
func (s *tcpShuffle) failTargets(wc *tcpWorkerConn, err error) {
	s.mu.Lock()
	if s.recvErr == nil {
		s.recvErr = err
	}
	s.mu.Unlock()
	for _, t := range wc.targets {
		close(s.chans[t])
	}
}

// demux routes one worker connection's return stream: decoded batches to
// their targets' receive channels, end of stream closing them, and any
// connection failure — a mid-batch drop included — terminating the
// targets' streams with an error instead of hanging their collectors.
// Decoded batches own their records, so one payload buffer serves every
// frame of the connection.
func (s *tcpShuffle) demux(wc *tcpWorkerConn) {
	br := bufio.NewReader(wc.conn)
	var buf []byte
	for {
		f, err := readFrame(br, buf)
		if err != nil {
			s.failTargets(wc, fmt.Errorf("transport: read from worker %s: %w", wc.addr, err))
			return
		}
		if f.op == frameEOS {
			for _, t := range wc.targets {
				close(s.chans[t])
			}
			return
		}
		if f.target < 0 || f.target >= len(s.remote) || s.remote[f.target] == nil {
			s.failTargets(wc, fmt.Errorf("transport: worker %s returned frame for unknown target %d", wc.addr, f.target))
			return
		}
		b, err := decodeBatch(f)
		if err != nil {
			s.failTargets(wc, err)
			return
		}
		buf = f.payload
		wc.framesIn.Add(1)
		wc.bytesIn.Add(int64(dataFrameHeaderSize + len(f.payload)))
		s.chans[f.target] <- b
	}
}

func (s *tcpShuffle) Send(target int, b *record.Batch) error {
	if wc := s.remote[target]; wc != nil {
		return wc.sendBatch(target, b)
	}
	return s.channelShuffle.Send(target, b)
}

func (s *tcpShuffle) SenderDone() {
	if s.senders.Add(-1) != 0 {
		return
	}
	for t, wc := range s.remote {
		if wc == nil {
			close(s.chans[t])
		}
	}
	for _, wc := range s.conns {
		wc.sendEOS()
	}
}

// WireStats reports per-worker traffic for the session, sorted by worker
// address. Sessions with no remotely placed targets return nil.
func (s *tcpShuffle) WireStats() []WireStat {
	out := make([]WireStat, 0, len(s.conns))
	for _, wc := range s.conns {
		out = append(out, WireStat{
			Addr:      wc.addr,
			FramesOut: wc.framesOut.Load(),
			FramesIn:  wc.framesIn.Load(),
			BytesOut:  wc.bytesOut.Load(),
			BytesIn:   wc.bytesIn.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	if len(out) == 0 {
		return nil
	}
	return out
}

// Recv is the channel session's, except that a worker-hosted stream that
// ended reports why, if a connection failure ended it.
func (s *tcpShuffle) Recv(target int) (*record.Batch, error) {
	b, _ := s.channelShuffle.Recv(target)
	if b != nil || s.remote[target] == nil {
		return b, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return nil, s.recvErr
}

// Close tears the session down: worker connections close, which unblocks
// any sender stuck in a socket write and makes every demux terminate its
// targets' streams. Local placement slots are untouched — their goroutines
// wind down through the engine's own cancellation, as with the channel
// transport. Idempotent.
func (s *tcpShuffle) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	for _, wc := range s.conns {
		wc.conn.Close()
	}
	if s.owner != nil {
		s.owner.mu.Lock()
		delete(s.owner.open, s)
		s.owner.mu.Unlock()
	}
	return nil
}

// teardownConns closes connections dialed by a failed OpenShuffle.
func teardownConns(conns map[int]*tcpWorkerConn) {
	for _, wc := range conns {
		wc.conn.Close()
	}
}
