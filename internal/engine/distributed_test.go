package engine

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/transport"
)

// This file starts the shuffle workers the harness's TCP transports reach
// (TestDistributedEquivalence and the other suites of rows_test.go). By
// default the workers are in-process transport.Worker instances on
// loopback listeners (the wire, the framing, and the placement are fully
// real; only the process boundary is elided). When FLOWWORKER_BIN names a
// built cmd/flowworker binary — as the CI distributed job does — the
// workers are real separate processes instead.

// startWorkerAddrs launches n shuffle workers and returns their addresses.
func startWorkerAddrs(t *testing.T, n int) []string {
	t.Helper()
	if bin := os.Getenv("FLOWWORKER_BIN"); bin != "" {
		return startWorkerProcs(t, bin, n)
	}
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		w := transport.NewWorker(ln)
		done := make(chan error, 1)
		go func() { done <- w.Serve() }()
		t.Cleanup(func() {
			w.Close()
			if err := <-done; err != nil {
				t.Errorf("worker serve: %v", err)
			}
		})
		addrs[i] = w.Addr()
	}
	return addrs
}

// startWorkerProcs spawns real flowworker processes on ephemeral ports,
// reading each worker's listen address from its first stdout line (the
// cmd/flowworker contract).
func startWorkerProcs(t *testing.T, bin string, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", bin, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			t.Fatalf("flowworker printed no listen address: %v", err)
		}
		addrs[i] = strings.TrimSpace(line)
	}
	return addrs
}

// trackingDialer dials real TCP with a small send buffer and counts the
// connections that are still open.
type trackingDialer struct{ open atomic.Int64 }

type trackedConn struct {
	net.Conn
	closed sync.Once
	d      *trackingDialer
}

func (d *trackingDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	var nd net.Dialer
	c, err := nd.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	d.open.Add(1)
	return &trackedConn{Conn: c, d: d}, nil
}

func (c *trackedConn) Close() error {
	c.closed.Do(func() { c.d.open.Add(-1) })
	return c.Conn.Close()
}

// TestDistributedBroadcastCancelStalledWorker is the regression test for a
// cancelled run wedged in a TCP broadcast. The worker here accepts the
// shuffle connection, reads the handshake and the first byte of the first
// frame, and then never reads or relays again — not a ConnStall fault, whose
// time.Sleep ends by itself and which no Close can interrupt — so with the
// socket buffers pinned small the broadcast's senders block in Write and
// its collectors in Recv. Only closing the session on cancellation gets
// them out; a broadcast used to pass the context to the dial alone and the
// run never returned. It must return the cancellation's cause promptly and
// leave no goroutine or connection behind.
func TestDistributedBroadcastCancelStalledWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	firstFrame := make(chan struct{}, 1)
	accepted := make(chan net.Conn, 1) // one worker, one shuffle session: one connection
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
		c.(*net.TCPConn).SetReadBuffer(4 << 10)
		var handshakeAndFirstByte [7]byte
		if _, err := io.ReadFull(c, handshakeAndFirstByte[:]); err == nil {
			firstFrame <- struct{}{}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	})

	// ~1.3 MB of left-side records to every target: far more than the few
	// KB the pinned socket buffers hold.
	const lN, rN, keys, dop = 60000, 100, 100, 2
	plan := keyJoinFlow(lN, rN, keys, 20).plan(t, dop)
	pinJoin(optimizer.ShipBroadcast, optimizer.ShipForward, 0)[0].apply(t, plan)

	dialer := &trackingDialer{}
	tp, err := transport.NewTCP(transport.TCPConfig{Workers: []string{ln.Addr().String()}, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	e := New(dop).WithTransport(tp)
	for name, ds := range keyJoinData(lN, keys, rN, keys, 0) {
		e.AddSource(name, ds)
	}

	before := runtime.NumGoroutine()
	cause := errors.New("cancelled mid-broadcast by the test")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cancelled := make(chan time.Time, 1)
	go func() {
		<-firstFrame
		cancelled <- time.Now()
		cancel(cause)
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := e.RunContext(ctx, plan)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("RunContext still blocked 20s into a broadcast to a stalled worker: cancellation does not reach the session")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
	if took := time.Since(<-cancelled); took > 2*time.Second {
		t.Fatalf("run returned %v after cancellation, want under 2s", took)
	}
	waitGoroutines(t, before)
	if n := dialer.open.Load(); n != 0 {
		t.Fatalf("%d worker connections still open after the cancelled run", n)
	}
}
