package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"blackboxflow/internal/record"
)

// startWorker serves a Worker on a loopback listener and tears it down
// with the test.
func startWorker(t *testing.T) *Worker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	w := NewWorker(ln)
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	t.Cleanup(func() {
		w.Close()
		if err := <-done; err != nil {
			t.Errorf("worker serve: %v", err)
		}
	})
	return w
}

// newTCP builds a TCP transport over n fresh in-process workers.
func newTCP(t *testing.T, n, localSlots int) *TCP {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startWorker(t).Addr()
	}
	tp, err := NewTCP(TCPConfig{Workers: addrs, LocalSlots: localSlots})
	if err != nil {
		t.Fatalf("NewTCP: %v", err)
	}
	t.Cleanup(func() { tp.Close() })
	return tp
}

// runShuffle pushes parts through one session of tp and returns what each
// target collected, mimicking the engine's sender/collector topology.
func runShuffle(t *testing.T, tp Transport, parts [][]record.Record, targets int, route func(record.Record) int) [][]record.Record {
	t.Helper()
	sh, err := tp.OpenShuffle(context.Background(), Spec{Senders: len(parts), Targets: targets})
	if err != nil {
		t.Fatalf("OpenShuffle: %v", err)
	}
	defer sh.Close()
	var wg sync.WaitGroup
	sendErrs := make([]error, len(parts))
	for si, part := range parts {
		wg.Add(1)
		go func(si int, part []record.Record) {
			defer wg.Done()
			defer sh.SenderDone()
			acc := make([]*record.Batch, targets)
			for _, r := range part {
				tgt := route(r)
				if acc[tgt] == nil {
					acc[tgt] = record.GetBatch()
				}
				if acc[tgt].Append(r) {
					if err := sh.Send(tgt, acc[tgt]); err != nil {
						sendErrs[si] = err
						return
					}
					acc[tgt] = nil
				}
			}
			for tgt, b := range acc {
				if b != nil {
					if err := sh.Send(tgt, b); err != nil {
						sendErrs[si] = err
						return
					}
				}
			}
		}(si, part)
	}
	out := make([][]record.Record, targets)
	recvErrs := make([]error, targets)
	var cwg sync.WaitGroup
	for i := 0; i < targets; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			for {
				b, err := sh.Recv(i)
				if err != nil {
					recvErrs[i] = err
					return
				}
				if b == nil {
					return
				}
				out[i] = append(out[i], b.Records()...)
				record.PutBatch(b)
			}
		}(i)
	}
	wg.Wait()
	cwg.Wait()
	for _, err := range sendErrs {
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	for _, err := range recvErrs {
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	return out
}

func genParts(senders, perSender int) [][]record.Record {
	parts := make([][]record.Record, senders)
	n := 0
	for si := range parts {
		parts[si] = make([]record.Record, perSender)
		for i := range parts[si] {
			parts[si][i] = record.Record{record.Int(int64(n)), record.String(fmt.Sprintf("v-%d", n))}
			n++
		}
	}
	return parts
}

// TestTCPShuffleMatchesChannel pins the tentpole contract at transport
// level: the same routed stream through the channel transport and through
// TCP sessions (all-remote and mixed local/remote placements, 1 and 2
// workers) lands the same multiset of records on every target, with
// per-sender arrival order preserved per target.
func TestTCPShuffleMatchesChannel(t *testing.T) {
	const targets = 5
	parts := genParts(3, 2500) // >1 full batch per (sender, target)
	route := func(r record.Record) int { return int(r.Hash([]int{0}) % targets) }

	want := runShuffle(t, Channel{}, parts, targets, route)
	for _, tc := range []struct {
		name       string
		workers    int
		localSlots int
	}{
		{"all-remote-1w", 1, 0},
		{"all-remote-2w", 2, 0},
		{"mixed-2w", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := newTCP(t, tc.workers, tc.localSlots)
			got := runShuffle(t, tp, parts, targets, route)
			for i := range want {
				if !record.DataSet(got[i]).Equal(record.DataSet(want[i])) {
					t.Fatalf("target %d: TCP shuffle bag differs from channel (%d vs %d records)", i, len(got[i]), len(want[i]))
				}
			}
		})
	}
}

// TestTCPPerSenderOrderPreserved pins the ordering property the engine's
// canonical-order equivalence relies on: the frames one sender pushes to
// one target come back in the order they were sent.
func TestTCPPerSenderOrderPreserved(t *testing.T) {
	tp := newTCP(t, 2, 0)
	parts := genParts(1, 5000)
	out := runShuffle(t, tp, parts, 2, func(r record.Record) int {
		return int(r.Field(0).AsInt() % 2)
	})
	for tgt, recs := range out {
		last := int64(-1)
		for _, r := range recs {
			v := r.Field(0).AsInt()
			if v <= last {
				t.Fatalf("target %d: record %d arrived after %d — per-sender order broken", tgt, v, last)
			}
			last = v
		}
	}
}

// TestWorkerPingAndCalibrate covers the control plane: health checks
// answer, and calibration reports a plausible profile.
func TestWorkerPingAndCalibrate(t *testing.T) {
	tp := newTCP(t, 2, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, addr := range tp.cfg.Workers {
		if err := Ping(ctx, addr, nil); err != nil {
			t.Fatalf("ping %s: %v", addr, err)
		}
	}
	if err := Ping(ctx, "127.0.0.1:1", nil); err == nil {
		t.Fatal("ping of a dead address succeeded")
	}
	cal, err := tp.Calibrate(ctx)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	if cal.BytesPerSec <= 0 || cal.RTT <= 0 {
		t.Fatalf("implausible calibration %+v", cal)
	}
}

// TestTCPConnDropSurfacesError pins the failure contract of the satellite:
// a connection dropped mid-batch surfaces as an error from Send or Recv —
// never a hang — whatever operation index it fires at.
func TestTCPConnDropSurfacesError(t *testing.T) {
	parts := genParts(2, 4000)
	const targets = 3
	route := func(r record.Record) int { return int(r.Hash([]int{0}) % targets) }

	// Count the fault points a clean run exposes, then sweep indices
	// across the whole run.
	counter := &FaultDialer{}
	addrs := []string{startWorker(t).Addr(), startWorker(t).Addr()}
	tp, err := NewTCP(TCPConfig{Workers: addrs, Dialer: counter})
	if err != nil {
		t.Fatal(err)
	}
	runShuffle(t, tp, parts, targets, route)
	tp.Close()
	total := counter.Ops()
	if total < 10 {
		t.Fatalf("clean run exposed only %d conn ops", total)
	}

	// A clean run has 38 to 41 ops, depending on how loopback reads split.
	// The indices of a 38-op run are always swept, so the subtest names do
	// not change from run to run; the computed ones still reach this run's
	// last op.
	ats := []int64{1, 2, 12, 19, 37, total / 3, total / 2, total - 1}
	slices.Sort(ats)
	for _, at := range slices.Compact(ats) {
		t.Run(fmt.Sprintf("drop-at-%d", at), func(t *testing.T) {
			dialer := &FaultDialer{At: at, Kind: ConnDrop}
			ftp, err := NewTCP(TCPConfig{Workers: addrs, Dialer: dialer})
			if err != nil {
				t.Fatal(err)
			}
			defer ftp.Close()
			err = runShuffleErr(t, ftp, parts, targets, route)
			if !dialer.Fired() {
				t.Skip("fault index beyond this run's op count")
			}
			if err == nil {
				t.Fatal("dropped connection produced no error")
			}
		})
	}
}

// runShuffleErr is runShuffle returning the first error instead of
// failing, with a watchdog so a hang fails fast.
func runShuffleErr(t *testing.T, tp Transport, parts [][]record.Record, targets int, route func(record.Record) int) error {
	t.Helper()
	type result struct{ err error }
	done := make(chan result, 1)
	go func() {
		sh, err := tp.OpenShuffle(context.Background(), Spec{Senders: len(parts), Targets: targets})
		if err != nil {
			done <- result{err}
			return
		}
		defer sh.Close()
		errs := make([]error, len(parts)+targets)
		var wg sync.WaitGroup
		for si, part := range parts {
			wg.Add(1)
			go func(si int, part []record.Record) {
				defer wg.Done()
				defer sh.SenderDone()
				acc := make([]*record.Batch, targets)
				for _, r := range part {
					tgt := route(r)
					if acc[tgt] == nil {
						acc[tgt] = record.GetBatch()
					}
					if acc[tgt].Append(r) {
						if errs[si] = sh.Send(tgt, acc[tgt]); errs[si] != nil {
							return
						}
						acc[tgt] = nil
					}
				}
				for tgt, b := range acc {
					if b != nil {
						if errs[si] = sh.Send(tgt, b); errs[si] != nil {
							return
						}
					}
				}
			}(si, part)
		}
		for i := 0; i < targets; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for {
					b, err := sh.Recv(i)
					if err != nil {
						errs[len(parts)+i] = err
						return
					}
					if b == nil {
						return
					}
					record.PutBatch(b)
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				done <- result{err}
				return
			}
		}
		done <- result{nil}
	}()
	select {
	case r := <-done:
		return r.err
	case <-time.After(30 * time.Second):
		t.Fatal("shuffle hung after connection fault")
		return nil
	}
}

// TestTCPCloseUnblocks pins session abort: closing a live session (the
// context.AfterFunc path) unblocks its sender promptly with an error.
func TestTCPCloseUnblocks(t *testing.T) {
	tp := newTCP(t, 1, 0)
	sh, err := tp.OpenShuffle(context.Background(), Spec{Senders: 1, Targets: 1})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		// Nobody Recvs: send until socket buffers fill, then block.
		var err error
		for err == nil {
			b := record.GetBatch()
			for i := 0; i < record.DefaultBatchCap; i++ {
				b.Append(record.Record{record.String("padding-padding-padding-padding")})
			}
			err = sh.Send(0, b)
		}
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	sh.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("send after Close returned nil")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock the sender")
	}
}

// TestFrameRoundTrip pins the wire format against the decoder.
func TestFrameRoundTrip(t *testing.T) {
	b := record.GetBatch()
	want := []record.Record{
		{record.Int(-7), record.String("x"), record.Null},
		{record.Float(3.5), record.Bool(true)},
		{},
	}
	for _, r := range want {
		b.Append(r)
	}
	size := b.EncodedSize()
	buf := appendDataFrame(nil, 3, b)
	if len(buf) != dataFrameHeaderSize+size {
		t.Fatalf("frame is %d bytes, want %d", len(buf), dataFrameHeaderSize+size)
	}
	f, err := readFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.target != 3 || f.count != len(want) {
		t.Fatalf("frame header target=%d count=%d", f.target, f.count)
	}
	got, err := decodeBatch(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(want) {
		t.Fatalf("decoded %d records, want %d", got.Len(), len(want))
	}
	for i, r := range got.Records() {
		if !r.Equal(want[i]) {
			t.Fatalf("record %d is %v, want %v", i, r, want[i])
		}
	}

	// Truncations at every boundary fail instead of hanging or panicking.
	for cut := 1; cut < len(buf); cut++ {
		if _, err := readFrame(bytes.NewReader(buf[:cut]), nil); err == nil {
			t.Fatalf("frame truncated to %d bytes decoded successfully", cut)
		}
	}
	// An oversized length prefix is rejected before allocation.
	big := append([]byte(nil), buf...)
	big[9], big[10], big[11], big[12] = 0xff, 0xff, 0xff, 0x7f
	if _, err := readFrame(bytes.NewReader(big), nil); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

// FuzzReadFrame fuzzes the frame decoder end to end: arbitrary bytes must
// never panic, never allocate past the frame caps, and any frame that
// decodes must re-encode to the bytes consumed — even after the payload
// buffer, which the read paths reuse for the next frame, is overwritten.
func FuzzReadFrame(f *testing.F) {
	frameOf := func(recs ...record.Record) []byte {
		b := record.GetBatch()
		for _, r := range recs {
			b.Append(r)
		}
		return appendDataFrame(nil, 1, b)
	}
	f.Add(frameOf(record.Record{record.Int(1), record.String("seed")}))
	mixed := frameOf(
		record.Record{record.Int(1), record.String("alpha"), record.Null, record.Bool(true)},
		record.Record{record.Float(2.5), record.String(""), record.Bool(false), record.String("βeta")},
		record.Record{},
		record.Record{record.Null, record.Null},
	)
	f.Add(mixed)
	f.Add(append(append([]byte(nil), mixed...), 0xff)) // a byte past the frame
	trailing := append([]byte(nil), mixed...)
	trailing[5]-- // one record fewer than the payload holds
	f.Add(trailing)
	huge := []byte{frameData, 0, 0, 0, 0, 1, 0, 0, 0, 13, 0, 0, 0}
	huge = append(huge, 0, 0, 0, 1, byte(record.KindInt), 1, 2, 3, 4, 5, 6, 7, 8) // 2^24 fields claimed
	f.Add(huge)
	f.Add([]byte{frameEOS})
	f.Add([]byte{frameData, 0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	buf := make([]byte, 0, 64)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data), buf)
		if err != nil {
			return
		}
		if fr.op == frameEOS {
			return
		}
		batch, err := decodeBatch(fr)
		if err != nil {
			return
		}
		for i := range fr.payload {
			fr.payload[i] = 0xA5
		}
		// A decodable frame must round-trip byte-for-byte.
		out := appendDataFrame(nil, fr.target, batch)
		in := data[:dataFrameHeaderSize+len(fr.payload)]
		if !bytes.Equal(out, in) {
			t.Fatalf("frame did not round-trip:\n in: %x\nout: %x", in, out)
		}
		record.PutBatch(batch)
	})
}
