// Package transport moves the bytes of non-forward shipping between the
// partitions of a flow. The engine decides *what* moves — which records,
// to which target partition, in which record.Batch units — and a Transport
// decides *how* the bytes get there: Channel reproduces the in-process
// unbuffered-channel shuffle the engine always had, byte for byte, while
// TCP frames the record wire codec over sockets to flowworker processes
// hosting remote partitions (see DESIGN.md "Transport layer").
//
// A shuffle session is push-based and partition-addressed: the engine runs
// one sender goroutine per source partition calling Send(target, batch) and
// one collector goroutine per target partition calling Recv(target) until
// end of stream. Partitioned and broadcast edges use the same session: a
// sender hands a record to one target's batch or to every target's, and the
// transport cannot tell which. Ownership of a batch passes to the transport
// on Send: the channel transport hands the pointer through unchanged (zero
// copies), the TCP transport encodes it, recycles it, and the receiving
// side decodes fresh pooled batches — so byte accounting done by the engine
// before Send (Batch.EncodedSize) is identical across transports.
//
// The Transport interface is what its users call and no more: the engine
// opens sessions, the transport's owner closes it. What only one
// implementation can do — measuring a worker fleet's bandwidth and latency
// for the optimizer — is a method of that implementation (TCP.Calibrate).
package transport

import (
	"context"
	"time"

	"blackboxflow/internal/record"
)

// Spec describes one shuffle session: how many sender goroutines will push
// batches in and how many target partitions collect them.
type Spec struct {
	// Senders is the number of sender goroutines. Each must call
	// SenderDone exactly once; end of stream reaches the targets after the
	// last one does.
	Senders int
	// Targets is the number of target partitions (the engine's DOP).
	Targets int
}

// Shuffle is one open shuffle session. Send/SenderDone are safe for
// concurrent use by the session's sender goroutines; Recv(t) must only be
// called by t's single collector goroutine.
type Shuffle interface {
	// Send delivers one batch to a target partition, blocking until the
	// transport has taken it (channel handoff or socket write). Ownership
	// of b passes to the transport. A non-nil error is sticky for the
	// session (the sender should stop).
	Send(target int, b *record.Batch) error

	// SenderDone records that one sender finished. After Spec.Senders
	// calls, every target's receive stream terminates (Recv returns nil,
	// nil once in-flight batches drain).
	SenderDone()

	// Recv returns the next batch for a target; (nil, nil) signals end of
	// stream. The caller owns the returned batch (record.PutBatch when
	// drained). A non-nil error is terminal for the target's stream: no
	// more batches will arrive and the collector must stop — senders are
	// unblocked by the same failure, never by the collector giving up.
	Recv(target int) (*record.Batch, error)

	// Close releases the session's resources. Closing a live session
	// aborts it: blocked Sends and Recvs on network paths unblock with an
	// error (in-process channel paths rely on the engine's own
	// cancellation instead, exactly as before the transport split).
	// Idempotent; safe to call from a context.AfterFunc.
	Close() error
}

// Transport owns the byte movement of a flow's non-forward shipping: the
// two methods are what the engine calls (OpenShuffle, once per shipped
// edge) and what the transport's owner calls when the last run is over
// (Close). Implementations must support concurrent shuffle sessions, though
// the engine opens them one at a time.
type Transport interface {
	// OpenShuffle starts a shuffle session. The context covers session
	// setup (dialing workers); cancellation afterwards is the caller's
	// job via Shuffle.Close.
	OpenShuffle(ctx context.Context, spec Spec) (Shuffle, error)

	// Close releases transport-wide resources (worker connections).
	Close() error
}

// WireStat is one worker connection's traffic totals for a shuffle
// session: frames and wire bytes pushed out to the worker and streamed
// back. The engine folds these into per-worker transport spans on the
// job trace.
type WireStat struct {
	// Addr is the worker's address.
	Addr string
	// FramesOut/BytesOut count data frames (and their wire bytes, header
	// included) written to the worker; FramesIn/BytesIn count the relay
	// stream read back. EOS markers are not counted.
	FramesOut, FramesIn int64
	BytesOut, BytesIn   int64
}

// WireStater is implemented by shuffle sessions that move bytes over a
// real wire (the TCP transport). Sessions without per-worker traffic —
// the in-process channel transport — simply don't implement it.
// WireStats must be safe to call once every sender and collector of the
// session has finished.
type WireStater interface {
	WireStats() []WireStat
}

// Calibration is a measured transport profile: what a shipped byte and a
// shuffle round trip actually cost on this interconnect, as TCP.Calibrate
// measures it. The optimizer prices shipped bytes with it
// (optimizer.NetProfile). The zero value means "in-process, no
// interconnect" and leaves the cost model untouched.
type Calibration struct {
	// BytesPerSec is the effective shuffle bandwidth: payload bytes moved
	// per wall-clock second through a full shuffle hop (for TCP that is
	// coordinator → worker → coordinator, the double hop every remotely
	// placed batch pays).
	BytesPerSec float64
	// RTT is the small-message round-trip time to a worker.
	RTT time.Duration
}
