package transport

import (
	"context"
	"sync/atomic"

	"blackboxflow/internal/record"
)

// Channel is the in-process transport: the engine's original shuffle
// plumbing, extracted verbatim. Batches move by pointer handoff over one
// unbuffered channel per target partition — no copies, no encoding — and
// end of stream is the channels closing after the last sender finishes,
// exactly the topology the engine wired inline before the transport split.
// The zero value is ready to use.
type Channel struct{}

// Close is a no-op: the channel transport holds no resources.
func (Channel) Close() error { return nil }

// OpenShuffle starts an in-process session: Spec.Targets unbuffered
// channels, closed after Spec.Senders SenderDone calls.
func (Channel) OpenShuffle(_ context.Context, spec Spec) (Shuffle, error) {
	return newChannelShuffle(spec), nil
}

func newChannelShuffle(spec Spec) *channelShuffle {
	s := &channelShuffle{chans: make([]chan *record.Batch, spec.Targets)}
	for i := range s.chans {
		s.chans[i] = make(chan *record.Batch)
	}
	s.senders.Store(int64(spec.Senders))
	return s
}

// channelShuffle is one in-process session. The unbuffered channels are
// the synchronization: a Send blocks until the target's collector takes
// the batch, so cancellation relies on the engine's invariant that
// collectors drain to end of stream (they never give up early on an
// in-process stream) while senders stop producing — the same contract the
// inline shuffle always had.
type channelShuffle struct {
	chans   []chan *record.Batch
	senders atomic.Int64
}

func (s *channelShuffle) Send(target int, b *record.Batch) error {
	s.chans[target] <- b
	return nil
}

func (s *channelShuffle) SenderDone() {
	if s.senders.Add(-1) == 0 {
		for _, c := range s.chans {
			close(c)
		}
	}
}

func (s *channelShuffle) Recv(target int) (*record.Batch, error) {
	b, ok := <-s.chans[target]
	if !ok {
		return nil, nil
	}
	return b, nil
}

// Close is a no-op: an aborted in-process session is torn down by its
// sender and collector goroutines finishing, not by closing channels out
// from under in-flight sends.
func (s *channelShuffle) Close() error { return nil }
