package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/spill"
	"blackboxflow/internal/tac"
	"blackboxflow/internal/transport"
)

// This file is the sender → receiver stage of the pipeline, the one every
// non-forward edge ships through: the one topology (one sender goroutine per
// source partition, one collector per target, over a transport session), its
// sender — hash-routing or broadcasting, plain or combining, with the edge's
// fused Map chain in front — and its collector, which bounds resident bytes
// at a budget and spills sorted runs on overflow (budget zero: everything
// stays resident).

// Shuffle hash-partitions a partitioned data set by the key fields into
// e.DOP partitions and returns the reshaped data plus the number of bytes
// that crossed the network seam. It is the primitive behind ShipPartition,
// exposed so tests and benchmarks can drive it directly.
func (e *Engine) Shuffle(in Partitioned, keys []int) (Partitioned, int, error) {
	ed := edge{data: in, keys: keys}
	bytes, err := e.shuffle(context.Background(), e.TraceParent, &ed, nil, 0)
	return ed.data, bytes, err
}

// shuffle ships an edge's records over the engine's transport — each to the
// target its key fields hash to, or, on a broadcast edge, to every target —
// replacing ed.data with what the targets received and filling ed.spills,
// ed.counts, ed.routed and ed.combinerCalls. The byte count is meaningful
// even alongside an error (partial transfers count what they accounted
// before failing); on error the caller still owns — and closes — the spill
// files.
//
// Records move in record.Batch units rather than one at a time: each sender
// accumulates a per-target batch and hands it to the transport session when
// full (record.DefaultBatchCap records), which amortizes per-transfer
// synchronization across ~1k records. Batches are sync.Pool-recycled, and
// each batch carries its running encoded size, so byte accounting needs no
// second pass over the records — and happens engine-side before Send, so
// ShippedBytes is identical whichever transport carries the batch (and, on a
// broadcast edge, the input's wire size once per target). Every target's
// collector builds its own slice of record headers — the records themselves
// are immutable by engine convention — so a local strategy that sorts in
// place cannot race its siblings. A non-nil combiner (the Combinable Reduce
// being fed) switches the senders to partial aggregation; a positive budget
// bounds the collectors. The two compose: senders shrink the stream first,
// receivers spill only what still overflows, and every spilled run holds
// already combined records.
//
// The session's span nests under parent — "shuffle" or "broadcast", or
// "combine-ship" for combining senders — with the per-worker transport spans
// beneath it.
//
// Cancellation: the senders poll the context and stop routing, the
// collectors stop buffering, and a context.AfterFunc closes the session so
// a sender or collector blocked inside the transport (a full socket, a dead
// peer) is unblocked with an error instead of hanging.
func (e *Engine) shuffle(ctx context.Context, parent obs.SpanID, ed *edge, combiner *dataflow.Operator, budget int) (int, error) {
	in, dop := ed.data, e.DOP
	name, kind := ed.phase(), obs.KindShip
	if combiner != nil {
		name, kind = "combine-ship", obs.KindCombine
	}
	span := e.Trace.Begin(parent, name, kind)
	sh, err := e.transport().OpenShuffle(ctx, transport.Spec{Senders: len(in), Targets: dop})
	if err != nil {
		e.Trace.Fail(span, err)
		return 0, err
	}
	wireStart := time.Now() // the per-worker transport spans cover the transfer, not session set-up
	stop := context.AfterFunc(ctx, func() { sh.Close() })
	defer stop()
	defer sh.Close()

	st := &shuffleState{sh: sh, recvErrs: make([]error, dop)}
	st.senders.Add(len(in))
	st.collectors.Add(dop)
	senders := make([]sender, len(in))
	for si, part := range in {
		s := &senders[si]
		*s = sender{e: e, st: st, keys: ed.keys, broadcast: ed.ship == optimizer.ShipBroadcast, combiner: combiner,
			rows: make([]*record.Batch, dop), cols: make([]*record.ColBatch, dop), chain: make([]opCount, len(ed.chain))}
		go s.run(ctx, part, ed)
	}
	// A plain resident shuffle of materialised records knows its volume:
	// pre-size each output partition — exactly on a broadcast edge, for a
	// near-uniform key distribution on a partitioned one (skewed keys fall
	// back to append growth). What a chain, a combiner or a spilling
	// collector leaves resident is unknowable here.
	hint := 0
	if combiner == nil && budget == 0 && len(ed.chain) == 0 {
		hint = in.Records()
		if ed.ship != optimizer.ShipBroadcast {
			hint = hint/dop + hint/(8*dop) + 16
		}
	}
	out := make(Partitioned, dop)
	ed.spills = make([]*partitionSpill, dop)
	for i := range ed.spills {
		ed.spills[i] = &partitionSpill{}
		go e.collect(ctx, st, out, ed.spills[i], i, ed.keys, budget, hint)
	}
	st.senders.Wait()
	st.collectors.Wait()

	// A cancelled run must not hand half-shuffled partitions (or
	// half-written runs) to the local strategy; after that, the first
	// sender, collector or spill error decides.
	bytes, err := 0, context.Cause(ctx)
	for si := range senders {
		s := &senders[si]
		if err == nil {
			err = s.err
		}
		bytes += s.bytes
		ed.routed += s.routed
		ed.combinerCalls += s.combinerCalls
		for level := range s.chain {
			ed.counts[level].add(s.chain[level])
		}
	}
	e.foldWireSpans(span, sh, wireStart)
	for i, sp := range ed.spills {
		if err == nil {
			err = st.recvErrs[i]
		}
		if err == nil {
			err = sp.err
		}
	}
	if err != nil {
		e.Trace.Fail(span, err)
		return bytes, err
	}
	e.Trace.EndWith(span, func(s *obs.Span) {
		s.Bytes = int64(bytes)
		s.Records = int64(ed.routed)
		s.Calls = int64(ed.combinerCalls)
	})
	ed.data = out
	return bytes, nil
}

// shuffleState is the shared coordination state of one shuffle execution,
// allocated once so sender and collector goroutines share a single object.
type shuffleState struct {
	sh         transport.Shuffle
	senders    sync.WaitGroup
	collectors sync.WaitGroup
	recvErrs   []error // one slot per target, written before collectors.Done
}

// sender is one source partition's side of a shuffle: it pushes the
// partition through the edge's fused Map chain, routes what leaves the chain
// into per-target accumulators — the target the key fields hash to, or every
// target on a broadcast edge — and hands each full accumulator to the
// transport session. The plain sender accumulates record.Batch units and
// ships them as they are. The combining sender accumulates ColBatches —
// typed column arrays with dictionary-coded strings, the routing hash
// cached per row so the grouping pass never re-hashes — and applies the
// combiner to each before flushing it into a fresh pooled record.Batch, so
// it ships at most one record per (group key, target) per flush window and
// the collectors cannot tell the two apart.
type sender struct {
	e         *Engine
	st        *shuffleState
	keys      []int
	broadcast bool               // every record goes to every target
	combiner  *dataflow.Operator // nil: plain
	combine   *tac.Runner        // the combiner's Runner, one per sender

	// One accumulator slot per target: rows fill on a plain sender, cols
	// on a combining one.
	rows []*record.Batch
	cols []*record.ColBatch

	chain         []opCount // the fused chain's per-level counts
	routed        int       // records routed so far: what left the chain, the operator's logical input
	combinerCalls int
	bytes         int   // wire bytes handed to the session
	err           error // what stopped the sender early; read after senders.Done
}

// run drives the sender to completion. On cancellation or error it stops
// routing and recycles its accumulators; in-flight batches are drained by
// the collectors (a target's stream only ends at EOS or a transport error),
// so a stopping sender can never deadlock the session. A Send error is
// terminal for the sender: it records the error and lets SenderDone
// terminate its streams.
func (s *sender) run(ctx context.Context, part []record.Record, ed *edge) {
	defer s.st.senders.Done()
	defer s.st.sh.SenderDone()
	feed, err := s.e.chainFeed(ed.chain, s.chain, s.route)
	if err == nil && s.combiner != nil {
		if s.combine, err = interp.NewRunner(s.combiner.Combiner, tac.KindReduce); err != nil {
			err = s.combinerError(err)
		}
	}
	if err == nil {
		err = drive(ctx, part, feed)
	}
	// Flush the partial tail accumulators (always non-empty: one is only
	// allocated on first append).
	for t := 0; err == nil && t < len(s.rows); t++ {
		if s.rows[t] != nil || s.cols[t] != nil {
			err = s.flush(t)
		}
	}
	if err == nil {
		return
	}
	s.err = err
	for t := range s.rows {
		record.PutBatch(s.rows[t])
		record.PutColBatch(s.cols[t])
	}
}

// route is the sink the fused chain emits into: one record to the target
// its key hashes to, or to every target on a broadcast edge.
func (s *sender) route(r record.Record) error {
	s.routed++
	if s.broadcast {
		for t := range s.rows {
			if err := s.add(t, r, 0); err != nil {
				return err
			}
		}
		return nil
	}
	h := r.Hash(s.keys)
	return s.add(int(h%uint64(len(s.rows))), r, h)
}

// add appends one record to target t's accumulator and flushes the
// accumulator when full; h is the record's key hash, for the combiner.
func (s *sender) add(t int, r record.Record, h uint64) error {
	if s.combiner == nil {
		b := s.rows[t]
		if b == nil {
			b = record.GetBatch()
			s.rows[t] = b
		}
		if !b.Append(r) {
			return nil
		}
	} else {
		cb := s.cols[t]
		if cb == nil {
			cb = record.GetColBatch()
			s.cols[t] = cb
		}
		if !cb.AppendWithHash(r, s.keys, h) {
			return nil
		}
	}
	return s.flush(t)
}

// flush hands target t's accumulator to the transport session, combined
// first when the sender combines. Ownership of the batch passes on Send.
func (s *sender) flush(t int) error {
	var b *record.Batch
	if s.combiner == nil {
		b, s.rows[t] = s.rows[t], nil
	} else {
		cb := s.cols[t]
		s.cols[t] = nil
		b = record.GetBatch()
		calls, err := cb.CombineInto(s.keys, b, func(g record.ColGroup, emit func(record.Record) error) error {
			return s.combine.Reduce(g, emit)
		})
		record.PutColBatch(cb)
		if err != nil {
			record.PutBatch(b)
			return s.combinerError(err)
		}
		s.combinerCalls += calls
	}
	s.bytes += b.EncodedSize()
	return s.st.sh.Send(t, b)
}

func (s *sender) combinerError(err error) error {
	return &opError{s.combiner.Name, fmt.Errorf("combiner: %w", err)}
}

// partitionSpill is one target partition's overflow state: the spill file
// (created lazily on first overflow), the sorted runs written so far, and
// the disk bytes they occupy (run framing included).
type partitionSpill struct {
	file  *spill.File
	runs  []spill.Run
	bytes int
	err   error

	// Write-phase locals for the trace: when the first run is written and
	// how much wall time the sort+write passes took in total. Accumulated
	// collector-locally (each collector owns its partitionSpill) and folded
	// into one pre-timed spill-write span per partition at operator end
	// (Engine.foldSpillSpans) — the hot loop never touches the trace.
	writeStart time.Time
	writeDur   time.Duration
}

// closeSpills releases the spill files of one shuffle's partitions.
func closeSpills(spills []*partitionSpill) {
	for _, sp := range spills {
		if sp != nil && sp.file != nil {
			sp.file.Close()
		}
	}
}

// collect drains one target partition's stream from the transport session
// into out[i], recycling the batches. Under a positive budget it tracks the
// buffer's resident bytes (wire encoding, the unit MemoryBudget is
// expressed in) and, when they exceed the budget, sorts the buffer by key
// and writes it to the partition's spill file as one run; budget zero is
// the resident case — the buffer only grows, pre-sized at hint.
//
// The budget is floored at one batch's worth (the largest batch buffered so
// far): the integer division splitting MemoryBudget across DOP×inputs
// leaves a tiny budget at its minimum, and an unfloored share would spill
// every arriving batch as its own sorted run — a run count proportional to
// the batch count and a merge cursor per run, instead of the intended
// handful of budget-sized runs. With the floor, a run always covers more
// than one arriving batch, so the worst-case residency is about two
// batches' worth. The buffer's backing array is reused across runs (cleared
// first, so the truncated tail does not pin the spilled records against GC
// — the resident-bytes bound must count live records only).
//
// On a disk error the collector keeps draining (senders must never block)
// but discards the drained records — the run is doomed and buffering its
// remainder would grow residency without bound in exactly the
// memory-constrained setting spilling exists for; the error surfaces from
// shuffle. Cancellation is treated like a disk error: stop buffering, stop
// writing runs, keep draining; the caller sees the cancelled context and
// unlinks the partial files. A Recv error is different: it is terminal for
// the stream (the transport guarantees no more data follows, and any
// blocked sender is failed by the same transport error, not unblocked by
// this collector), so the collector records it and exits.
func (e *Engine) collect(ctx context.Context, st *shuffleState, out Partitioned, sp *partitionSpill, i int, keys []int, budget, hint int) {
	defer st.collectors.Done()
	buf := make([]record.Record, 0, hint)
	resident := 0
	maxBatch := 0
	for {
		b, recvErr := st.sh.Recv(i)
		if recvErr != nil {
			st.recvErrs[i] = recvErr
			break
		}
		if b == nil {
			break
		}
		// One cancellation check per ~1k-record batch is cheap.
		if sp.err == nil {
			sp.err = context.Cause(ctx)
		}
		if sp.err != nil {
			record.PutBatch(b)
			continue
		}
		buf = append(buf, b.Records()...)
		resident += b.EncodedSize()
		if b.EncodedSize() > maxBatch {
			maxBatch = b.EncodedSize()
		}
		record.PutBatch(b)
		if budget == 0 || resident <= max(budget, maxBatch) || len(buf) == 0 {
			continue
		}
		writeAt := time.Now()
		if sp.writeStart.IsZero() {
			sp.writeStart = writeAt
		}
		e.sortRecs(buf, keys)
		if sp.file == nil {
			if sp.file, sp.err = spill.CreateIn(e.fs(), e.SpillDir); sp.err != nil {
				continue
			}
		}
		run, err := sp.file.WriteRun(buf)
		if err != nil {
			sp.err = err
			continue
		}
		sp.runs = append(sp.runs, run)
		sp.bytes += int(run.Length)
		sp.writeDur += time.Since(writeAt)
		if e.Hists != nil {
			e.Hists.SpillRunBytes.Observe(float64(run.Length))
		}
		clear(buf)
		buf = buf[:0]
		resident = 0
	}
	out[i] = buf
}
