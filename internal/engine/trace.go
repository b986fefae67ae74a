package engine

import (
	"fmt"
	"time"

	"blackboxflow/internal/obs"
	"blackboxflow/internal/transport"
)

// This file is the engine's seam into internal/obs: the pre-timed spans
// the pipeline folds in after the fact (per-worker transport, per-partition
// spill-write, external merge) and histogram observations for ship time and
// spill run sizes; operator and phase spans are opened in pipeline.go. Tracing is always-on-
// capable at near-zero cost: spans are recorded at operator/phase
// granularity (a handful of mutex acquisitions per operator, never per
// record), hot loops accumulate into per-partition locals that are folded
// into pre-timed spans at operator end (Trace.Import), and a nil
// Engine.Trace reduces every hook to a nil check.

// foldWireSpans imports one transport span per worker connection of a
// finished shuffle session: the bytes and frames that crossed the wire to
// each flowworker, accumulated by the transport in connection-local
// atomics and folded here in one pass. Sessions without per-worker traffic
// (the in-process channel transport) fold nothing.
func (e *Engine) foldWireSpans(parent obs.SpanID, sh transport.Shuffle, start time.Time) {
	if e.Trace == nil {
		return
	}
	ws, ok := sh.(transport.WireStater)
	if !ok {
		return
	}
	end := time.Now()
	for _, st := range ws.WireStats() {
		e.Trace.Import(parent, obs.Span{
			Name:   st.Addr,
			Kind:   obs.KindTransport,
			Start:  start,
			End:    end,
			Bytes:  st.BytesOut + st.BytesIn,
			Frames: st.FramesOut + st.FramesIn,
			Worker: st.Addr,
			Detail: fmt.Sprintf("out=%dB/%df in=%dB/%df", st.BytesOut, st.FramesOut, st.BytesIn, st.FramesIn),
		})
	}
}

// foldSpillSpans imports one spill-write span per overflowed partition of
// a shuffle's spill state: the write window and byte/run totals each
// collector accumulated locally while draining its stream.
func (e *Engine) foldSpillSpans(parent obs.SpanID, spills []*partitionSpill) {
	if e.Trace == nil {
		return
	}
	for i, sp := range spills {
		if sp == nil || len(sp.runs) == 0 {
			continue
		}
		e.Trace.Import(parent, obs.Span{
			Name:  fmt.Sprintf("spill-write p%d", i),
			Kind:  obs.KindSpill,
			Start: sp.writeStart,
			End:   sp.writeStart.Add(sp.writeDur),
			Bytes: int64(sp.bytes),
			Runs:  int64(len(sp.runs)),
		})
	}
}

// mergeSpan imports the external-merge span of a local phase that consumed
// spilled runs.
func (e *Engine) mergeSpan(parent obs.SpanID, start time.Time, st *OpStats) {
	if e.Trace == nil || st.SpillRuns == 0 {
		return
	}
	e.Trace.Import(parent, obs.Span{
		Name:  "merge",
		Kind:  obs.KindMerge,
		Start: start,
		End:   time.Now(),
		Bytes: int64(st.SpilledBytes),
		Runs:  int64(st.SpillRuns),
	})
}

// observeShip records an operator's shipping wall time into the shared
// ship-time histogram, for operators that actually moved bytes.
func (e *Engine) observeShip(st *OpStats) {
	if e.Hists == nil || st.ShippedBytes == 0 {
		return
	}
	e.Hists.ShipSeconds.Observe(st.ShipTime.Seconds())
}
