package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
	"blackboxflow/internal/transport"
)

// This file pins the engine's span recording: every execution path
// (combined, spilled, distributed) must yield a span tree whose phases and
// counters reconcile with the run's OpStats, and attaching a trace must not
// change per-shuffle allocation behavior beyond a small constant.

// tracedRun executes one distributed-suite pipeline with a fresh trace
// attached and returns the trace and run statistics.
func tracedRun(t *testing.T, pl distPipeline, dop int, tp transport.Transport, spillDir string) (*obs.Trace, *RunStats) {
	t.Helper()
	e := New(dop)
	e.Transport = tp
	e.MemoryBudget = pl.budget
	e.SpillDir = spillDir
	tr := obs.NewTrace(pl.name)
	e.Trace = tr
	for name, ds := range pl.sources {
		e.AddSource(name, ds)
	}
	if _, stats, err := e.Run(pl.build(t, dop)); err != nil {
		t.Fatalf("%s: %v", pl.name, err)
	} else {
		return tr, stats
	}
	return nil, nil
}

// spansOfKind filters a trace's flat span table by kind.
func spansOfKind(tr *obs.Trace, kind string) []obs.Span {
	var out []obs.Span
	for _, s := range tr.Spans() {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

func findSpan(tr *obs.Trace, kind, name string) (obs.Span, bool) {
	for _, s := range tr.Spans() {
		if s.Kind == kind && s.Name == name {
			return s, true
		}
	}
	return obs.Span{}, false
}

// TestTraceCombinedReduce pins the span tree of the combining-sender path:
// the Reduce's operator span carries the shipped bytes and combiner calls
// of its OpStats, the combine-ship and local phases nest under it, and
// every span is closed.
func TestTraceCombinedReduce(t *testing.T) {
	pl := distPipelines(t)[0] // combined-reduce
	tr, stats := tracedRun(t, pl, 4, nil, "")

	op, ok := findSpan(tr, obs.KindOp, "wcount")
	if !ok {
		t.Fatalf("no operator span for wcount; spans:\n%s", tr.Table())
	}
	var st *OpStats
	for i := range stats.PerOp {
		if stats.PerOp[i].Name == "wcount" {
			st = &stats.PerOp[i]
		}
	}
	if st == nil {
		t.Fatal("no OpStats for wcount")
	}
	if op.Bytes != int64(st.ShippedBytes) {
		t.Fatalf("op span bytes %d != OpStats shipped %d", op.Bytes, st.ShippedBytes)
	}
	if op.Calls != int64(st.CombinerCalls) || op.Calls == 0 {
		t.Fatalf("op span calls %d != combiner calls %d (want nonzero)", op.Calls, st.CombinerCalls)
	}
	comb, ok := findSpan(tr, obs.KindCombine, "combine-ship")
	if !ok || comb.Parent != op.ID {
		t.Fatalf("combine-ship span missing or not under wcount (ok=%v parent=%d op=%d)", ok, comb.Parent, op.ID)
	}
	if comb.Bytes != int64(st.ShippedBytes) {
		t.Fatalf("combine span bytes %d != shipped %d", comb.Bytes, st.ShippedBytes)
	}
	foundLocal := false
	for _, s := range spansOfKind(tr, obs.KindLocal) {
		if s.Parent == op.ID {
			foundLocal = true
		}
	}
	if !foundLocal {
		t.Fatalf("no local span under wcount; spans:\n%s", tr.Table())
	}
	// Every recorded span is closed and clean. The root stays open here —
	// a bare engine run has no scheduler to finalize the job span.
	for _, s := range tr.Spans()[1:] {
		if s.End.IsZero() {
			t.Fatalf("span %q (%s) left open", s.Name, s.Kind)
		}
		if s.Err != "" {
			t.Fatalf("span %q failed on a clean run: %s", s.Name, s.Err)
		}
	}
}

// TestTraceSpilledJoin pins the spill path's spans: per-partition
// spill-write spans whose run totals reconcile with the stats, and a merge
// span on the local phase that consumed the runs.
func TestTraceSpilledJoin(t *testing.T) {
	pl := distPipelines(t)[1] // budgeted-join
	tr, stats := tracedRun(t, pl, 8, nil, t.TempDir())
	if stats.TotalSpillRuns() == 0 {
		t.Fatal("budgeted join did not spill; the trace has nothing to pin")
	}

	var spillRuns, spillBytes int64
	for _, s := range spansOfKind(tr, obs.KindSpill) {
		if s.Runs == 0 || s.Bytes == 0 {
			t.Fatalf("spill-write span %q has empty counters: %+v", s.Name, s)
		}
		if s.End.Before(s.Start) {
			t.Fatalf("spill-write span %q ends before it starts", s.Name)
		}
		spillRuns += s.Runs
		spillBytes += s.Bytes
	}
	if spillRuns != int64(stats.TotalSpillRuns()) {
		t.Fatalf("spill spans carry %d runs, stats say %d", spillRuns, stats.TotalSpillRuns())
	}
	merges := spansOfKind(tr, obs.KindMerge)
	if len(merges) == 0 {
		t.Fatalf("no merge span on a spilling run; spans:\n%s", tr.Table())
	}
	var mergeRuns int64
	for _, m := range merges {
		mergeRuns += m.Runs
	}
	if mergeRuns != spillRuns {
		t.Fatalf("merge spans consumed %d runs, spill spans wrote %d", mergeRuns, spillRuns)
	}
}

// TestDistributedTraceSpans pins the per-worker transport spans of a
// distributed run: a combined reduce shipped across two workers must
// record one transport span per worker connection, attributed to the
// worker's address and carrying its frame and byte traffic. (Named
// 'Distributed' so the CI distributed job runs it against real flowworker
// processes.)
func TestDistributedTraceSpans(t *testing.T) {
	addrs := startWorkerAddrs(t, 2)
	tp, err := transport.NewTCP(transport.TCPConfig{Workers: addrs, LocalSlots: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	pl := distPipelines(t)[0] // combined-reduce
	tr, stats := tracedRun(t, pl, 8, tp, "")
	if stats.TotalShippedBytes() == 0 {
		t.Fatal("nothing shipped")
	}

	workers := map[string]bool{}
	for _, a := range addrs {
		workers[a] = true
	}
	spans := spansOfKind(tr, obs.KindTransport)
	if len(spans) == 0 {
		t.Fatalf("no transport spans on a distributed run; spans:\n%s", tr.Table())
	}
	seen := map[string]bool{}
	for _, s := range spans {
		if !workers[s.Worker] {
			t.Fatalf("transport span attributed to unknown worker %q", s.Worker)
		}
		if s.Frames == 0 || s.Bytes == 0 {
			t.Fatalf("transport span for %s has no traffic: %+v", s.Worker, s)
		}
		parent := tr.Spans()[s.Parent]
		if parent.Kind != obs.KindShip && parent.Kind != obs.KindCombine {
			t.Fatalf("transport span parented under %q (kind %s), want a ship/combine span", parent.Name, parent.Kind)
		}
		seen[s.Worker] = true
	}
	if len(seen) != len(addrs) {
		t.Fatalf("transport spans cover %d workers, want %d", len(seen), len(addrs))
	}
}

// TestDistributedTraceBroadcast pins the span shape of a broadcast edge,
// which is the shape of a partitioned one: under the operator's ship span a
// "broadcast" span carrying the bytes shipped and the un-replicated record
// count, and under that one transport span per worker connection — a
// broadcast's wire time used to be invisible.
func TestDistributedTraceBroadcast(t *testing.T) {
	addrs := startWorkerAddrs(t, 2)
	tp, err := transport.NewTCP(transport.TCPConfig{Workers: addrs, LocalSlots: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	pl := distPipelines(t)[2] // broadcast-join
	tr, stats := tracedRun(t, pl, 4, tp, "")

	op, ok := findSpan(tr, obs.KindOp, "J")
	if !ok {
		t.Fatalf("no operator span for J; spans:\n%s", tr.Table())
	}
	var st OpStats
	for _, s := range stats.PerOp {
		if s.Name == "J" {
			st = s
		}
	}
	ship, ok := findSpan(tr, obs.KindShip, "ship")
	if !ok || ship.Parent != op.ID || ship.Bytes != int64(st.ShippedBytes) {
		t.Fatalf("ship span %+v, want one under J (%d) with %d bytes; spans:\n%s", ship, op.ID, st.ShippedBytes, tr.Table())
	}
	bc, ok := findSpan(tr, obs.KindShip, "broadcast")
	if !ok || bc.Parent != ship.ID {
		t.Fatalf("broadcast span missing or not under J's ship span; spans:\n%s", tr.Table())
	}
	if left := len(pl.sources["L"]); bc.Bytes != int64(st.ShippedBytes) || bc.Bytes == 0 || bc.Records != int64(left) {
		t.Fatalf("broadcast span carries %d bytes / %d records, want %d / %d", bc.Bytes, bc.Records, st.ShippedBytes, left)
	}
	seen := map[string]bool{}
	for _, s := range spansOfKind(tr, obs.KindTransport) {
		if s.Parent != bc.ID {
			t.Fatalf("transport span %q parented under span %d, want the broadcast span %d", s.Name, s.Parent, bc.ID)
		}
		if s.Frames == 0 || s.Bytes == 0 {
			t.Fatalf("transport span for %s has no traffic: %+v", s.Worker, s)
		}
		seen[s.Worker] = true
	}
	if len(seen) != len(addrs) {
		t.Fatalf("transport spans cover %d workers, want %d; spans:\n%s", len(seen), len(addrs), tr.Table())
	}
}

// TestTracedShuffleAllocOverhead pins the always-on claim at the
// allocation level: attaching a trace to a shuffle must cost at most a
// small constant number of allocations (span table reuse via Reset, no
// per-record work).
func TestTracedShuffleAllocOverhead(t *testing.T) {
	in := make(Partitioned, 4)
	for i := 0; i < 2000; i++ {
		in[i%4] = append(in[i%4], record.Record{record.Int(int64(i % 97)), record.Int(int64(i))})
	}
	keys := []int{0}

	run := func(e *Engine, pre func()) float64 {
		return testing.AllocsPerRun(20, func() {
			pre()
			if _, _, err := e.Shuffle(in, keys); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := run(New(4), func() {})
	e := New(4)
	tr := obs.NewTrace("alloc")
	e.Trace = tr
	traced := run(e, func() { tr.Reset("alloc") })

	if delta := traced - plain; delta > 16 {
		t.Fatalf("tracing adds %.0f allocs per shuffle (plain %.0f, traced %.0f); span recording must stay O(1)", delta, plain, traced)
	}
}

// failingChainPlan builds in → ok → bad → consumer with both Maps Chained:
// under a Sink the chain runs in the plan root's materialising loop, under
// a shuffled Reduce it is fused into the shuffle senders. bad divides by
// zero on records whose field 1 is zero.
func failingChainPlan(t *testing.T, intoSender bool) *optimizer.PhysPlan {
	t.Helper()
	prog := tac.MustParse(`
func map ok($ir) {
	emit $ir
}
func map bad($ir) {
	$v := getfield $ir 1
	$x := 1 / $v
	emit $ir
}
func reduce tally($g) {
	$r := groupget $g 0
	emit $r
}`)
	node := &optimizer.PhysPlan{Op: &dataflow.Operator{Name: "in", Kind: dataflow.KindSource}}
	for _, name := range []string{"ok", "bad"} {
		node = &optimizer.PhysPlan{
			Op:      &dataflow.Operator{Name: name, Kind: dataflow.KindMap, UDF: getUDF(t, prog, name)},
			Inputs:  []*optimizer.PhysPlan{node},
			Ship:    []optimizer.Shipping{optimizer.ShipForward},
			Chained: true,
		}
	}
	if intoSender {
		node = &optimizer.PhysPlan{
			Op:     &dataflow.Operator{Name: "tally", Kind: dataflow.KindReduce, UDF: getUDF(t, prog, "tally"), Keys: [][]int{{0}}},
			Inputs: []*optimizer.PhysPlan{node},
			Ship:   []optimizer.Shipping{optimizer.ShipPartition},
			Local:  optimizer.LocalSortGroup,
		}
	}
	return &optimizer.PhysPlan{
		Op:     &dataflow.Operator{Name: "out", Kind: dataflow.KindSink},
		Inputs: []*optimizer.PhysPlan{node},
		Ship:   []optimizer.Shipping{optimizer.ShipForward},
	}
}

// TestTraceFailedFusedChain pins what a trace shows when a fused Map chain
// fails — by a UDF error or by cancellation, at the plan root or fused into
// shuffle senders. Every operator that started has a span, the operators of
// the stage that failed carry the error, finished operators stay clean, and
// nothing is left open. (The chained executor used to record its spans only
// after success: a failed chain left a trace that stopped, clean, at the
// source.)
func TestTraceFailedFusedChain(t *testing.T) {
	const n = 200000
	for _, tc := range []struct {
		name       string
		intoSender bool
		cancel     bool
	}{
		{"udf error at root", false, false},
		{"udf error in sender", true, false},
		{"cancel at root", false, true},
		{"cancel in sender", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := make(record.DataSet, n)
			for i := range data {
				v := int64(1)
				if !tc.cancel && i == n/2 {
					v = 0 // bad fails here
				}
				data[i] = record.Record{record.Int(int64(i % 100)), record.Int(v)}
			}
			e := New(2)
			e.AddSource("in", data)
			tr := obs.NewTrace(tc.name)
			e.Trace = tr
			consumer := "out"
			if tc.intoSender {
				consumer = "tally"
			}

			cause := errors.New("cancelled inside the chain")
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			if tc.cancel {
				// Cancel as soon as the consumer's span opens: the chain's
				// fused loop over 200k records starts right after it.
				go func() {
					for ctx.Err() == nil {
						if _, ok := findSpan(tr, obs.KindOp, consumer); ok {
							cancel(cause)
						}
						runtime.Gosched()
					}
				}()
			}
			_, _, err := e.RunContext(ctx, failingChainPlan(t, tc.intoSender))
			if err == nil {
				t.Fatal("run succeeded")
			}
			if tc.cancel && !errors.Is(err, cause) {
				t.Fatalf("err = %v, want the cancellation cause", err)
			}
			if !tc.cancel && !strings.Contains(err.Error(), "engine: bad:") {
				t.Fatalf("err = %v, want it attributed to operator bad", err)
			}

			if src, ok := findSpan(tr, obs.KindOp, "in"); !ok || src.Err != "" {
				t.Fatalf("source span missing or failed (ok=%v err=%q); trace:\n%s", ok, src.Err, tr.Table())
			}
			for _, name := range []string{"ok", "bad", consumer} {
				s, ok := findSpan(tr, obs.KindOp, name)
				if !ok {
					t.Fatalf("no span for operator %s; trace:\n%s", name, tr.Table())
				}
				if s.Err != err.Error() {
					t.Fatalf("operator %s span error %q, want %q", name, s.Err, err.Error())
				}
			}
			for _, s := range tr.Spans()[1:] {
				if s.End.IsZero() {
					t.Fatalf("span %q (%s) left open", s.Name, s.Kind)
				}
			}
		})
	}
}
