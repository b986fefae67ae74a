// Package engine executes physical plans produced by the optimizer on a
// shared-nothing, multi-goroutine runtime — the repository's substitute for
// the paper's Nephele execution engine (see DESIGN.md, "Operator pipeline").
//
// A plan hands the engine, per operator, one shipping strategy per input
// and one local strategy, and the engine executes every operator through
// the same pipeline: run the producers; push each input edge's records
// through the Map chain fused onto that edge; ship them (a sender per
// source partition, a receiver per target partition, over a
// transport.Transport — in-process channels or TCP to flowworker
// processes); run the local strategy on every partition in its own
// goroutine. Pre-shuffle combining, out-of-core receivers and Map fusion
// are stage variants picked in one place (exec/run in pipeline.go) from
// what the plan and the engine already say — PhysPlan.Combinable,
// PhysPlan.Ship, PhysPlan.Chained, Engine.MemoryBudget — not separate
// executors. The engine records per-operator statistics (records, shipped
// bytes, UDF calls, spilled bytes) and spans in the same place, so
// experiments can relate estimated costs to observed work.
//
// The engine is memory-budgeted: when Engine.MemoryBudget is set, shuffle
// receivers feeding a grouping or join operator (Reduce, CoGroup, Match)
// track resident bytes per partition and, on overflow, lay the buffered
// records out by the operator's key and spill them to disk as a sorted run
// (internal/spill); the local strategy reads each side as a stream of key
// groups — hash-grouped from the resident records alone, or merged from the
// side's runs and its remainder — so working sets larger than memory
// complete with bounded resident bytes and byte-identical output. Combiners
// keep running on the senders pre-spill, so spilled runs are already
// partially aggregated. See DESIGN.md ("Memory model & spilling").
//
// A second, fully resident, stage-at-a-time executor lives in
// reference_test.go; it is frozen test code that every differential test
// compares this pipeline against, and production never selects it.
package engine

import (
	"context"
	"fmt"
	"time"

	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/transport"
)

// cancelStride is how many records (or groups) a hot loop processes between
// cooperative context checks. Checking per record would put a synchronized
// load on every iteration of the engine's innermost loops; every 256th
// record bounds cancellation latency to a few microseconds of work while
// keeping the check invisible in profiles.
const cancelStride = 256

// ticker counts loop iterations so hot loops only consult the context every
// cancelStride records. The zero value is ready to use; each goroutine owns
// its own ticker (they are not safe for sharing).
type ticker struct{ n int }

// due reports whether the caller should check its context now.
func (t *ticker) due() bool {
	t.n++
	return t.n%cancelStride == 0
}

// Partitioned is a data set split into DOP partitions.
type Partitioned [][]record.Record

// Records counts all records across partitions.
func (p Partitioned) Records() int {
	n := 0
	for _, part := range p {
		n += len(part)
	}
	return n
}

// Flatten merges all partitions into a single data set, allocated once.
func (p Partitioned) Flatten() record.DataSet {
	out := make(record.DataSet, 0, p.Records())
	for _, part := range p {
		out = append(out, part...)
	}
	return out
}

// OpStats are the runtime statistics of one operator execution.
type OpStats struct {
	Name         string
	InRecords    int
	OutRecords   int
	ShippedBytes int // bytes moved by non-forward shipping
	UDFCalls     int
	// CombinerCalls counts pre-shuffle partial-aggregation (combiner) UDF
	// invocations the shuffle senders performed on the operator's behalf.
	// They are tracked separately from UDFCalls so a combined and an
	// uncombined run of the same plan report identical UDFCalls (the final
	// aggregation sees the same key groups either way).
	CombinerCalls int
	// SpilledBytes counts bytes written to disk by budget-overflowing
	// shuffle receivers (run framing included); SpillRuns counts the sorted
	// runs those receivers wrote. Both are zero when the operator's working
	// set fit within Engine.MemoryBudget (or no budget was set).
	SpilledBytes int
	SpillRuns    int
	ShipTime     time.Duration // wall time spent shipping inputs
	LocalTime    time.Duration // wall time spent in the local strategy
}

// RunStats aggregates statistics of a plan execution.
type RunStats struct {
	PerOp []OpStats
}

// TotalShippedBytes sums network traffic over all operators.
func (r *RunStats) TotalShippedBytes() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.ShippedBytes
	}
	return n
}

// TotalUDFCalls sums UDF invocations over all operators (combiner calls
// excluded; see TotalCombinerCalls).
func (r *RunStats) TotalUDFCalls() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.UDFCalls
	}
	return n
}

// TotalCombinerCalls sums pre-shuffle combiner invocations over all
// operators.
func (r *RunStats) TotalCombinerCalls() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.CombinerCalls
	}
	return n
}

// TotalSpilledBytes sums disk bytes written by overflowing shuffle
// receivers over all operators.
func (r *RunStats) TotalSpilledBytes() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.SpilledBytes
	}
	return n
}

// TotalSpillRuns sums sorted on-disk runs written over all operators.
func (r *RunStats) TotalSpillRuns() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.SpillRuns
	}
	return n
}

// String renders a per-operator summary.
func (r *RunStats) String() string {
	var b []byte
	for _, s := range r.PerOp {
		b = fmt.Appendf(b, "%-24s in=%-9d out=%-9d shipped=%-11d calls=%-9d ship=%-12v local=%v",
			s.Name, s.InRecords, s.OutRecords, s.ShippedBytes, s.UDFCalls, s.ShipTime, s.LocalTime)
		if s.CombinerCalls > 0 {
			b = fmt.Appendf(b, " combine=%d", s.CombinerCalls)
		}
		if s.SpillRuns > 0 {
			b = fmt.Appendf(b, " spilled=%d(runs=%d)", s.SpilledBytes, s.SpillRuns)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// Engine executes physical plans.
type Engine struct {
	// DOP is the degree of parallelism (number of partitions/goroutines).
	DOP int
	// Sources maps source operator names to their data.
	Sources map[string]record.DataSet

	// Transport moves the bytes of non-forward shipping steps (partition
	// shuffles and broadcasts). Nil means transport.Channel{} — the
	// in-process transport, which reproduces the engine's original
	// channel-based shuffle byte for byte. Installing a transport.TCP
	// places shuffle partitions on flowworker processes instead; the
	// engine's routing, batching, byte accounting, and output bytes are
	// identical either way (pinned by the distributed equivalence suite).
	// The transport is borrowed, not owned: Close it yourself after the
	// last run (internal/jobs tears its per-job transports down this way).
	Transport transport.Transport

	// MemoryBudget caps the resident bytes (record wire encoding, the same
	// unit as ShippedBytes) that shuffle receivers feeding a grouping or
	// join operator (Reduce, CoGroup, Match) may buffer, summed across the
	// operator's partitions; each of the DOP partitions gets an equal share
	// (split again across both inputs when two sides shuffle), floored at
	// one batch's worth so a tiny budget cannot degenerate into one run per
	// arriving batch. On overflow a partition lays its buffer out by the
	// operator's key and spills it to disk as a sorted run, and the local
	// strategy merges the runs with the remainder. Zero (the default)
	// disables spilling: everything stays in memory.
	MemoryBudget int

	// SpillDir is where spill files are created; empty means the OS temp
	// directory. Files are unlinked as soon as the operator that wrote them
	// finishes.
	SpillDir string

	// FS is the filesystem the spill path creates, writes, and reads its
	// temp files through; nil means the real OS filesystem. Fault-injection
	// harnesses install a faultfs.Injector here to fire disk faults at
	// exact operation indices (see internal/faultfs and the chaos suite).
	FS faultfs.FS

	// Trace, when set, receives one span per executed operator with child
	// spans for its ship/combine/spill-write/merge/local phases and — on
	// transports that report per-worker traffic — per-worker transport
	// spans carrying bytes and frame counts. Spans are recorded at
	// operator granularity, never per record, so tracing costs a handful
	// of mutex acquisitions per operator. Nil (the default) disables
	// tracing; every hook reduces to a nil check. The scheduler installs
	// each job's trace on the job's engine.
	Trace *obs.Trace

	// TraceParent is the span operator spans attach under — the job's
	// "run" phase span when the scheduler drives the engine. Zero attaches
	// them to the trace root.
	TraceParent obs.SpanID

	// Hists, when set, receives histogram observations from the execution
	// paths: per-operator ship wall time and per-run spill sizes. The
	// histograms are shared and scheduler-owned (every job's engine records
	// into the same set); nil disables observation.
	Hists *obs.EngineHists
}

// New returns an engine with the given parallelism.
func New(dop int) *Engine {
	if dop < 1 {
		dop = 1
	}
	return &Engine{DOP: dop, Sources: map[string]record.DataSet{}}
}

// WithTransport installs the transport that non-forward shipping runs over
// and returns the engine. The engine borrows the transport; the caller
// closes it after the last run.
func (e *Engine) WithTransport(t transport.Transport) *Engine {
	e.Transport = t
	return e
}

// transport returns the engine's transport seam, defaulting to the
// in-process channel transport.
func (e *Engine) transport() transport.Transport {
	if e.Transport != nil {
		return e.Transport
	}
	return transport.Channel{}
}

// WithMemoryBudget caps the resident bytes of grouping shuffle receivers
// (see MemoryBudget) and returns the engine.
func (e *Engine) WithMemoryBudget(bytes int) *Engine {
	e.MemoryBudget = bytes
	return e
}

// fs returns the engine's filesystem seam, defaulting to the real OS.
func (e *Engine) fs() faultfs.FS {
	if e.FS != nil {
		return e.FS
	}
	return faultfs.OS{}
}

// AddSource registers the data of a named source operator.
func (e *Engine) AddSource(name string, data record.DataSet) {
	e.Sources[name] = data
}

// Run executes a physical plan and returns the sink's output and runtime
// statistics.
func (e *Engine) Run(plan *optimizer.PhysPlan) (record.DataSet, *RunStats, error) {
	return e.RunContext(context.Background(), plan)
}

// RunContext is Run under a context: cancellation and deadlines propagate
// cooperatively into the execution layer — shuffle senders stop routing,
// spill collectors stop writing runs (spill files already on disk are
// removed before the call returns), and the per-partition local loops bail
// out — so a cancelled run returns promptly with ctx's error instead of
// finishing the plan. A run that completes before the context is cancelled
// returns its result normally. The engine may be reused after a cancelled
// run; partial outputs are discarded.
func (e *Engine) RunContext(ctx context.Context, plan *optimizer.PhysPlan) (record.DataSet, *RunStats, error) {
	stats := &RunStats{}
	out, err := e.exec(ctx, plan, stats, recordWidth(plan), 0)
	if err != nil {
		return nil, nil, err
	}
	return out.Flatten(), stats, nil
}
