// Package blackboxflow is a Go reproduction of "Opening the Black Boxes in
// Data Flow Optimization" (Hueske et al., PVLDB 5(11), 2012): an optimizer
// for parallel data flows that reorders operators *without knowing their
// semantics*, deriving the necessary properties (read/write sets, emit
// cardinalities) from the user-defined functions' imperative code by static
// analysis.
//
// The package is a facade over the implementation packages:
//
//   - UDFs are written in PactScript, a small structured language (package
//     internal/frontend), and compiled to the three-address code of the
//     paper's Section 3 (package internal/tac), which is both executed and
//     statically analyzed from that single artifact;
//   - data flows (PACT programs: Map, Reduce, Cross, Match, CoGroup over a
//     record model) are assembled with a Flow builder;
//   - the optimizer enumerates every valid reordering (Section 6), costs
//     each alternative with a hint-driven model, picks shipping (forward /
//     partition / broadcast) strategies and hash-join build sides, and
//     returns the cheapest physical plan;
//   - a multi-goroutine shared-nothing engine executes physical plans
//     through one operator pipeline — fused Map chains, one batched
//     sender → receiver stage for partitioned and broadcast edges alike,
//     one local strategy — calling every UDF the same way (a tac.Runner
//     emitting into a sink), with — for Reduce operators whose Combiner
//     declaration passes the read/write-set safety check — pre-shuffle
//     partial aggregation on the senders (see DESIGN.md).
//
// A Reduce over a decomposable aggregate can declare a combiner with
// Operator.SetCombiner (fully algebraic aggregates pass their own UDF);
// the optimizer annotates the plan only after verifying, from the
// combiner's derived properties, that it emits exactly one record per
// group and never writes the grouping key.
//
// A minimal end-to-end use:
//
//	prog, _ := blackboxflow.CompileUDFs(`
//	map filter(ir) {
//	    if ir[0] >= 0 {
//	        emit ir
//	    }
//	}`)
//	flow := blackboxflow.NewFlow()
//	src := flow.Source("in", []string{"a", "b"}, blackboxflow.Hints{Records: 1e6, AvgWidthBytes: 18})
//	m := flow.Map("filter", prog.Funcs["filter"], src, blackboxflow.Hints{Selectivity: 0.5})
//	flow.SetSink("out", m)
//	_ = flow.DeriveEffects() // static code analysis
//	plan, _ := blackboxflow.Optimize(flow, 8)
//	eng := blackboxflow.NewEngine(8)
//	eng.AddSource("in", data)
//	out, stats, _ := eng.Run(plan)
package blackboxflow

import (
	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/engine"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/jobs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/props"
	"blackboxflow/internal/record"
	"blackboxflow/internal/sca"
	"blackboxflow/internal/tac"
)

// Data model re-exports.
type (
	// Value is a single field value (int, float, string, bool, or null).
	Value = record.Value
	// Record is an ordered tuple of values.
	Record = record.Record
	// DataSet is a bag of records.
	DataSet = record.DataSet
)

// Value constructors.
var (
	Int    = record.Int
	Float  = record.Float
	String = record.String
	Bool   = record.Bool
	Null   = record.Null
)

// Flow-building re-exports.
type (
	// Flow is a logical PACT data flow program.
	Flow = dataflow.Flow
	// Operator is one node of a flow.
	Operator = dataflow.Operator
	// Hints carry the optimizer's cost-model inputs.
	Hints = dataflow.Hints
	// Effect is the symbolic property set of a UDF (read/write sets, emit
	// bounds), derived by SCA or written by hand.
	Effect = props.Effect
	// FieldSet is a set of global attribute indices.
	FieldSet = props.FieldSet
)

// FK-side markers for Match operators (PK-FK join annotations enabling the
// invariant-grouping rewrite).
const (
	FKNone  = dataflow.FKNone
	FKLeft  = dataflow.FKLeft
	FKRight = dataflow.FKRight
)

// NewFlow returns an empty data flow.
func NewFlow() *Flow { return dataflow.NewFlow() }

// UDF re-exports.
type (
	// UDFProgram is a compiled collection of three-address-code UDFs.
	UDFProgram = tac.Program
	// UDF is a single three-address-code function.
	UDF = tac.Func
)

// CompileUDFs compiles PactScript — a small structured imperative language
// (if/else, while, expressions, record and group built-ins) — down to
// three-address code. The compiled program is what both the engine executes
// and the static analysis inspects, mirroring the paper's
// Java-source-to-bytecode toolchain; its String method renders it as the
// textual three-address code of the paper's Section 3.
func CompileUDFs(src string) (*UDFProgram, error) { return frontend.Compile(src) }

// MustCompileUDFs is CompileUDFs, panicking on error.
func MustCompileUDFs(src string) *UDFProgram { return frontend.MustCompile(src) }

// AnalyzeUDF statically derives a UDF's effect (Section 5 of the paper):
// read and write sets, condition reads, implicit copy/projection behaviour,
// and emit cardinality bounds. f must come from CompileUDFs or
// tac.NewProgram; a hand-built UDF is an error.
func AnalyzeUDF(f *UDF) (*Effect, error) { return sca.Analyze(f) }

// Optimizer re-exports.
type (
	// Tree is one operator ordering of a flow.
	Tree = optimizer.Tree
	// PhysPlan is a physical execution plan (shipping strategies and build
	// sides; each operator kind has one local strategy).
	PhysPlan = optimizer.PhysPlan
	// RankedPlan pairs an alternative ordering with its optimized physical
	// plan and cost.
	RankedPlan = optimizer.RankedPlan
	// Enumerator enumerates all valid reorderings of a flow.
	Enumerator = optimizer.Enumerator
	// Estimator derives cardinality and size estimates from flow hints.
	Estimator = optimizer.Estimator
)

// Enumerate returns every valid reordering of the flow (including the
// original), per the reordering conditions of Section 4 of the paper.
func Enumerate(f *Flow) ([]*Tree, error) {
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		return nil, err
	}
	return optimizer.NewEnumerator().Enumerate(tree), nil
}

// RankPlans enumerates all reorderings, physically optimizes each for the
// given degree of parallelism, and returns them sorted by estimated cost.
func RankPlans(f *Flow, dop int) ([]RankedPlan, error) {
	return optimizer.Plan(f, dop, 0, optimizer.NetProfile{})
}

// Optimize returns the cheapest physical plan over all valid reorderings of
// the flow.
func Optimize(f *Flow, dop int) (*PhysPlan, error) { return OptimizeBudget(f, dop, 0) }

// OptimizeBudget is Optimize with a memory budget (bytes; zero =
// unlimited): the cost model charges shuffled grouping and join operators
// whose receiver volume exceeds the budget for sorting, spilling, and
// externally merging the overflow — and broadcast join build sides for
// their replicated residency — so enumeration prefers combinable,
// forward-shipping, or broadcast plans exactly when memory is tight. Pair
// it with an engine whose MemoryBudget is set to the same value.
func OptimizeBudget(f *Flow, dop int, memoryBudget int) (*PhysPlan, error) {
	best, err := optimizer.Best(f, dop, float64(memoryBudget), optimizer.NetProfile{})
	if err != nil {
		return nil, err
	}
	return best.Phys, nil
}

// Engine re-exports.
type (
	// Engine executes physical plans on a multi-goroutine shared-nothing
	// runtime with a batched shuffle, fused Map chains, pre-shuffle partial
	// aggregation for combinable Reduces, and — when Engine.MemoryBudget is
	// set — spill-to-disk external grouping and joining for working sets
	// larger than memory (see DESIGN.md). Engine.RunContext runs a plan
	// under a context: cancellation and deadlines propagate cooperatively
	// into the shuffle senders, spill collectors, and local-strategy
	// loops, and a cancelled run removes its spill files before
	// returning.
	Engine = engine.Engine
	// RunStats reports per-operator records, shipped bytes, UDF calls,
	// combiner calls, and spill activity (SpilledBytes, SpillRuns).
	RunStats = engine.RunStats
	// OpStats are the runtime statistics of one operator execution.
	OpStats = engine.OpStats
)

// NewEngine returns an execution engine with the given degree of
// parallelism. Chain WithMemoryBudget to bound the resident bytes of
// grouping and join shuffle receivers (spilling the overflow to sorted
// disk runs) and WithTransport to ship across flowworker processes.
func NewEngine(dop int) *Engine { return engine.New(dop) }

// Job-scheduling re-exports: the concurrency layer above single-plan
// execution (see internal/jobs and DESIGN.md "Job scheduling & admission
// control").
type (
	// Scheduler runs many flows concurrently, each on an engine of its own,
	// under admission control over a shared global memory budget: jobs queue
	// FIFO, each admitted job receives a budget grant that both the
	// optimizer's spill-cost model and the engine's spill receivers
	// honor, and every job runs under its own cancellable context.
	Scheduler = jobs.Scheduler
	// SchedulerConfig parameterizes a Scheduler (global budget, jobs
	// running at once, queue depth, default deadline, spill directory).
	SchedulerConfig = jobs.Config
	// JobSpec describes one submitted job: flow, sources, and per-job
	// resource asks (budget, DOP, deadline).
	JobSpec = jobs.Spec
	// Job is the handle of a submitted job: Wait, Cancel, State, Result.
	Job = jobs.Job
	// JobState is a job's lifecycle phase (queued → running → terminal).
	JobState = jobs.State
	// JobMetrics is a snapshot of scheduler admission counters and gauges
	// (queue depth, granted budget, peaks, queue-wait totals, plan-cache
	// hit rates, per-tenant usage).
	JobMetrics = jobs.Metrics
	// TenantMetrics is one tenant's slice of the scheduler's state
	// (running/queued counts, granted budget, peaks).
	TenantMetrics = jobs.TenantMetrics
	// ScriptJob is the declarative JSON job document (PactScript UDFs +
	// flow wiring + inline data) that cmd/flowserve accepts over HTTP.
	ScriptJob = jobs.ScriptJob
)

// Job lifecycle states.
const (
	JobQueued    = jobs.StateQueued
	JobRunning   = jobs.StateRunning
	JobSucceeded = jobs.StateSucceeded
	JobFailed    = jobs.StateFailed
	JobCancelled = jobs.StateCancelled
)

// Scheduling errors.
var (
	ErrSchedulerClosed = jobs.ErrClosed
	ErrQueueFull       = jobs.ErrQueueFull
	ErrJobCancelled    = jobs.ErrCancelled
	// ErrJobNotFinished is returned by Job.Result while the job is still
	// queued or running.
	ErrJobNotFinished = jobs.ErrNotFinished
	// ErrTenantQuota is returned by Scheduler.Submit when the job's tenant
	// is at its queued-jobs quota (SchedulerConfig.TenantMaxQueued).
	ErrTenantQuota = jobs.ErrTenantQuota
	// ErrBackpressure is returned by Scheduler.Submit when the summed
	// optimizer cost estimates of queued jobs would exceed
	// SchedulerConfig.MaxQueuedCost.
	ErrBackpressure = jobs.ErrBackpressure
)

// NewScheduler returns a job scheduler with the given admission
// configuration. Submit queues a JobSpec; the returned Job's Wait blocks
// for its result. See DESIGN.md for the admission model.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return jobs.New(cfg) }

// ParseJobDocument turns a JSON job document (ScriptJob: PactScript source,
// flow wiring, inline data) into a Spec ready for Scheduler.Submit — the
// same front door cmd/flowserve exposes over HTTP. Prefer the
// Scheduler.ParseScriptJob method when submitting to a scheduler: it
// serves repeated documents from the scheduler's plan cache, skipping
// compilation and (at Submit) plan enumeration.
func ParseJobDocument(raw []byte) (JobSpec, error) { return jobs.ParseScriptJob(raw) }
