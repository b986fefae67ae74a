// Package jobs is the concurrency layer above the single-plan engine: a
// Scheduler accepts submitted flows, optimizes each against the memory
// budget it was granted, and runs each on an engine of its own under
// admission control — so many optimized dataflows share one machine without
// oversubscribing its memory.
//
// Admission control is a FIFO queue over a global memory budget
// (Config.GlobalBudget): every job asks for a budget grant (its requested
// MemoryBudget, or an equal share of the global budget by default), and the
// queue head is admitted only when the outstanding grants plus its own fit
// under the global budget and fewer than Config.MaxConcurrent jobs are
// running. The grant is not just a gate — it flows into the optimizer's
// spill-cost model (optimizer.RankAllNet picks plans knowing how much
// memory the job will actually have) and into the engine's spill receivers
// (Engine.MemoryBudget), so an admitted job both plans for and is held to
// its share. Queueing is strictly FIFO: a large job at the head blocks
// smaller jobs behind it rather than being starved by them.
//
// Every job runs under its own context (Engine.RunContext) with an optional
// deadline; cancelling a queued job evicts it from the queue, cancelling a
// running job stops the engine cooperatively, and either way the job's
// spill directory — each job that spills gets a private one — is removed.
// A job's engine is built from the job's own settings when it is admitted
// and dropped when it ends, so jobs share no mutable execution state: only
// the scheduler's histograms and caches outlive one. See DESIGN.md ("Job
// scheduling & admission control").
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/engine"
	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/transport"
)

// Sentinel errors of the scheduling layer.
var (
	// ErrClosed is returned by Submit after Close/Shutdown began.
	ErrClosed = errors.New("jobs: scheduler is shut down")
	// ErrQueueFull is returned by Submit when the pending queue is at
	// Config.MaxQueue.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrCancelled is the error of a job cancelled by Job.Cancel (as the
	// run context's cancellation cause, it is also what a cancelled run
	// returns from the engine).
	ErrCancelled = errors.New("jobs: job cancelled")
	// ErrNotFinished is returned by Job.Result while the job is still
	// queued or running.
	ErrNotFinished = errors.New("jobs: job not finished")
	// ErrTenantQuota is returned by Submit when the job's tenant already
	// has Config.TenantMaxQueued jobs waiting.
	ErrTenantQuota = errors.New("jobs: tenant queue quota exceeded")
	// ErrBackpressure is returned by Submit when the summed optimizer
	// cost estimates of the queued jobs would exceed Config.MaxQueuedCost
	// — cost-based backpressure: one expensive plan fills the queue's
	// cost budget even if the queue is short.
	ErrBackpressure = errors.New("jobs: queued-cost ceiling exceeded")
)

// Config parameterizes a Scheduler. The zero value of every field has a
// workable default; a zero GlobalBudget disables memory governance (jobs
// are gated by MaxConcurrent only and run unbudgeted unless their spec
// requests a budget).
type Config struct {
	// GlobalBudget is the shared memory budget in bytes (the same resident
	// wire-encoding unit as Engine.MemoryBudget) that all concurrently
	// running jobs' grants must fit under.
	GlobalBudget int
	// MaxConcurrent is how many jobs may run at once; a job that asks for
	// no budget is granted GlobalBudget/MaxConcurrent, an equal share.
	// Defaults to 2.
	MaxConcurrent int
	// MaxQueue caps the pending queue; Submit returns ErrQueueFull beyond
	// it. Defaults to 128. Negative means unbounded.
	MaxQueue int
	// DOP is a job's default degree of parallelism (a Spec may override
	// it). Defaults to 4.
	DOP int
	// SpillDir is the parent directory for per-job spill directories;
	// empty means the OS temp directory.
	SpillDir string
	// JobTimeout bounds every job's run wall time unless its Spec sets a
	// tighter Deadline. Zero means no default deadline.
	JobTimeout time.Duration
	// PlanCacheSize bounds the plan cache (entries per level: compiled
	// flows and optimized plans). Zero means the default of 256; negative
	// disables caching entirely.
	PlanCacheSize int
	// TenantMaxRunning caps how many of one tenant's jobs may run at
	// once; a tenant at its cap does not block other tenants' queued
	// jobs. Zero means no per-tenant running cap.
	TenantMaxRunning int
	// TenantMaxQueued caps how many of one tenant's jobs may wait in the
	// queue; Submit returns ErrTenantQuota beyond it. Zero means no cap.
	TenantMaxQueued int
	// TenantBudgetFrac caps the fraction of GlobalBudget one tenant's
	// running jobs may hold in grants (e.g. 0.5). Zero means no cap.
	TenantBudgetFrac float64
	// MaxQueuedCost is the ceiling on the summed optimizer cost
	// estimates of queued jobs: a Submit that would have to wait behind
	// queued work already at the ceiling returns ErrBackpressure. Cost
	// is the optimizer's abstract total (the unit RankAllNet sorts
	// by). Zero disables cost-based backpressure.
	MaxQueuedCost float64
	// FS is the filesystem seam under the per-job spill directories and
	// the engines' spill files; nil means the real OS filesystem.
	// Fault-injection harnesses install a faultfs.Injector here (see
	// internal/faultfs and the chaos suite).
	FS faultfs.FS
	// Workers are flowworker addresses (cmd/flowworker) hosting remote
	// shuffle partitions. When set, the scheduler calibrates the fleet at
	// construction (feeding measured bandwidth and latency into plan
	// ranking — optimizer.RankAllNet), health-checks it with TTL-cached
	// pings, and runs each job over a job-scoped TCP transport across the
	// workers that are currently healthy. Jobs fall back to the in-process
	// channel transport when no worker answers (counted in
	// Metrics.WorkerFallbacks). Empty means single-process execution.
	Workers []string
	// LocalSlots is the number of shuffle placement slots kept in the
	// coordinator process per placement rotation when Workers are set
	// (transport.TCPConfig.LocalSlots). Zero places every partition
	// remotely.
	LocalSlots int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 128
	}
	if c.DOP <= 0 {
		c.DOP = 4
	}
	if c.PlanCacheSize == 0 {
		c.PlanCacheSize = 256
	}
	return c
}

// Spec describes one job: a logical flow (with effects already derived —
// ParseScriptJob does this for script submissions), its source data, and
// per-job resource asks.
type Spec struct {
	// Name labels the job in listings and metrics; optional.
	Name string
	// Tenant attributes the job to a tenant for quota enforcement
	// (running/queued caps, budget share); empty is the shared anonymous
	// tenant.
	Tenant string
	// PlanKey is the plan-cache digest of the job document; set by
	// Scheduler.ParseScriptJob. Empty disables plan caching for this
	// job's optimization.
	PlanKey string
	// Flow is the logical dataflow to optimize and run. Required.
	Flow *dataflow.Flow
	// Sources maps the flow's source operator names to their data.
	Sources map[string]record.DataSet
	// DOP overrides the scheduler's degree of parallelism for this job.
	DOP int
	// MemoryBudget is the requested budget grant in bytes; zero asks for
	// the scheduler's default share. Requests above the global budget, or
	// above the tenant's share of it (Config.TenantBudgetFrac), are clamped
	// to that ceiling (the job then runs alone under it).
	MemoryBudget int
	// Deadline bounds the job's run wall time (measured from admission,
	// not submission). Zero falls back to Config.JobTimeout.
	Deadline time.Duration
	// Compile is the document's compilation (PactScript compile, flow
	// build, static analysis, row decoding) as a pre-timed "compile" span,
	// which Submit folds into the job's trace. ParseScriptJob fills it: the
	// detail says what ingest found cached — "flow-cache hit " when the
	// compiled flow was reused, then whether the whole document was
	// replayed, how many inline sources the source cache served and how
	// many raw row bytes were parsed (doc=hit|miss sources=<hits>/<n>
	// decoded_bytes=<n>). A zero Start means no compile phase
	// (programmatically built Specs).
	Compile obs.Span
}

// State is a job's lifecycle phase.
type State uint8

const (
	// StateQueued: accepted, waiting for admission.
	StateQueued State = iota
	// StateRunning: admitted; optimizing or executing.
	StateRunning
	// StateSucceeded: finished with a result.
	StateSucceeded
	// StateFailed: finished with an error (including deadline expiry).
	StateFailed
	// StateCancelled: evicted from the queue or stopped mid-run by Cancel.
	StateCancelled
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateSucceeded }

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateSucceeded:
		return "succeeded"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Job is one submitted dataflow moving through the scheduler. All methods
// are safe for concurrent use.
type Job struct {
	// ID is unique within the scheduler, in submission order.
	ID int64

	s    *Scheduler
	spec Spec
	// What Submit resolved from the spec and the scheduler's defaults: the
	// degree of parallelism, the admission-controlled budget share, the run
	// deadline (zero = none) and the tenant's ledger.
	dop      int
	grant    int
	deadline time.Duration
	tenant   *usage
	// cost is the optimizer cost estimate used for queued-cost
	// backpressure (zero when backpressure is off).
	cost float64

	// done closes when the job reaches a terminal state.
	done chan struct{}

	// trace is the job's span tree, created at submission and finalized by
	// finish. The root span (ID 0) covers submission→terminal; queueSpan is
	// the open admission-wait child (0 once closed).
	trace     *obs.Trace
	queueSpan obs.SpanID

	// Everything below is guarded by s.mu.
	state     State
	cancel    context.CancelCauseFunc // set at admission
	output    record.DataSet
	stats     *engine.RunStats
	err       error
	submitted time.Time
	started   time.Time
	planned   time.Time
	finished  time.Time
}

// Name returns the job's label from its spec.
func (j *Job) Name() string { return j.spec.Name }

// Trace returns the job's span tree. It is live while the job runs (spans
// keep being recorded) and complete once the job is terminal; readers get
// consistent snapshots either way.
func (j *Job) Trace() *obs.Trace { return j.trace }

// Tenant returns the tenant the job is attributed to ("" = anonymous).
func (j *Job) Tenant() string { return j.spec.Tenant }

// Grant returns the job's admission budget grant in bytes.
func (j *Job) Grant() int { return j.grant }

// CostEstimate returns the optimizer cost estimate backpressure charged
// for this job (zero when Config.MaxQueuedCost is unset).
func (j *Job) CostEstimate() float64 { return j.cost }

// Started returns when the job was admitted (zero while still queued).
func (j *Job) Started() time.Time {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.started
}

// Planned returns when the job's physical plan was in hand and execution
// handoff began (zero before). Planned().Sub(Started()) is the per-job
// optimizer latency — what the plan cache removes on a hit.
func (j *Job) Planned() time.Time {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.planned
}

// Finished returns when the job reached a terminal state (zero before).
func (j *Job) Finished() time.Time {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.finished
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's output, statistics, and error once it is
// terminal; before that it returns ErrNotFinished.
func (j *Job) Result() (record.DataSet, *engine.RunStats, error) {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	if !j.state.Terminal() {
		return nil, nil, ErrNotFinished
	}
	return j.output, j.stats, j.err
}

// Wait blocks until the job finishes (returning its result) or ctx is
// cancelled (returning ctx's error; the job keeps running).
func (j *Job) Wait(ctx context.Context) (record.DataSet, *engine.RunStats, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, nil, context.Cause(ctx)
	}
}

// Cancel stops the job: a queued job is evicted from the queue without ever
// running; a running job's context is cancelled and the engine winds down
// cooperatively (its spill files are removed). Cancelling a terminal job is
// a no-op. Cancel returns without waiting; use Wait to observe the wind-down.
func (j *Job) Cancel() {
	s := j.s
	s.mu.Lock()
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.total.Queued--
		j.tenant.Queued--
		s.dropQueuedCostLocked(j.cost)
		j.finish(ErrCancelled)
		s.m.Cancelled++
		s.dispatchLocked()
		s.checkDrainedLocked()
	case StateRunning:
		j.cancel(ErrCancelled)
	}
	s.mu.Unlock()
}

// finish moves the job to its terminal state and finalizes its trace: the
// admission-wait span is closed if still open (queue evictions), and the
// root span ends carrying the job's identity, output size, and — for failed
// jobs — the attributed error. The job's inputs are let go: a terminal job
// never reads them again, and the registry must not pin decoded rows that
// only the bounded source cache should own. Caller holds s.mu.
func (j *Job) finish(err error) {
	j.err = err
	j.spec.Sources = nil
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateSucceeded
	case errors.Is(err, ErrCancelled):
		j.state = StateCancelled
	default:
		j.state = StateFailed
	}
	if j.trace != nil {
		if j.queueSpan != 0 {
			j.trace.End(j.queueSpan)
			j.queueSpan = 0
		}
		id, tenant, state := j.ID, j.spec.Tenant, j.state.String()
		records := int64(len(j.output))
		j.trace.EndWith(0, func(s *obs.Span) {
			if err != nil {
				s.Err = err.Error()
			}
			s.Records = records
			s.Detail = fmt.Sprintf("id=%d tenant=%q %s", id, tenant, state)
		})
	}
	close(j.done)
}

// Metrics is a point-in-time snapshot of the scheduler's counters and
// gauges.
type Metrics struct {
	// Counters since construction.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"` // all rejected submissions
	Admitted  int64 `json:"admitted"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"` // queue evictions and mid-run cancels
	// QuotaRejected and BackpressureRejected break Rejected down:
	// per-tenant queue-cap rejections and queued-cost-ceiling rejections.
	QuotaRejected        int64 `json:"quota_rejected"`
	BackpressureRejected int64 `json:"backpressure_rejected"`
	// Plan-cache counters: flow-level (compiled flows, counted by
	// ParseScriptJob) and plan-level (optimized plans, counted at
	// execution).
	FlowCacheHits   int64 `json:"flow_cache_hits"`
	FlowCacheMisses int64 `json:"flow_cache_misses"`
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	// Source-cache counters (decoded inline sources, counted by
	// ParseScriptJob per source) and gauges: resident bytes and entries.
	SourceCacheHits      int64 `json:"source_cache_hits"`
	SourceCacheMisses    int64 `json:"source_cache_misses"`
	SourceCacheEvictions int64 `json:"source_cache_evictions"`
	SourceCacheBytes     int64 `json:"source_cache_bytes"`
	SourceCacheEntries   int   `json:"source_cache_entries"`

	// WorkerFallbacks counts jobs that ran in-process because no
	// configured worker answered its health check.
	WorkerFallbacks int64 `json:"worker_fallbacks,omitempty"`

	// Gauges.
	Queued        int `json:"queued"`
	Running       int `json:"running"`
	GrantedBudget int `json:"granted_budget"`
	GlobalBudget  int `json:"global_budget"`
	// Workers is the configured flowworker fleet size; HealthyWorkers is
	// how many answered the most recent health sweep (0 before any sweep).
	Workers        int `json:"workers,omitempty"`
	HealthyWorkers int `json:"healthy_workers,omitempty"`
	// NetBytesPerSec and NetLatencySec are the fleet calibration measured
	// at construction and fed into plan ranking (zero when calibration
	// failed or no workers are configured).
	NetBytesPerSec float64 `json:"net_bytes_per_sec,omitempty"`
	NetLatencySec  float64 `json:"net_latency_sec,omitempty"`
	// QueuedCost is the summed optimizer cost estimate of the queued
	// jobs (the quantity MaxQueuedCost caps; zero with backpressure off).
	QueuedCost float64 `json:"queued_cost"`

	// UptimeSec is the scheduler's age in seconds.
	UptimeSec float64 `json:"uptime_sec"`

	// Histograms are the scheduler's latency and size distributions, keyed
	// by metric name (job_latency_seconds, queue_wait_seconds,
	// shuffle_ship_seconds, spill_run_bytes, worker_ping_seconds). The same
	// snapshots back the Prometheus exposition.
	Histograms map[string]obs.HistSnapshot `json:"histograms,omitempty"`

	// WorkerNet holds per-worker relay traffic totals and health-check
	// RTTs, keyed by worker address (present once a health sweep reached
	// the worker).
	WorkerNet map[string]WorkerNetStats `json:"worker_net,omitempty"`

	// High-water marks.
	PeakGrantedBudget int `json:"peak_granted_budget"`
	PeakRunning       int `json:"peak_running"`
	PeakQueued        int `json:"peak_queued"`

	// TotalQueueWait sums admitted jobs' time from submission to
	// admission; divide by Admitted for the mean.
	TotalQueueWait time.Duration `json:"total_queue_wait_ns"`

	// Tenants holds per-tenant gauges and peaks, keyed by tenant name
	// ("" is the anonymous tenant). Present once any job was submitted.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
}

// TenantMetrics is one tenant's slice of the scheduler's state.
type TenantMetrics struct {
	Running           int `json:"running"`
	Queued            int `json:"queued"`
	GrantedBudget     int `json:"granted_budget"`
	PeakRunning       int `json:"peak_running"`
	PeakGrantedBudget int `json:"peak_granted_budget"`
}

// usage is one admission ledger: the jobs waiting, the jobs running and the
// budget they hold, with the high-water marks. The scheduler keeps one for
// the machine and one per distinct tenant name, the latter for its lifetime
// (a few dozen bytes each — the same order as any per-customer metric a
// service keeps). The fields are TenantMetrics', so a snapshot is a
// conversion.
type usage TenantMetrics

// fits reports whether one more running job holding grant keeps the ledger
// within maxRunning jobs and budget bytes; a zero limit does not bind.
func (u *usage) fits(grant, maxRunning, budget int) bool {
	return (maxRunning <= 0 || u.Running < maxRunning) && (budget <= 0 || u.GrantedBudget+grant <= budget)
}

// admit moves one job from waiting to running with its grant.
func (u *usage) admit(grant int) {
	u.Queued--
	u.Running++
	u.GrantedBudget += grant
	u.PeakRunning = max(u.PeakRunning, u.Running)
	u.PeakGrantedBudget = max(u.PeakGrantedBudget, u.GrantedBudget)
}

// release returns a finished job's slot and grant.
func (u *usage) release(grant int) {
	u.Running--
	u.GrantedBudget -= grant
}

// Scheduler runs submitted jobs under admission control, each on an engine
// of its own. See the package comment for the model.
type Scheduler struct {
	cfg       Config
	planCache *PlanCache // nil when caching is disabled
	// workers is the flowworker fleet (nil when Config.Workers is empty);
	// netProfile is its startup calibration (zero when calibration failed
	// — plans then rank with the unmeasured raw-bytes Net term).
	workers    *workerPool
	netProfile optimizer.NetProfile
	// obs holds the scheduler-lifetime histograms and start time; every
	// job's engine records into its EngineHists.
	obs *schedObs

	mu         sync.Mutex
	queue      []*Job
	inFlight   map[*Job]struct{}
	total      usage   // every job; total.Queued == len(queue)
	queuedCost float64 // summed cost estimates of queued jobs
	tenants    map[string]*usage
	nextID     int64
	closed     bool
	stopping   bool          // forced shutdown began; admit nothing more
	drained    chan struct{} // lazily created by Shutdown waiters
	m          Metrics
}

// New returns a Scheduler with cfg's admission parameters (zero fields take
// the documented defaults).
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:      cfg,
		inFlight: map[*Job]struct{}{},
		tenants:  map[string]*usage{},
		obs:      newSchedObs(),
	}
	if cfg.PlanCacheSize > 0 {
		s.planCache = newPlanCache(cfg.PlanCacheSize)
	}
	if len(cfg.Workers) > 0 {
		s.workers = newWorkerPool(cfg.Workers, s.obs.pingRTT)
		// Best-effort startup calibration: an unreachable fleet leaves the
		// zero profile (raw-bytes Net term) and the health checks keep jobs
		// off the dead workers.
		if profile, err := calibrateWorkers(cfg.Workers); err == nil {
			s.netProfile = profile
		}
	}
	return s
}

// fs returns the scheduler's filesystem seam, defaulting to the real OS.
func (s *Scheduler) fs() faultfs.FS {
	if s.cfg.FS != nil {
		return s.cfg.FS
	}
	return faultfs.OS{}
}

// tenant returns (creating if needed) the ledger of a tenant. Caller holds
// s.mu.
func (s *Scheduler) tenant(name string) *usage {
	ts, ok := s.tenants[name]
	if !ok {
		ts = &usage{}
		s.tenants[name] = ts
	}
	return ts
}

// fitsLocked reports whether j could start running now as far as the whole
// machine is concerned (global) and as far as its tenant's caps are. Caller
// holds s.mu.
func (s *Scheduler) fitsLocked(j *Job) (global, tenant bool) {
	return s.total.fits(j.grant, s.cfg.MaxConcurrent, s.cfg.GlobalBudget),
		j.tenant.fits(j.grant, s.cfg.TenantMaxRunning, s.tenantBudgetCap())
}

// tenantBudgetCap returns the per-tenant grant ceiling in bytes (0 = no
// cap).
func (s *Scheduler) tenantBudgetCap() int {
	if s.cfg.TenantBudgetFrac <= 0 || s.cfg.GlobalBudget <= 0 {
		return 0
	}
	return int(s.cfg.TenantBudgetFrac * float64(s.cfg.GlobalBudget))
}

// dropQueuedCostLocked removes a no-longer-queued job's cost estimate,
// clamping accumulated float error to zero when the queue empties.
// Caller holds s.mu.
func (s *Scheduler) dropQueuedCostLocked(cost float64) {
	s.queuedCost -= cost
	if len(s.queue) == 0 || s.queuedCost < 0 {
		s.queuedCost = 0
	}
}

// Submit queues a job and returns its handle. The call never blocks on
// admission: the job runs when it reaches the queue head and its grant fits
// under the global budget. Submit fails fast with ErrQueueFull, ErrClosed,
// ErrTenantQuota (the tenant's queued cap is reached), or ErrBackpressure
// (the job would wait behind queued work whose summed cost estimates are
// already at Config.MaxQueuedCost).
func (s *Scheduler) Submit(spec Spec) (*Job, error) {
	if spec.Flow == nil {
		return nil, errors.New("jobs: spec has no flow")
	}
	j := &Job{
		s:        s,
		spec:     spec,
		dop:      spec.DOP,
		grant:    spec.MemoryBudget,
		deadline: spec.Deadline,
		done:     make(chan struct{}),
	}
	if j.dop <= 0 {
		j.dop = s.cfg.DOP
	}
	if j.grant <= 0 {
		// An equal share of the global budget; unbudgeted without one.
		j.grant = max(s.cfg.GlobalBudget, 0) / s.cfg.MaxConcurrent
	}
	// A grant above a ceiling could never be admitted under it, so it is
	// clamped: the job then runs alone under that ceiling.
	for _, ceiling := range [...]int{s.cfg.GlobalBudget, s.tenantBudgetCap()} {
		if ceiling > 0 && j.grant > ceiling {
			j.grant = ceiling
		}
	}
	if j.deadline <= 0 {
		j.deadline = s.cfg.JobTimeout
	}
	// Cost estimation can run the physical optimizer; keep it outside the
	// lock.
	if s.cfg.MaxQueuedCost > 0 {
		j.cost = s.estimateCost(j)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.m.Rejected++
		return nil, ErrClosed
	}
	if s.cfg.MaxQueue >= 0 && len(s.queue) >= s.cfg.MaxQueue {
		s.m.Rejected++
		return nil, ErrQueueFull
	}
	j.tenant = s.tenant(spec.Tenant)
	if s.cfg.TenantMaxQueued > 0 && j.tenant.Queued >= s.cfg.TenantMaxQueued {
		s.m.Rejected++
		s.m.QuotaRejected++
		return nil, fmt.Errorf("%w: tenant %q has %d jobs queued", ErrTenantQuota, spec.Tenant, j.tenant.Queued)
	}
	if s.cfg.MaxQueuedCost > 0 {
		// Backpressure applies only to jobs that would actually wait: a
		// job an idle scheduler admits immediately never joins the queue,
		// so its cost cannot pile up behind anything.
		global, tenant := s.fitsLocked(j)
		willWait := len(s.queue) > 0 || !global || !tenant
		if willWait && s.queuedCost+j.cost > s.cfg.MaxQueuedCost {
			s.m.Rejected++
			s.m.BackpressureRejected++
			return nil, fmt.Errorf("%w: queued cost %.3g + job cost %.3g > ceiling %.3g",
				ErrBackpressure, s.queuedCost, j.cost, s.cfg.MaxQueuedCost)
		}
	}
	s.nextID++
	j.ID = s.nextID
	j.submitted = time.Now()
	// The job's trace opens here and closes in finish: root span = the
	// whole submission→terminal window. The document's compile time
	// happened before submission (ParseScriptJob), so it folds in as a
	// pre-timed span; the admission wait opens now and dispatch closes it.
	name := spec.Name
	if name == "" {
		name = "job"
	}
	j.trace = obs.NewTrace(name)
	if !spec.Compile.Start.IsZero() {
		j.trace.Import(0, spec.Compile)
	}
	j.queueSpan = j.trace.Begin(0, "queue", obs.KindPhase)
	s.queue = append(s.queue, j)
	s.total.Queued++
	j.tenant.Queued++
	s.queuedCost += j.cost
	s.m.Submitted++
	s.m.PeakQueued = max(s.m.PeakQueued, len(s.queue))
	s.dispatchLocked()
	return j, nil
}

// planKeyOf returns the plan-cache key of j's optimization — its document
// digest at its budget tier and DOP — and whether the job is cacheable at
// all.
func (s *Scheduler) planKeyOf(j *Job) (planKey, bool) {
	return planKey{hash: j.spec.PlanKey, tier: budgetTier(j.grant), dop: j.dop},
		s.planCache != nil && j.spec.PlanKey != ""
}

// estimateCost returns the optimizer's cost estimate for the job under
// its grant: the cached plan's exact ranked cost when the plan cache has
// one, else a single physical optimization of the submitted operator
// order — much cheaper than RankAllNet's full enumeration, and close
// enough for admission arithmetic (execute still optimizes properly).
func (s *Scheduler) estimateCost(j *Job) float64 {
	if key, ok := s.planKeyOf(j); ok {
		if cost, ok := s.planCache.peekCost(key); ok {
			return cost
		}
	}
	tree, err := optimizer.FromFlow(j.spec.Flow)
	if err != nil {
		return 0 // execute will surface the real error
	}
	po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(j.spec.Flow), j.dop)
	po.MemoryBudget = float64(j.grant)
	plan := po.Optimize(tree)
	return plan.Cost.Total(po.Weights)
}

// dispatchLocked admits queued jobs while the next one fits: fewer than
// MaxConcurrent running and, under a global budget, enough unclaimed budget
// for its grant.
// Ordering is FIFO with one relaxation: a job held back only by its own
// tenant's caps (running count or budget share) is skipped over so other
// tenants' jobs behind it are not head-of-line blocked — a job held back
// by a global constraint still blocks everything behind it, so large jobs
// cannot be starved by small ones. No admission happens once a forced
// shutdown has begun (s.stopping): Shutdown's queue eviction must not
// admit jobs mid-teardown just to cancel them. Caller holds s.mu.
func (s *Scheduler) dispatchLocked() {
	if s.stopping {
		return
	}
	for i := 0; i < len(s.queue); {
		head := s.queue[i]
		global, tenant := s.fitsLocked(head)
		if !global {
			return
		}
		if !tenant {
			i++ // only this tenant is at cap; try the job behind it
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.dropQueuedCostLocked(head.cost)
		s.total.admit(head.grant)
		head.tenant.admit(head.grant)
		s.inFlight[head] = struct{}{}
		head.state = StateRunning
		head.started = time.Now()
		head.trace.End(head.queueSpan)
		head.queueSpan = 0
		s.obs.queueWait.Observe(head.started.Sub(head.submitted).Seconds())
		ctx, cancel := context.WithCancelCause(context.Background())
		head.cancel = cancel
		s.m.Admitted++
		s.m.TotalQueueWait += head.started.Sub(head.submitted)
		go s.runJob(ctx, cancel, head)
	}
}

// runJob executes one admitted job and finalizes it.
func (s *Scheduler) runJob(ctx context.Context, cancel context.CancelCauseFunc, j *Job) {
	defer cancel(nil)
	if j.deadline > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, j.deadline)
		defer stop()
	}
	out, stats, err := s.execute(ctx, j)
	s.finishJob(j, out, stats, err)
}

// execute optimizes the job's flow against its grant and runs it on an
// engine built for this job only.
func (s *Scheduler) execute(ctx context.Context, j *Job) (record.DataSet, *engine.RunStats, error) {
	// Optimize under the granted budget: the spill-cost model sees exactly
	// the memory the engine will enforce. With a plan cache, a repeat
	// submission of the same document at the same budget tier and DOP
	// reuses the previously ranked plan and skips enumeration entirely.
	tr := j.trace
	optSpan := tr.Begin(0, "optimize", obs.KindPhase)
	var plan *optimizer.PhysPlan
	var detail string // what the optimize span says happened
	key, cacheable := s.planKeyOf(j)
	if cacheable {
		if e, ok := s.planCache.plan(key); ok {
			plan, detail = e.plan, "plan-cache hit"
		}
	}
	if plan == nil {
		tree, err := optimizer.FromFlow(j.spec.Flow)
		if err != nil {
			err = fmt.Errorf("jobs: optimize: %w", err)
			tr.Fail(optSpan, err)
			return nil, nil, err
		}
		// The measured transport profile (zero without workers) scales the
		// ranking's Net term to the wire the job will actually cross.
		ranked := optimizer.RankAllNet(tree, optimizer.NewEstimator(j.spec.Flow), j.dop, float64(j.grant), s.netProfile)
		if len(ranked) == 0 {
			err := errors.New("jobs: optimizer produced no plan")
			tr.Fail(optSpan, err)
			return nil, nil, err
		}
		plan = ranked[0].Phys
		enum := ranked[0].Enum
		detail = fmt.Sprintf("plans=%d subflows=%d exchanges=%d", len(ranked), enum.Subflows, enum.Exchanges)
		if cacheable {
			s.planCache.storePlan(key, planEntry{plan: plan, cost: ranked[0].Cost})
		}
	}
	tr.EndWith(optSpan, func(sp *obs.Span) { sp.Detail = detail })
	j.s.mu.Lock()
	j.planned = time.Now()
	j.s.mu.Unlock()

	// A private spill directory per job: even a crash-interrupted engine
	// cannot interleave its temp files with another job's, and removal on
	// the way out guarantees a cancelled or failed job leaves nothing
	// behind. It is made when the engine first spills (jobSpillFS): most
	// jobs never do, and the two directory round trips were a tenth of a
	// small job once decoding left the warm path.
	spill := &jobSpillFS{FS: s.fs(), parent: s.cfg.SpillDir}
	defer spill.remove()

	// The job's engine: everything it holds is this job's, except the
	// histogram set, which is the scheduler's. The sources are only read.
	eng := engine.New(j.dop)
	eng.MemoryBudget = j.grant
	eng.FS = spill
	eng.Sources = j.spec.Sources
	eng.Hists = s.obs.engine

	// Job-scoped distributed placement: the job's shuffles run over a TCP
	// transport spanning the currently healthy workers, and the transport's
	// teardown (every worker connection of this job) rides the defer — a
	// cancelled or failed job leaves nothing open on the fleet. With no
	// healthy worker the job falls back to in-process execution rather than
	// failing, and the fallback is counted.
	if s.workers != nil {
		if healthy := s.workers.healthyWorkers(); len(healthy) > 0 {
			tp, terr := transport.NewTCP(transport.TCPConfig{Workers: healthy, LocalSlots: s.cfg.LocalSlots})
			if terr != nil {
				return nil, nil, fmt.Errorf("jobs: worker transport: %w", terr)
			}
			defer tp.Close()
			eng.Transport = tp
		} else {
			s.mu.Lock()
			s.m.WorkerFallbacks++
			s.mu.Unlock()
		}
	}

	// The run span parents every operator span the engine records; its
	// extent is the engine's whole execution of this job's plan.
	runSpan := tr.Begin(0, "run", obs.KindPhase)
	eng.Trace = tr
	eng.TraceParent = runSpan
	out, stats, err := eng.RunContext(ctx, plan)
	if err != nil {
		tr.Fail(runSpan, err)
	} else {
		records := int64(len(out))
		tr.EndWith(runSpan, func(sp *obs.Span) { sp.Records = records })
	}
	return out, stats, err
}

// jobSpillFS is the filesystem a job's engine spills through: every spill
// file lands in one directory private to the job, created under parent by
// the first CreateTemp (partitions spill concurrently, hence the Once).
type jobSpillFS struct {
	faultfs.FS
	parent string
	once   sync.Once
	dir    string
	err    error
}

func (f *jobSpillFS) CreateTemp(_, pattern string) (faultfs.File, error) {
	f.once.Do(func() { f.dir, f.err = f.FS.MkdirTemp(f.parent, "flowjob-*") })
	if f.err != nil {
		return nil, fmt.Errorf("jobs: spill dir: %w", f.err)
	}
	return f.FS.CreateTemp(f.dir, pattern)
}

// remove deletes the job's spill directory, if one was made. The engine has
// returned by then, so no CreateTemp is in flight.
func (f *jobSpillFS) remove() {
	if f.dir != "" {
		f.FS.RemoveAll(f.dir)
	}
}

// finishJob releases the job's grant, records its terminal state, and
// admits whatever now fits.
func (s *Scheduler) finishJob(j *Job, out record.DataSet, stats *engine.RunStats, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total.release(j.grant)
	j.tenant.release(j.grant)
	delete(s.inFlight, j)
	j.output, j.stats = out, stats
	j.finish(err)
	s.obs.jobLatency.Observe(j.finished.Sub(j.submitted).Seconds())
	switch j.state {
	case StateSucceeded:
		s.m.Succeeded++
	case StateCancelled:
		s.m.Cancelled++
	default:
		s.m.Failed++
	}
	s.dispatchLocked()
	s.checkDrainedLocked()
}

// Metrics returns a snapshot of the scheduler's counters and gauges.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.m
	m.Queued, m.Running, m.GrantedBudget = s.total.Queued, s.total.Running, s.total.GrantedBudget
	m.PeakRunning, m.PeakGrantedBudget = s.total.PeakRunning, s.total.PeakGrantedBudget
	m.GlobalBudget = s.cfg.GlobalBudget
	m.QueuedCost = s.queuedCost
	m.UptimeSec = time.Since(s.obs.start).Seconds()
	m.Histograms = s.obs.histograms()
	if s.workers != nil {
		m.Workers = len(s.cfg.Workers)
		m.HealthyWorkers = s.workers.lastHealthy()
		m.NetBytesPerSec = s.netProfile.BytesPerSec
		m.NetLatencySec = s.netProfile.LatencySec
		m.WorkerNet = s.workers.workerNet()
	}
	if s.planCache != nil {
		var st cacheStats
		st, m.SourceCacheBytes, m.SourceCacheEntries = s.planCache.counters()
		m.FlowCacheHits, m.FlowCacheMisses = st.flowHits, st.flowMisses
		m.PlanCacheHits, m.PlanCacheMisses = st.planHits, st.planMisses
		m.SourceCacheHits, m.SourceCacheMisses, m.SourceCacheEvictions = st.sourceHits, st.sourceMisses, st.sourceEvictions
	}
	if len(s.tenants) > 0 {
		m.Tenants = make(map[string]TenantMetrics, len(s.tenants))
		for name, ts := range s.tenants {
			m.Tenants[name] = TenantMetrics(*ts)
		}
	}
	return m
}

// checkDrainedLocked wakes Shutdown waiters once the scheduler is closed
// and idle. Caller holds s.mu.
func (s *Scheduler) checkDrainedLocked() {
	if s.closed && len(s.queue) == 0 && s.total.Running == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
}

// Shutdown gracefully drains the scheduler: new submissions fail with
// ErrClosed, but everything already accepted — queued and running — is
// allowed to finish. If ctx expires first, the remaining jobs are cancelled
// and Shutdown still waits for them to wind down before returning ctx's
// error.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	if len(s.queue) == 0 && s.total.Running == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
	}
	drained := s.drained
	s.mu.Unlock()

	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}

	// Deadline passed: evict the queue and cancel in-flight runs, then
	// wait for the engines to stop (cooperative cancellation is prompt).
	// stopping gates dispatchLocked so the Cancel calls below (and any
	// finishing jobs racing with them) cannot admit queued jobs just to
	// cancel them moments later.
	s.mu.Lock()
	s.stopping = true
	queued := append([]*Job(nil), s.queue...)
	s.mu.Unlock()
	for _, j := range queued {
		j.Cancel()
	}
	s.mu.Lock()
	for j := range s.inFlight {
		j.cancel(ErrCancelled)
	}
	s.mu.Unlock()
	<-drained
	return context.Cause(ctx)
}
