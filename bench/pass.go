package main

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/jobs"
)

// setupRepeats is how often the untraced pass sets a workload up; setup_s
// is the median, and the last set-up is the one measured on.
const setupRepeats = 3

// countedJobs is how many traced jobs, taken in document order, the
// per-job counts average over. A fixed set of documents makes them repeat
// exactly; time metrics use every traced job.
const countedJobs = 8

// rig is a workload set up and warm: fleet running, documents generated
// and encoded, references computed, warm-up sent.
type rig struct {
	fleet  *fleet
	set    *docSet
	driver *driver
}

// setUp does everything between process spawn and the first measured
// request, which is what setup_s times.
func (h *harness) setUp(w *workload, seed int64) (*rig, error) {
	f, err := startFleet(h.bins, w, h.scratch)
	if err != nil {
		return nil, err
	}
	set, err := w.build(seed, h.toy)
	if err != nil {
		f.stop()
		return nil, fmt.Errorf("generating documents: %w", err)
	}
	r := &rig{fleet: f, set: set, driver: newDriver(f, set)}
	if err := r.driver.warmup(); err != nil {
		r.stop()
		return nil, fmt.Errorf("%w\n%s", err, f.logTail())
	}
	return r, nil
}

func (r *rig) stop() error {
	r.driver.close()
	return r.fleet.stop()
}

// untracedPass measures the end-to-end metrics of one workload with
// tracing off: set up (several times, for a steady setup_s), one fixed
// window of closed-loop load, then the validity guards. A nil result means
// nothing could be measured; a result with an error means it was measured
// but a job failed or a guard tripped.
func (h *harness) untracedPass(w *workload, seed int64, window time.Duration) (res *result, err error) {
	var setups []float64
	var r *rig
	repeats := setupRepeats
	if h.toy {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if r, err = h.setUp(w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { err = errors.Join(err, r.stop()) }()

	before, err := r.fleet.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := r.fleet.cpuMillis()
	if err != nil {
		return nil, err
	}
	st := r.driver.window(window, false, 0)
	cpu1, err := r.fleet.cpuMillis()
	if err != nil {
		return nil, err
	}
	after, err := r.fleet.metrics()
	if err != nil {
		return nil, err
	}
	done := len(st.LatenciesMS)
	if done == 0 {
		return nil, fmt.Errorf("no job succeeded in the window: %w\n%s", st.FirstErr, r.fleet.logTail())
	}

	res = newResult(w.Name, st)
	sort.Float64s(st.LatenciesMS)
	res.set("jobs_per_s", float64(done)/st.Elapsed.Seconds())
	res.set("job_p50_ms", st.LatenciesMS[done/2])
	res.set("cpu_ms_per_job", (cpu1-cpu0)/float64(done))
	res.set("setup_s", median(setups))
	res.set("samples", float64(done))
	// The highest percentile that still has ten samples beyond it.
	if tail := done - 11; tail > done/2 {
		res.set("job_tail_ms", st.LatenciesMS[tail])
		res.set("tail_pct", 100*float64(tail+1)/float64(done))
	}
	res.set("build_s", h.bins.BuildSecs)

	// Validity guards: a workload that did not exercise what it is named
	// for fails the run instead of reporting a misleading number.
	guards := []error{jobFailures(st)}
	hits, misses := after.PlanCacheHits-before.PlanCacheHits, after.PlanCacheMisses-before.PlanCacheMisses
	if w.ColdPlan && hits+after.FlowCacheHits-before.FlowCacheHits != 0 {
		guards = append(guards, fmt.Errorf("guard: %d plan- or flow-cache hits in a window that must always miss", hits+after.FlowCacheHits-before.FlowCacheHits))
	}
	if !w.ColdPlan && misses != 0 {
		guards = append(guards, fmt.Errorf("guard: %d plan-cache misses in a window that must always hit", misses))
	}
	guards = append(guards, workerGuard(w, after))
	var last struct {
		Stats []engine.OpStats `json:"stats"`
	}
	if err := r.fleet.getJSON(http.DefaultClient, fmt.Sprintf("/jobs/%d", st.LastID), &last); err != nil {
		return nil, err
	}
	var spilled int64
	for _, op := range last.Stats {
		spilled += int64(op.SpilledBytes)
	}
	guards = append(guards, spillGuard(w, spilled))
	return res, errors.Join(guards...)
}

// tracedPass measures the per-layer metrics of one workload: a fresh rig
// (so the document sequence, and with it every count, starts at the same
// place on every run), a window in which every job's server trace and
// statistics are pulled and re-parented under the harness's own spans, and
// the in-process probes.
func (h *harness) tracedPass(w *workload, seed int64, window time.Duration) (res *result, traces []*jobTrace, err error) {
	r, err := h.setUp(w, seed)
	if err != nil {
		return nil, nil, err
	}
	defer func() { err = errors.Join(err, r.stop()) }()

	before, err := r.fleet.metrics()
	if err != nil {
		return nil, nil, err
	}
	st := r.driver.window(window, true, countedJobs/clients)
	after, err := r.fleet.metrics()
	if err != nil {
		return nil, nil, err
	}
	rss, err := r.fleet.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	traces = st.Traces
	sort.Slice(traces, func(i, j int) bool { return traces[i].Seq < traces[j].Seq })
	if len(traces) < countedJobs {
		return nil, nil, fmt.Errorf("only %d traced jobs succeeded, need %d: %v\n%s", len(traces), countedJobs, st.FirstErr, r.fleet.logTail())
	}

	res = newResult(w.Name, st)
	layers := map[string]time.Duration{}
	var extent time.Duration
	for _, t := range traces {
		for layer, d := range t.attribute() {
			layers[layer] += d
		}
		extent += t.serverExtent()
	}
	perJob := func(d time.Duration) float64 {
		return float64(d) / float64(time.Millisecond) / float64(len(traces))
	}
	var server time.Duration
	for _, name := range layerNames {
		res.set("layer."+name+".ms_per_job", perJob(layers[name]))
		if name != "serve" {
			server += layers[name]
		}
	}
	res.set("server_span_ms", perJob(extent))
	accounted := 1 - float64(layers["other"])/float64(server)
	res.set("layers_accounted_ratio", accounted)

	c := countsOf(traces[:countedJobs])
	res.set("shipped_bytes_per_job", float64(c.ShippedBytes)/countedJobs)
	res.set("relay_bytes_per_job", float64(c.RelayBytes)/countedJobs)
	res.set("combiner_calls_per_job", float64(c.CombinerCalls)/countedJobs)
	res.set("spilled_bytes_per_job", float64(c.SpilledBytes)/countedJobs)
	res.set("spill_runs_per_job", float64(c.SpillRuns)/countedJobs)
	res.set("udf_calls_per_job", float64(c.UDFCalls)/countedJobs)

	hits, misses := after.PlanCacheHits-before.PlanCacheHits, after.PlanCacheMisses-before.PlanCacheMisses
	res.set("plan_cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	res.set("worker_fallbacks", float64(after.WorkerFallbacks))
	res.set("peak_rss_mb", rss)
	res.set("doc_bytes", float64(len(r.set.Docs[0])))
	res.set("result_rows", float64(st.ResultRows))
	res.set("traced_job_p50_ms", median(st.LatenciesMS))

	iters := probeIters
	if h.toy {
		iters = 3
	}
	p, err := runProbes(r.set, iters, h.scratch)
	if err != nil {
		return nil, nil, err
	}
	res.set("probe.json_decode_ms", p.JSONDecodeMS)
	res.set("probe.frontend_ms", p.FrontendMS)
	res.set("probe.sca_ms", p.SCAMS)
	res.set("probe.row_decode_ms", p.RowDecodeMS)
	res.set("probe.optimize_ms", p.OptimizeMS)
	res.set("probe.plans", float64(p.Plans))
	res.set("probe.engine_ms", p.EngineMS)
	res.set("probe.encode_ms", p.EncodeMS)

	guards := []error{jobFailures(st), workerGuard(w, after), spillGuard(w, c.SpilledBytes)}
	if (c.RelayBytes > 0) != (w.Workers > 0) {
		guards = append(guards, fmt.Errorf("guard: %d bytes relayed through workers on a workload with %d workers", c.RelayBytes, w.Workers))
	}
	if accounted < 0.9 {
		guards = append(guards, fmt.Errorf("guard: the layer table accounts for %.1f%% of the server's span, need 90%%", 100*accounted))
	}
	return res, traces, errors.Join(guards...)
}

// median sorts v and returns its middle element.
func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

func jobFailures(st *loadStats) error {
	if st.Failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d jobs failed, first: %w", st.Failed, st.Attempted, st.FirstErr)
}

// workerGuard holds a distributed workload to a fully healthy fleet with
// no job run in-process, and a single-process one to no fleet at all. (The
// relay totals in /metrics are as old as the last health sweep, so the
// traced pass checks relayed bytes on the jobs' own transport spans.)
func workerGuard(w *workload, m jobs.Metrics) error {
	switch {
	case m.Workers != w.Workers || m.HealthyWorkers != w.Workers:
		return fmt.Errorf("guard: %d of %d workers healthy, want %d", m.HealthyWorkers, m.Workers, w.Workers)
	case m.WorkerFallbacks != 0:
		return fmt.Errorf("guard: %d jobs fell back to in-process execution", m.WorkerFallbacks)
	}
	return nil
}

// spillGuard holds the spilling workload to spilling and every other one
// to staying resident.
func spillGuard(w *workload, spilled int64) error {
	if (spilled > 0) != w.Spills {
		return fmt.Errorf("guard: %d bytes spilled on a workload with spills=%v", spilled, w.Spills)
	}
	return nil
}
