package main

import (
	"io"
	"runtime/metrics"
	"sort"

	"blackboxflow/internal/jobs"
	"blackboxflow/internal/obs"
)

// gcMetrics are the Go runtime's collector readings. GCCPUSeconds over
// CPUSeconds is the collector's share of the CPU time the process had
// (GOMAXPROCS times its age); the runtime folds both in at the end of each
// cycle, so they read zero before the first.
type gcMetrics struct {
	GCCPUSeconds  float64 `json:"gc_cpu_seconds"`
	CPUSeconds    float64 `json:"cpu_seconds"`
	GCCycles      uint64  `json:"gc_cycles"`
	GCPercent     uint64  `json:"gc_percent"`
	HeapGoalBytes uint64  `json:"heap_goal_bytes"`
	HeapLiveBytes uint64  `json:"heap_live_bytes"`
}

// metricsView is the JSON /metrics document: the scheduler's snapshot and
// the collector's readings, side by side at the top level.
type metricsView struct {
	jobs.Metrics
	gcMetrics
}

// readGC samples the collector from runtime/metrics.
func readGC() gcMetrics {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/gogc:percent"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return gcMetrics{
		GCCPUSeconds:  s[0].Value.Float64(),
		CPUSeconds:    s[1].Value.Float64(),
		GCCycles:      s[2].Value.Uint64(),
		GCPercent:     s[3].Value.Uint64(),
		HeapGoalBytes: s[4].Value.Uint64(),
		HeapLiveBytes: s[5].Value.Uint64(),
	}
}

// writeProm renders a scheduler metrics snapshot in Prometheus text
// exposition format (0.0.4): the admission counters and gauges, the
// collector's readings, per-tenant and per-worker breakdowns as labeled
// families, and every scheduler histogram. Families are written in a
// fixed order and label sets sorted, so scrapes diff cleanly.
func writeProm(w io.Writer, m jobs.Metrics, gc gcMetrics) error {
	p := obs.NewPromWriter(w)

	p.Counter("flowserve_jobs_submitted_total", "Jobs accepted by Submit.", float64(m.Submitted))
	p.Counter("flowserve_jobs_rejected_total", "Submissions rejected (queue full, quota, backpressure, closed).", float64(m.Rejected))
	p.Counter("flowserve_jobs_admitted_total", "Jobs admitted onto an engine.", float64(m.Admitted))
	p.Counter("flowserve_jobs_succeeded_total", "Jobs that finished with a result.", float64(m.Succeeded))
	p.Counter("flowserve_jobs_failed_total", "Jobs that finished with an error.", float64(m.Failed))
	p.Counter("flowserve_jobs_cancelled_total", "Jobs cancelled while queued or running.", float64(m.Cancelled))
	p.Counter("flowserve_plan_cache_hits_total", "Optimized-plan cache hits.", float64(m.PlanCacheHits))
	p.Counter("flowserve_plan_cache_misses_total", "Optimized-plan cache misses.", float64(m.PlanCacheMisses))
	p.Counter("flowserve_flow_cache_hits_total", "Compiled-flow cache hits.", float64(m.FlowCacheHits))
	p.Counter("flowserve_flow_cache_misses_total", "Compiled-flow cache misses.", float64(m.FlowCacheMisses))
	p.Counter("flowserve_source_cache_hits_total", "Inline sources served decoded by the source cache.", float64(m.SourceCacheHits))
	p.Counter("flowserve_source_cache_misses_total", "Inline sources that had to be decoded.", float64(m.SourceCacheMisses))
	p.Counter("flowserve_source_cache_evictions_total", "Decoded sources evicted from the source cache.", float64(m.SourceCacheEvictions))
	p.Counter("flowserve_worker_fallbacks_total", "Jobs run in-process because no worker was healthy.", float64(m.WorkerFallbacks))

	p.Gauge("flowserve_uptime_seconds", "Scheduler age.", m.UptimeSec)
	p.Gauge("flowserve_jobs_queued", "Jobs waiting for admission.", float64(m.Queued))
	p.Gauge("flowserve_jobs_running", "Jobs currently on an engine.", float64(m.Running))
	p.Gauge("flowserve_granted_budget_bytes", "Memory budget held by running jobs.", float64(m.GrantedBudget))
	p.Gauge("flowserve_global_budget_bytes", "Shared memory budget.", float64(m.GlobalBudget))
	p.Gauge("flowserve_source_cache_bytes", "Resident bytes of cached decoded sources.", float64(m.SourceCacheBytes))
	p.Gauge("flowserve_source_cache_entries", "Decoded sources in the source cache.", float64(m.SourceCacheEntries))
	p.Gauge("flowserve_queued_cost", "Summed optimizer cost estimates of queued jobs.", m.QueuedCost)

	p.Counter("flowserve_gc_cpu_seconds_total", "Estimated CPU time spent in garbage collection.", gc.GCCPUSeconds)
	p.Counter("flowserve_cpu_seconds_total", "Estimated CPU time available to the process (GOMAXPROCS times its age).", gc.CPUSeconds)
	p.Counter("flowserve_gc_cycles_total", "Completed garbage-collection cycles.", float64(gc.GCCycles))
	p.Gauge("flowserve_gc_percent", "GOGC in force.", float64(gc.GCPercent))
	p.Gauge("flowserve_heap_goal_bytes", "Heap size the current collection cycle aims to end at.", float64(gc.HeapGoalBytes))
	p.Gauge("flowserve_heap_live_bytes", "Heap bytes the previous collection marked live.", float64(gc.HeapLiveBytes))
	if m.Workers > 0 {
		p.Gauge("flowserve_workers", "Configured flowworker fleet size.", float64(m.Workers))
		p.Gauge("flowserve_workers_healthy", "Workers that answered the last health sweep.", float64(m.HealthyWorkers))
	}

	if len(m.Tenants) > 0 {
		running := make([]obs.LabeledValue, 0, len(m.Tenants))
		queued := make([]obs.LabeledValue, 0, len(m.Tenants))
		granted := make([]obs.LabeledValue, 0, len(m.Tenants))
		for name, ts := range m.Tenants {
			l := map[string]string{"tenant": name}
			running = append(running, obs.LabeledValue{Labels: l, Value: float64(ts.Running)})
			queued = append(queued, obs.LabeledValue{Labels: l, Value: float64(ts.Queued)})
			granted = append(granted, obs.LabeledValue{Labels: l, Value: float64(ts.GrantedBudget)})
		}
		p.GaugeVec("flowserve_tenant_running", "Running jobs per tenant.", running)
		p.GaugeVec("flowserve_tenant_queued", "Queued jobs per tenant.", queued)
		p.GaugeVec("flowserve_tenant_granted_budget_bytes", "Granted budget per tenant.", granted)
	}

	if len(m.WorkerNet) > 0 {
		rtt := make([]obs.LabeledValue, 0, len(m.WorkerNet))
		frames := make([]obs.LabeledValue, 0, len(m.WorkerNet))
		bytes := make([]obs.LabeledValue, 0, len(m.WorkerNet))
		for addr, st := range m.WorkerNet {
			l := map[string]string{"worker": addr}
			rtt = append(rtt, obs.LabeledValue{Labels: l, Value: st.RTTSeconds})
			frames = append(frames, obs.LabeledValue{Labels: l, Value: float64(st.Frames)})
			bytes = append(bytes, obs.LabeledValue{Labels: l, Value: float64(st.Bytes)})
		}
		p.GaugeVec("flowserve_worker_ping_rtt_seconds", "Last health-check round trip per worker.", rtt)
		p.GaugeVec("flowserve_worker_relay_frames", "Data frames relayed per worker (lifetime).", frames)
		p.GaugeVec("flowserve_worker_relay_bytes", "Data bytes relayed per worker (lifetime).", bytes)
	}

	// One histogram family per scheduler histogram, in name order. The
	// snapshot names are already exposition-safe.
	names := make([]string, 0, len(m.Histograms))
	for name := range m.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p.Histogram("flowserve_"+name, histogramHelp[name], m.Histograms[name])
	}
	return p.Err()
}

// histogramHelp maps scheduler histogram names to their HELP strings.
var histogramHelp = map[string]string{
	"job_latency_seconds":  "Job wall time, submission to terminal state.",
	"queue_wait_seconds":   "Admission-queue wait of admitted jobs.",
	"shuffle_ship_seconds": "Per-operator input-shipping wall time.",
	"spill_run_bytes":      "Size of sorted runs written by spilling collectors.",
	"worker_ping_seconds":  "Worker health-check round trips.",
}
