package jobs

import (
	"time"

	"blackboxflow/internal/obs"
)

// schedObs is the scheduler-owned observability state: the service-tier
// histograms that every job's engine and the worker health sweeps record
// into, and the construction time for uptime reporting. The histograms
// live for the scheduler's lifetime — they are the one thing a job's
// engine shares with the next job's — and exposition reads lock-free
// snapshots.
type schedObs struct {
	start time.Time
	// jobLatency observes submission→terminal wall time of every job that
	// ran (queue-evicted cancellations are not observed — they measure the
	// caller, not the scheduler).
	jobLatency *obs.Histogram
	// queueWait observes submission→admission wait of every admitted job.
	queueWait *obs.Histogram
	// pingRTT observes worker health-check round trips.
	pingRTT *obs.Histogram
	// engine is the histogram set shared by every job's engine (ship
	// times, spill run sizes).
	engine *obs.EngineHists
}

func newSchedObs() *schedObs {
	return &schedObs{
		start: time.Now(),
		// 1ms .. ~32s: spans interactive scripts through budgeted joins.
		jobLatency: obs.NewHistogram(obs.ExpBuckets(0.001, 2, 16)),
		// 100µs .. ~26s: admission is instant on an idle scheduler and
		// queue-bound under load, so the range is wide and coarse.
		queueWait: obs.NewHistogram(obs.ExpBuckets(0.0001, 4, 10)),
		// 100µs .. ~0.2s: loopback to LAN round trips.
		pingRTT: obs.NewHistogram(obs.ExpBuckets(0.0001, 2, 12)),
		engine: &obs.EngineHists{
			// 100µs .. ~1.6s per operator shuffle.
			ShipSeconds: obs.NewHistogram(obs.ExpBuckets(0.0001, 2, 14)),
			// 1KiB .. ~256MiB per sorted spill run.
			SpillRunBytes: obs.NewHistogram(obs.ExpBuckets(1024, 4, 10)),
		},
	}
}

// histograms snapshots every scheduler histogram, keyed by the metric name
// used in both the JSON metrics document and the Prometheus exposition.
func (o *schedObs) histograms() map[string]obs.HistSnapshot {
	return map[string]obs.HistSnapshot{
		"job_latency_seconds":  o.jobLatency.Snapshot(),
		"queue_wait_seconds":   o.queueWait.Snapshot(),
		"shuffle_ship_seconds": o.engine.ShipSeconds.Snapshot(),
		"spill_run_bytes":      o.engine.SpillRunBytes.Snapshot(),
		"worker_ping_seconds":  o.pingRTT.Snapshot(),
	}
}

// WorkerNetStats is one worker's traffic totals and last health-check RTT,
// as reported by the worker's pong payload during the most recent sweep
// that reached it.
type WorkerNetStats struct {
	RTTSeconds float64 `json:"rtt_sec"`
	Frames     int64   `json:"frames"`
	Bytes      int64   `json:"bytes"`
}
