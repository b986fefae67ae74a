// Command flowserve is the HTTP front door of the job-scheduling
// subsystem: it accepts PactScript job documents, runs them on a shared
// admission-controlled scheduler (internal/jobs), and serves status,
// results, statistics, and cancellation per job.
//
//	flowserve -addr :8080 -global-budget 67108864 -max-concurrent 4
//
// Endpoints:
//
//	POST /jobs             submit a job document (see internal/jobs.ScriptJob);
//	                       ?wait=1 returns rows inline and cancels the job
//	                       if the client disconnects while waiting; the
//	                       X-Tenant header attributes the job to a tenant
//	                       for quota enforcement (429 over quota)
//	GET  /jobs             list submitted jobs
//	GET  /jobs/{id}        job status + per-operator statistics
//	GET  /jobs/{id}/result rows of a succeeded job; ?stream=1 writes rows
//	                       incrementally instead of buffering the document
//	POST /jobs/{id}/cancel evict a queued job / stop a running one
//	GET  /jobs/{id}/trace  the job's execution span tree (compile, queue
//	                       wait, optimize, per-operator ship/spill/merge,
//	                       per-worker transport); ?format=chrome emits
//	                       Chrome trace_event JSON for Perfetto
//	GET  /metrics          scheduler metrics: JSON by default,
//	                       ?format=prom for Prometheus text exposition
//	GET  /healthz          liveness (503 while draining)
//
// With -pprof-addr, net/http/pprof is served on a separate listener (keep
// it off public interfaces). Logs are structured (log/slog, text format).
//
// With -workers, every job's shuffles run across the named flowworker
// processes (cmd/flowworker) over the TCP transport: the fleet is
// calibrated at startup (measured bandwidth and latency feed plan
// ranking), health-checked with TTL-cached pings, and a job's worker
// connections are torn down with the job. Jobs fall back to in-process
// execution while no worker is healthy.
//
// Repeated submissions of the same document hit the scheduler's plan
// cache (-plan-cache entries) and skip compilation and optimization.
// Terminal jobs are evicted from the registry after -job-ttl or beyond
// -max-jobs (oldest finished first); evicted IDs answer 410 Gone.
//
// A worked submission example lives in README.md ("flowserve quickstart").
// On SIGINT/SIGTERM the server drains gracefully: new submissions get 503,
// accepted jobs finish (up to -drain-timeout, then they are cancelled), and
// only then does the listener close.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blackboxflow/internal/jobs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	globalBudget := flag.Int("global-budget", 64<<20, "shared memory budget in bytes for all running jobs (0 = ungoverned)")
	maxConcurrent := flag.Int("max-concurrent", 4, "jobs running at once")
	maxQueue := flag.Int("max-queue", 128, "pending-queue depth before submissions are rejected (negative = unbounded)")
	dop := flag.Int("dop", 4, "default degree of parallelism per job")
	spillDir := flag.String("spill-dir", "", "parent directory for per-job spill directories (default: OS temp)")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job deadline, e.g. 30s (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for accepted jobs before cancelling them")
	planCache := flag.Int("plan-cache", 256, "plan-cache entries per level: compiled flows and optimized plans (negative = disabled)")
	tenantMaxRunning := flag.Int("tenant-max-running", 0, "per-tenant cap on concurrently running jobs (0 = none)")
	tenantMaxQueued := flag.Int("tenant-max-queued", 0, "per-tenant cap on queued jobs; 429 beyond it (0 = none)")
	tenantBudgetFrac := flag.Float64("tenant-budget-frac", 0, "fraction of the global budget one tenant's running jobs may hold, e.g. 0.5 (0 = none)")
	maxQueuedCost := flag.Float64("max-queued-cost", 0, "ceiling on summed optimizer cost estimates of queued jobs; 429 beyond it (0 = off)")
	jobTTL := flag.Duration("job-ttl", defaultJobTTL, "how long finished jobs stay pollable before registry eviction (0 = forever)")
	maxJobs := flag.Int("max-jobs", defaultMaxJobs, "registry size that evicts oldest finished jobs (0 = unbounded)")
	workers := flag.String("workers", "", "comma-separated flowworker addresses for distributed shuffles (empty = single-process)")
	localSlots := flag.Int("local-slots", 0, "shuffle placement slots kept in this process per rotation when -workers is set (0 = all partitions remote)")
	pprofAddr := flag.String("pprof-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = disabled)")
	flag.Parse()

	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))

	var workerAddrs []string
	if *workers != "" {
		for _, a := range strings.Split(*workers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				workerAddrs = append(workerAddrs, a)
			}
		}
	}

	sched := jobs.New(jobs.Config{
		GlobalBudget:     *globalBudget,
		MaxConcurrent:    *maxConcurrent,
		MaxQueue:         *maxQueue,
		DOP:              *dop,
		SpillDir:         *spillDir,
		JobTimeout:       *jobTimeout,
		PlanCacheSize:    *planCache,
		TenantMaxRunning: *tenantMaxRunning,
		TenantMaxQueued:  *tenantMaxQueued,
		TenantBudgetFrac: *tenantBudgetFrac,
		MaxQueuedCost:    *maxQueuedCost,
		Workers:          workerAddrs,
		LocalSlots:       *localSlots,
	})
	srv := newServer(sched)
	srv.jobTTL = *jobTTL
	srv.maxJobs = *maxJobs
	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The profiling surface is opt-in and on its own listener: pprof
	// handlers sit on the DefaultServeMux (via the net/http/pprof import),
	// which the API listener's custom mux never serves.
	if *pprofAddr != "" {
		go func() {
			slog.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				slog.Error("pprof server", "err", err)
			}
		}()
	}

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		slog.Info("draining", "drain_timeout", *drainTimeout)
		srv.draining.Store(true)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := sched.Shutdown(drainCtx); err != nil {
			slog.Warn("drain deadline passed, remaining jobs cancelled", "err", err)
		}
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		httpSrv.Shutdown(shutCtx)
	}()

	slog.Info("listening", "addr", *addr, "budget_bytes", *globalBudget,
		"slots", *maxConcurrent, "queue", *maxQueue, "dop", *dop)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		slog.Error("listener failed", "err", err)
		os.Exit(1)
	}
	// ListenAndServe returns as soon as the listener closes; wait for
	// httpSrv.Shutdown's in-flight-handler grace before exiting, or
	// clients mid-response get their connections reset.
	<-drained
	slog.Info("drained, bye")
}
