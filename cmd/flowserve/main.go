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
//	GET  /metrics          scheduler metrics and the collector's readings
//	                       (GC CPU, cycles, GOGC, heap goal and live heap):
//	                       JSON by default, ?format=prom for Prometheus
//	                       text exposition
//	GET  /healthz          liveness (503 while draining)
//
// The budget also paces the garbage collector: after each cycle the next
// heap goal leaves one default grant (GlobalBudget/MaxConcurrent) of
// growth above the live heap, until the live heap is that large; an
// explicit GOGC or GOMEMLIMIT in the environment turns this off.
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
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is flowserve on the given arguments: it returns the exit status — 0
// after a graceful drain, 1 when the listener fails, 2 when an argument is
// not a flag: the flag package stops at the first one, so a flag after it
// would be dropped silently.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowserve", flag.ExitOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	globalBudget := fs.Int("global-budget", 64<<20, "shared memory budget in bytes for all running jobs (0 = ungoverned)")
	maxConcurrent := fs.Int("max-concurrent", 4, "jobs running at once")
	maxQueue := fs.Int("max-queue", 128, "pending-queue depth before submissions are rejected (negative = unbounded)")
	dop := fs.Int("dop", 4, "default degree of parallelism per job")
	spillDir := fs.String("spill-dir", "", "parent directory for per-job spill directories (default: OS temp)")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-job deadline, e.g. 30s (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for accepted jobs before cancelling them")
	planCache := fs.Int("plan-cache", 256, "plan-cache entries per level: compiled flows and optimized plans (negative = disabled)")
	tenantMaxRunning := fs.Int("tenant-max-running", 0, "per-tenant cap on concurrently running jobs (0 = none)")
	tenantMaxQueued := fs.Int("tenant-max-queued", 0, "per-tenant cap on queued jobs; 429 beyond it (0 = none)")
	tenantBudgetFrac := fs.Float64("tenant-budget-frac", 0, "fraction of the global budget one tenant's running jobs may hold, e.g. 0.5 (0 = none)")
	maxQueuedCost := fs.Float64("max-queued-cost", 0, "ceiling on summed optimizer cost estimates of queued jobs; 429 beyond it (0 = off)")
	jobTTL := fs.Duration("job-ttl", defaultJobTTL, "how long finished jobs stay pollable before registry eviction (0 = forever)")
	maxJobs := fs.Int("max-jobs", defaultMaxJobs, "registry size that evicts oldest finished jobs (0 = unbounded)")
	workers := fs.String("workers", "", "comma-separated flowworker addresses for distributed shuffles (empty = single-process)")
	localSlots := fs.Int("local-slots", 0, "shuffle placement slots kept in this process per rotation when -workers is set (0 = all partitions remote)")
	pprofAddr := fs.String("pprof-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = disabled)")

	fs.Parse(args) // a bad flag exits 2, -h exits 0
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "flowserve: unexpected argument %q; every option is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	slog.SetDefault(slog.New(slog.NewTextHandler(stderr, nil)))

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
	headroom, stopPacer := paceGC(sched.DefaultGrant(), os.LookupEnv)
	defer stopPacer()
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

	cfg := sched.Config()
	slog.Info("listening", "addr", *addr, "budget_bytes", cfg.GlobalBudget,
		"slots", cfg.MaxConcurrent, "queue", cfg.MaxQueue, "dop", cfg.DOP,
		"gc_headroom_bytes", headroom)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		slog.Error("listener failed", "err", err)
		return 1
	}
	// ListenAndServe returns as soon as the listener closes; wait for
	// httpSrv.Shutdown's in-flight-handler grace before exiting, or
	// clients mid-response get their connections reset.
	<-drained
	slog.Info("drained, bye")
	return 0
}
