package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/transport"
	"blackboxflow/internal/workloads"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// This file holds the harness's suites, one per test, and its rows: job
// documents with what their data fixes about the answer, independent of
// any engine, each built once.

func TestAdmissionControl(t *testing.T)                            { runSuite(t) }
func TestCancelQueuedAndRunning(t *testing.T)                      { runSuite(t) }
func TestDeadline(t *testing.T)                                    { runSuite(t) }
func TestSubmitRefusesUnplannableSpec(t *testing.T)                { runSuite(t) }
func TestQueueFull(t *testing.T)                                   { runSuite(t) }
func TestShutdownDrains(t *testing.T)                              { runSuite(t) }
func TestShutdownTimeoutCancels(t *testing.T)                      { runSuite(t) }
func TestFIFOOrder(t *testing.T)                                   { runSuite(t) }
func TestConcurrentSubmissionsRace(t *testing.T)                   { runSuite(t) }
func TestFaultSchedulerReleasesOnDiskError(t *testing.T)           { runSuite(t) }
func TestFaultTraceAttribution(t *testing.T)                       { runSuite(t) }
func TestChaosSchedulerSingleFaultSweep(t *testing.T)              { runSuite(t) }
func TestSchedulerDistributedJobs(t *testing.T)                    { runSuite(t) }
func TestSchedulerWorkerHealthPlacement(t *testing.T)              { runSuite(t) }
func TestChaosSchedulerWorkerStalledBroadcastTimeout(t *testing.T) { runSuite(t) }
func TestJobTraceLifecycle(t *testing.T)                           { runSuite(t) }
func TestJobTraceCancelledWhileQueued(t *testing.T)                { runSuite(t) }
func TestSchedulerWorkerNetMetrics(t *testing.T)                   { runSuite(t) }
func TestSchedulerWorkerBroadcastTraceSpans(t *testing.T)          { runSuite(t) }
func TestPlanCacheHitsSkipRecompilation(t *testing.T)              { runSuite(t) }
func TestOneDocumentOneCost(t *testing.T)                          { runSuite(t) }
func TestPlanCacheDisabled(t *testing.T)                           { runSuite(t) }
func TestPlanCacheConcurrentReuse(t *testing.T)                    { runSuite(t) }
func TestPlanCacheEvictionUnderConcurrentSubmit(t *testing.T)      { runSuite(t) }
func TestSourceCacheCanary(t *testing.T)                           { runSuite(t) }
func TestSourceCacheHitMissDisabledIdentical(t *testing.T)         { runSuite(t) }
func TestEvictedSourceOutlivesCache(t *testing.T)                  { runSuite(t) }
func TestFinishedJobHoldsNoInputs(t *testing.T)                    { runSuite(t) }
func TestParseScriptJobEndToEnd(t *testing.T)                      { runSuite(t) }
func TestParseScriptJobJoinRemap(t *testing.T)                     { runSuite(t) }
func TestUDFErrorCitesScriptLine(t *testing.T)                     { runSuite(t) }
func TestFloatModuloByFractionFailsJob(t *testing.T)               { runSuite(t) }

var suites = map[string]suite{
	// A global budget sized for three tight grants admits three of nine
	// grouping and join jobs at a time; each spills and returns the answer.
	"TestAdmissionControl": {cells: cells("group-wide#100 group-wide#102 group-wide#104 group-wide#106 group-wide#108 join-wide#201 join-wide#203 join-wide#205 join-wide#207", "budget=tight dop=4"),
		cfg: Config{GlobalBudget: 3 * 64 << 10, MaxConcurrent: 6, MaxQueue: -1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			h.finishAll(t, h.submitAll(t, s, h.cells))
			if m := s.Metrics(); m.PeakGrantedBudget > 3*64<<10 || m.PeakRunning > 3 || m.Succeeded != 9 {
				t.Errorf("peak granted %d of %d, peak running %d of 3, succeeded %d of 9", m.PeakGrantedBudget, 3*64<<10, m.PeakRunning, m.Succeeded)
			}
		}},
	// A queued and a running job are cancelled promptly; the job behind them
	// runs.
	"TestCancelQueuedAndRunning": {cells: cells("spin group#2 group#3", "budget=32768 dop=4"), cfg: Config{GlobalBudget: 32 << 10, MaxConcurrent: 4, MaxQueue: -1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			runs := h.submitAll(t, s, h.cells)
			if st := runs[1].job.State(); st != StateQueued {
				t.Fatalf("second job state = %v, want queued (the budget admits one)", st)
			}
			h.cancel(t, runs[1])
			start := time.Now()
			h.cancel(t, runs[0])
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("running job took %v to cancel", elapsed)
			}
			h.finish(t, runs[2])
			if m := s.Metrics(); m.Cancelled != 2 {
				t.Errorf("cancelled counter = %d, want 2", m.Cancelled)
			}
		}},
	// A job whose deadline expires mid-run fails and frees its grant.
	"TestDeadline": {cells: cells("spin", "dop=4"), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			r := h.submit(t, s, "spin", h.cells[0].path, func(sp *Spec) { sp.Deadline = 2 * time.Millisecond })
			r.state, r.wantErr = StateFailed, "context deadline exceeded"
			h.finish(t, r)
			if m := s.Metrics(); !errors.Is(r.err, context.DeadlineExceeded) || m.Failed != 1 {
				t.Errorf("err %v, %d failed", r.err, m.Failed)
			}
		}},
	// A flow the optimizer cannot plan (no sink) is refused by Submit and
	// takes no job ID.
	"TestSubmitRefusesUnplannableSpec": {cells: cells("group#1", ""), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			f := dataflow.NewFlow()
			f.Source("in", []string{"k", "v"}, dataflow.Hints{Records: 10, AvgWidthBytes: 20})
			j, err := s.Submit(Spec{Name: "sinkless", Flow: f})
			if m := s.Metrics(); j != nil || fmt.Sprint(err) != "jobs: optimize: dataflow: flow has no sink" || m.Submitted+m.Rejected+int64(m.Queued+m.Running) != 0 {
				t.Fatalf("Submit(sinkless flow): job %t, err %v, metrics %+v; want no job, the planning error, no state", j != nil, err, m)
			}
			next := h.submit(t, s, "group#1", h.cells[0].path)
			if next.job.ID != 1 {
				t.Errorf("next job ID = %d, want 1: the refused spec must not take one", next.job.ID)
			}
			h.finish(t, next)
		}},
	// Submissions beyond MaxQueue are refused.
	"TestQueueFull": {cells: cells("spin group#12 group#13", ""), cfg: Config{MaxConcurrent: 1, MaxQueue: 1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			runs := h.submitAll(t, s, h.cells[:2])
			h.refused(t, s, "group#13", h.cells[2].path, ErrQueueFull)
			if m := s.Metrics(); m.Rejected != 1 {
				t.Errorf("rejected counter = %d, want 1", m.Rejected)
			}
			h.cancel(t, runs[0])
			h.finish(t, runs[1])
		}},
	// Shutdown refuses new work but finishes what it accepted.
	"TestShutdownDrains": {cells: cells("group#20 group#21 group#22 group#23 group#24 group#99", ""), cfg: Config{MaxConcurrent: 2},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			runs := h.submitAll(t, s, h.cells[:5])
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, r := range runs { // Shutdown returns once they are done
				if st := r.job.State(); st != StateSucceeded {
					t.Fatalf("%s: state %v when Shutdown returned, want succeeded", r.row.name, st)
				}
			}
			h.finishAll(t, runs)
			h.refused(t, s, "group#99", h.cells[5].path, ErrClosed)
		}},
	// When the drain deadline passes, the remaining jobs are cancelled.
	"TestShutdownTimeoutCancels": {cells: cells("spin group#32", "dop=4"), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			runs := h.submitAll(t, s, h.cells)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
			}
			for _, r := range runs {
				if st := r.job.State(); st != StateCancelled {
					t.Fatalf("%s: state %v when Shutdown returned, want cancelled", r.row.name, st)
				}
				h.end(t, r, StateCancelled)
			}
		}},
	// A single-slot scheduler runs jobs in submission order.
	"TestFIFOOrder": {cells: cells("group#40 group#41 group#42 group#43 group#44 group#45", ""), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			runs := h.submitAll(t, h.sched(t, h.cells[0].path), h.cells)
			h.finishAll(t, runs)
			for i := 1; i < len(runs); i++ {
				if runs[i].job.Started().Before(runs[i-1].job.Finished()) {
					t.Fatalf("job %d started %v before job %d finished %v", i, runs[i].job.Started(), i-1, runs[i-1].job.Finished())
				}
			}
		}},
	// Many goroutines submit at once: under -race, concurrently running jobs
	// share no mutable state, and each job's statistics are its own flow's.
	"TestConcurrentSubmissionsRace": {cells: cells("group#1000 group#1002 group#1004 group#1006 group#1008 group#1010 group#1012 group#1014 group#1016 group#1018 group#1020 group#1022 "+
		"join#2001 join#2003 join#2005 join#2007 join#2009 join#2011 join#2013 join#2015 join#2017 join#2019 join#2021 join#2023", "dop=4"),
		cfg: Config{GlobalBudget: 256 << 10, MaxConcurrent: 4, MaxQueue: -1},
		body: func(t *testing.T, h *harness) {
			for _, r := range h.finishAll(t, h.runConcurrently(t, h.sched(t, h.cells[0].path), len(h.cells), func(i int) cell { return h.cells[i] })) {
				for _, op := range r.stats.PerOp {
					if !strings.Contains(" in L R tally pair out ", " "+op.Name+" ") {
						t.Errorf("job %s: foreign operator %q in stats", r.row.name, op.Name)
					}
				}
			}
		}},
	// A job killed by a disk fault — the per-job spill directory (operation
	// 1) or the first spill file (3) — fails with ENOSPC and releases its
	// grant and slot; the scheduler runs the next job clean.
	"TestFaultSchedulerReleasesOnDiskError": {cells: cells("group-spill", "fault=enospc@1,enospc@3 dop=4"), cfg: Config{MaxConcurrent: 1},
		check: func(t *testing.T, h *harness, r *run) {
			if !errors.Is(r.err, syscall.ENOSPC) {
				t.Fatalf("job error %v does not wrap the injected ENOSPC", r.err)
			}
		}},
	// A failed job's trace is final and attributed to the operators that
	// absorbed the failure: a disk fault, or a UDF error inside a fused Map
	// chain.
	"TestFaultTraceAttribution": {cells: []cell{{"disk fault", "group-spill", at("fault=enospc@3 dop=4")}, {"fused chain UDF error", "fused-chain-error", at("dop=4")}},
		cfg: Config{MaxConcurrent: 1}},
	// Seeded single faults of every kind across the spilling job's
	// filesystem operations: each run fails with the injected fault or
	// returns the answer, and the scheduler runs the next job clean.
	"TestChaosSchedulerSingleFaultSweep": {cells: cells("group-spill", "fault=sweep dop=4"), cfg: Config{MaxConcurrent: 1}, body: chaosSweep},
	// A fleet is calibrated at construction and takes every job's shuffles,
	// all-remote or with a local slot, spilling jobs included.
	"TestSchedulerDistributedJobs": {cells: cells("group-wide#11 join-wide#12 group-wide#13", "budget=tight dop=4 place=remote,mixed"), cfg: Config{MaxConcurrent: 2},
		body: func(t *testing.T, h *harness) {
			for i := range 2 {
				s := h.sched(t, h.cells[i].path)
				if m := s.Metrics(); m.NetBytesPerSec <= 0 {
					t.Fatalf("startup calibration did not measure bandwidth: %+v", m)
				}
				h.finishAll(t, h.submitAll(t, s, []cell{h.cells[i], h.cells[i+2], h.cells[i+4]}))
				if m := s.Metrics(); m.Workers != 2 || m.HealthyWorkers != 2 || m.WorkerFallbacks != 0 {
					t.Errorf("workers=%d healthy=%d fallbacks=%d, want 2/2/0", m.Workers, m.HealthyWorkers, m.WorkerFallbacks)
				}
			}
		}},
	// A dead worker drops out of placement after one TTL; with the whole
	// fleet dead the job falls back to running in process, counted.
	"TestSchedulerWorkerHealthPlacement": {cells: append(cells("group#21", "place=closing dop=4"), cells("group#21", "cache=plan place=closing,dead dop=4")...), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			addrs, workers := startWorkers(t, 2, true)
			s := h.sched(t, h.cells[0].path, func(c *Config) { c.Workers = addrs })
			s.workers.ttl = 50 * time.Millisecond
			for i, c := range h.cells {
				if i > 0 {
					workers[i-1].Close()
					time.Sleep(s.workers.ttl)
				}
				h.finish(t, h.submit(t, s, c.row, c.path))
				if m := s.Metrics(); m.HealthyWorkers != 2-i {
					t.Errorf("with %d workers down: healthy=%d", i, m.HealthyWorkers)
				}
			}
		}},
	// A job whose plan broadcasts to a worker that stops reading is ended by
	// JobTimeout: failed, its grant and slot returned, the error on its root
	// span and on the broadcast.
	"TestChaosSchedulerWorkerStalledBroadcastTimeout": {cells: cells("broadcast-wide", "place=stalled fault=stall budget=tight"),
		cfg: Config{MaxConcurrent: 1, GlobalBudget: 1 << 20, JobTimeout: 500 * time.Millisecond}, body: stalledBroadcast},
	// One document three times: the trace shows each run's phases and what
	// the caches served, and the histograms fill.
	"TestJobTraceLifecycle": {cells: cells("wordcount", "cache=cold,plan,replay"), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			for i, want := range []string{"doc=miss sources=0/1 decoded_bytes=78", "flow-cache hit doc=miss sources=1/1 decoded_bytes=0", "flow-cache hit doc=hit sources=1/1 decoded_bytes=0"} {
				r := h.submit(t, s, "wordcount", h.cells[i].path, tenant("acme"))
				h.finish(t, r)
				tr := r.job.Trace()
				root, opt := tr.Spans()[0], map[bool]string{true: "plans=1 subflows=3 exchanges=0 kept=3", false: "plan-cache hit"}[i == 0]
				if phase(tr, "compile").Detail != want || phase(tr, "optimize").Detail != opt || root.Records == 0 || !strings.Contains(root.Detail, `tenant="acme"`) || !strings.Contains(root.Detail, "succeeded") {
					t.Fatalf("run %d: compile %q, optimize %q, root %d records %q; want %q and %q", i+1, phase(tr, "compile").Detail, phase(tr, "optimize").Detail, root.Records, root.Detail, want, opt)
				}
			}
			m := s.Metrics()
			_, spill := m.Histograms["spill_run_bytes"]
			if _, ping := m.Histograms["worker_ping_seconds"]; !spill || !ping || m.UptimeSec <= 0 || m.Histograms["job_latency_seconds"].Count != 3 || m.Histograms["queue_wait_seconds"].Count != 3 || m.Histograms["shuffle_ship_seconds"].Count == 0 {
				t.Fatalf("uptime %v, histograms %+v", m.UptimeSec, m.Histograms)
			}
		}},
	// A job cancelled before admission ends with its root and queue spans
	// closed and the cancellation on the root.
	"TestJobTraceCancelledWhileQueued": {cells: cells("spin group#8", ""), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			runs := h.submitAll(t, h.sched(t, h.cells[0].path), h.cells)
			h.cancel(t, runs[1])
			h.cancel(t, runs[0])
			if !runs[1].job.Started().IsZero() {
				t.Fatal("the victim was admitted")
			}
		}},
	// A health sweep records each worker's RTT and relay traffic and the
	// ping histogram; the job's trace has per-worker transport spans.
	"TestSchedulerWorkerNetMetrics": {cells: cells("group#11", "cache=cold,plan place=remote dop=4"), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			s.workers.ttl = time.Millisecond // the second dispatch re-pings the fleet
			for _, c := range h.cells {
				h.finish(t, h.submit(t, s, c.row, c.path))
				time.Sleep(2 * time.Millisecond)
			}
			m, frames := s.Metrics(), int64(0)
			for addr, st := range m.WorkerNet {
				if frames += st.Frames; st.RTTSeconds <= 0 {
					t.Fatalf("worker %s RTT %v", addr, st.RTTSeconds)
				}
			}
			if len(m.WorkerNet) != 2 || frames == 0 || m.Histograms["worker_ping_seconds"].Count == 0 {
				t.Fatalf("net stats of %d workers, %d frames, ping count %d", len(m.WorkerNet), frames, m.Histograms["worker_ping_seconds"].Count)
			}
		}},
	// A broadcast edge traces as run → operator → ship → broadcast (bytes
	// and the un-replicated record count) → one transport span per worker.
	"TestSchedulerWorkerBroadcastTraceSpans": {cells: cells("broadcast-join", "place=remote dop=4"), cfg: Config{MaxConcurrent: 1},
		check: func(t *testing.T, h *harness, r *run) {
			tr := r.job.Trace()
			spans, bc, workers := tr.Spans(), obs.Span{}, map[string]bool{}
			for _, sp := range spans {
				if sp.Kind == obs.KindShip && sp.Name == "broadcast" {
					bc = sp
				} else if sp.Kind == obs.KindTransport && bc.ID != 0 && sp.Parent == bc.ID && sp.Bytes > 0 {
					workers[sp.Worker] = true
				}
			}
			ship := spans[bc.Parent]
			if op := spans[ship.Parent]; bc.ID == 0 || ship.Name != "ship" || op.Kind != obs.KindOp || op.Name != "pair" || op.Parent != phase(tr, "run").ID ||
				bc.Records != 500 || bc.Bytes == 0 || bc.Bytes != ship.Bytes || len(workers) != 2 {
				t.Fatalf("broadcast span of %d records / %d bytes under %s %q (%d bytes) under %s %q, transport spans on %d workers; want 500 records and all the bytes under ship under pair under the run phase, 2 workers:\n%s",
					bc.Records, bc.Bytes, ship.Kind, ship.Name, ship.Bytes, op.Kind, op.Name, len(workers), traceJSON(tr))
			}
		}},
	// The second run of a document reuses its compiled flow and its plan.
	"TestPlanCacheHitsSkipRecompilation": {cells: cells("wordcount", "cache=cold,plan"), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			runs := h.finishAll(t, h.submitAll(t, s, h.cells))
			if m := s.Metrics(); runs[0].spec.Flow != runs[1].spec.Flow || m.FlowCacheHits != 1 || m.FlowCacheMisses != 1 || m.PlanCacheHits != 1 || m.PlanCacheMisses != 1 {
				t.Errorf("same flow %v; flow cache hits/misses %d/%d, plan %d/%d, want 1/1 each", runs[0].spec.Flow == runs[1].spec.Flow, m.FlowCacheHits, m.FlowCacheMisses, m.PlanCacheHits, m.PlanCacheMisses)
			}
		}},
	// A job is charged its plan's ranked cost whether Submit planned it or
	// the cache served it. The text-mining document's own operator order
	// ranks far from the best, so a charge of the submitted order would show.
	"TestOneDocumentOneCost": {cells: cells("textmine", "cache=cold,plan dop=4"), cfg: Config{MaxConcurrent: 1, MaxQueuedCost: math.MaxFloat64},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			runs := h.finishAll(t, h.submitAll(t, s, h.cells))
			ranked, err := optimizer.Plan(runs[0].spec.Flow, 4, 0, optimizer.NetProfile{})
			if err != nil {
				t.Fatal(err)
			}
			if m, c0, c1 := s.Metrics(), runs[0].job.CostEstimate(), runs[1].job.CostEstimate(); m.PlanCacheMisses != 1 || m.PlanCacheHits != 1 || c0 != c1 || c0 != ranked[0].Cost {
				t.Fatalf("plan cache %d/%d; miss charged %g, hit %g; the best ranked plan costs %g", m.PlanCacheHits, m.PlanCacheMisses, c0, c1, ranked[0].Cost)
			}
		}},
	// PlanCacheSize -1 turns the caches off: no plan key, no counter moves.
	"TestPlanCacheDisabled": {cells: cells("wordcount", "cache=off"), cfg: Config{MaxConcurrent: 1},
		check: func(t *testing.T, h *harness, r *run) {
			if m := r.s.Metrics(); m.FlowCacheHits+m.FlowCacheMisses+m.PlanCacheHits+m.PlanCacheMisses+m.SourceCacheHits+m.SourceCacheMisses != 0 {
				t.Errorf("cache counters moved with caching disabled: %+v", m)
			}
		}},
	// 40 runs of one document from eight goroutines share one compiled flow,
	// one plan, one decoded source and one copy of the document.
	"TestPlanCacheConcurrentReuse": {cells: cells("wordcount", "cache=shared"), cfg: Config{MaxConcurrent: 4},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			h.finishAll(t, h.runConcurrently(t, s, 40, func(int) cell { return h.cells[0] }))
			// Racing first parses may each decode the source, but converge on
			// one cached instance; every parse hit or missed once.
			if m, c := s.Metrics(), s.planCache; m.FlowCacheMisses+m.PlanCacheMisses < 1 || m.FlowCacheHits == 0 || m.PlanCacheHits == 0 || m.SourceCacheEntries != 1 || m.SourceCacheHits == 0 ||
				m.SourceCacheHits+m.SourceCacheMisses != 40 || c.docs.len() != 1 || c.docBytes != int64(len(wordcountDoc)) {
				t.Errorf("40 identical submissions: %+v; %d document copies of %d bytes", m, c.docs.len(), c.docBytes)
			}
		}},
	// Five documents through a two-entry plan cache from eight goroutines,
	// two at a time on each: compilation, population and eviction race live
	// submissions.
	"TestPlanCacheEvictionUnderConcurrentSubmit": {cells: cells("wordcount wordcount-k#4 wordcount-k#5 wordcount-k#6 wordcount-k#7", "cache=shared"), cfg: Config{MaxConcurrent: 4, PlanCacheSize: 2},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			h.finishAll(t, h.runConcurrently(t, s, 48, func(i int) cell { return h.cells[(i%8/2+i/8)%5] }))
			// The five documents carry the same rows: one source entry, never
			// evicted, while evictions force recompiles.
			if m := s.Metrics(); m.FlowCacheMisses <= 5 || m.FlowCacheHits == 0 || m.SourceCacheEntries != 1 || m.SourceCacheEvictions != 0 || m.SourceCacheHits == 0 {
				t.Errorf("flow cache misses %d (want > 5), hits %d; source cache %d entries, %d evictions, %d hits", m.FlowCacheMisses, m.FlowCacheHits, m.SourceCacheEntries, m.SourceCacheEvictions, m.SourceCacheHits)
			}
		}},
	// Each workload runs 50 times, eight at a time, over one cached instance
	// of its sources; afterwards the cached rows still equal a fresh decode
	// bit for bit (under -race, a write into a shared record is reported),
	// and the racing second sightings left one copy of the document.
	"TestSourceCacheCanary": {cells: cells("q7 clicks textmine", "cache=cold,shared"), cfg: Config{MaxConcurrent: 4}, body: sourceCanary},
	// Every workload on every cache state, DOP and budget returns the answer.
	"TestSourceCacheHitMissDisabledIdentical": {cells: cells("q7 clicks textmine", "cache=cold,source,plan,replay,off budget=doc,tight dop=1,2,8,17"), cfg: Config{MaxConcurrent: 1}},
	// A job holds its sources by reference: evicting them mid-flight breaks
	// nothing, and the next parse decodes them again.
	"TestEvictedSourceOutlivesCache": {cells: cells("clicks", "cache=cold,plan"), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			s := h.sched(t, h.cells[0].path)
			h.finish(t, h.submit(t, s, "clicks", h.cells[0].path))
			h.finish(t, h.submit(t, s, "clicks", h.cells[1].path, func(*Spec) { evict(s.planCache, s.planCache.sources, -1) }))
			// The memo points at sources that are gone: the replay falls
			// through to a full parse.
			again := h.submit(t, s, "clicks", h.cells[1].path)
			h.finish(t, again)
			if m := s.Metrics(); !strings.Contains(again.spec.Compile.Detail, "doc=miss sources=0/3") || m.SourceCacheEvictions != 3 || m.SourceCacheEntries != 3 {
				t.Errorf("parse after eviction: %s; %d evictions, %d entries, want 3 and 3", again.spec.Compile.Detail, m.SourceCacheEvictions, m.SourceCacheEntries)
			}
		}},
	// However a job ends, it lets go of its source data, and what it is
	// still asked for keeps working.
	"TestFinishedJobHoldsNoInputs": {cells: cells("spin group#8 fused-chain-error group-wide#7", ""), cfg: Config{MaxConcurrent: 1},
		body: func(t *testing.T, h *harness) {
			runs := h.submitAll(t, h.sched(t, h.cells[0].path), h.cells)
			h.cancel(t, runs[1]) // while queued
			h.cancel(t, runs[0]) // while running
			h.finishAll(t, runs[2:])
			for _, r := range runs {
				if r.job.spec.Sources != nil || r.job.Name() == "" || r.job.spec.Flow == nil {
					t.Errorf("%s: still holds its sources, or finish dropped more", r.row.name)
				}
			}
			if out, stats, err := runs[3].job.Result(); err != nil || len(out) == 0 || stats == nil || runs[3].job.Trace() == nil {
				t.Errorf("result of a finished job: %d rows, stats %v, err %v", len(out), stats, err)
			}
		}},
	"TestParseScriptJobEndToEnd": {cells: cells("wordcount", ""), cfg: Config{MaxConcurrent: 1},
		check: func(t *testing.T, h *harness, r *run) {
			if r.spec.Name != "wordcount" || r.stats.TotalUDFCalls() == 0 {
				t.Errorf("name %q, %d UDF calls", r.spec.Name, r.stats.TotalUDFCalls())
			}
		}},
	// Per-source rows land at the flow's global attribute positions: R's at
	// 2 and 3, null-padded, without the submitter padding anything.
	"TestParseScriptJobJoinRemap": {cells: cells("join", ""), cfg: Config{MaxConcurrent: 1},
		check: func(t *testing.T, h *harness, r *run) {
			if rds := r.spec.Sources["R"]; len(rds) != 2 || rds[0].Field(2).AsInt() != 2 || !rds[0].Field(0).IsNull() {
				t.Errorf("R = %v, want 2 records with field 2 = 2 and null padding", rds)
			}
		}},
	// A UDF's run-time error names the function and its PactScript line.
	"TestUDFErrorCitesScriptLine": {cells: cells("udf-error", "dop=1"), cfg: Config{MaxConcurrent: 1}},
	// A float modulo by a fraction fails the one job, attributed to its
	// operator, and the scheduler runs the next.
	"TestFloatModuloByFractionFailsJob": {cells: cells("float-modulo", ""), cfg: Config{MaxConcurrent: 1}},
}

// submitAll submits the cells to s in order.
func (h *harness) submitAll(t *testing.T, s *Scheduler, cells []cell) []*run {
	runs := make([]*run, len(cells))
	for i, c := range cells {
		runs[i] = h.submit(t, s, c.row, c.path)
	}
	return runs
}

// finishAll finishes the runs in order.
func (h *harness) finishAll(t *testing.T, runs []*run) []*run {
	for _, r := range runs {
		h.finish(t, r)
	}
	return runs
}

// cancel cancels r and checks that it ends cancelled.
func (h *harness) cancel(t *testing.T, r *run) {
	t.Helper()
	r.job.Cancel()
	h.end(t, r, StateCancelled)
}

// end waits for r and checks it ended in state, whatever the caches
// served it.
func (h *harness) end(t *testing.T, r *run, state State) {
	t.Helper()
	r.state, r.wantErr, r.cache = state, "jobs: job cancelled", "shared"
	h.finish(t, r)
}

// runConcurrently runs n submissions from eight goroutines, each waiting
// for a job before it submits its next: goroutine g submits the i-th, of
// cell pick(i), for i = g, g+8, …. It returns them once all are done.
func (h *harness) runConcurrently(t *testing.T, s *Scheduler, n int, pick func(i int) cell) []*run {
	t.Helper()
	for i := range n { // build the rows here: a goroutine must not fail the test
		getRow(t, pick(i).row)
	}
	runs, errs := make([]*run, n), make([]error, n)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				if runs[i], errs[i] = h.start(t, s, pick(i).row, pick(i).path, false); errs[i] != nil {
					return
				}
				runs[i].job.Wait(context.Background())
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return runs
}

// chaosSweep sweeps seeded single faults of every kind across the spilling
// row's filesystem operations, counted by a first run.
func chaosSweep(t *testing.T, h *harness) {
	if testing.Short() {
		t.Skip("chaos sweep is not a -short test")
	}
	c, seed := h.cells[0], chaosSeed(t)
	counter := faultfs.NewInjector(faultfs.OS{}, 0, faultfs.ENOSPC)
	base := h.submit(t, h.sched(t, c.path, func(cfg *Config) { cfg.FS = counter }), c.row, c.path)
	h.finish(t, base)
	nOps := counter.Ops()
	if base.stats.TotalSpillRuns() == 0 || nOps < 3 {
		t.Fatalf("the counting run wrote %d spill runs in %d filesystem operations: the sweep would exercise nothing", base.stats.TotalSpillRuns(), nOps)
	}
	stride := max(nOps/12, 1)
	failed := 0
	for _, kind := range []faultfs.Kind{faultfs.ENOSPC, faultfs.ShortWrite, faultfs.ReadErr, faultfs.Latency} {
		for at := 1 + seed%stride; at <= nOps; at += stride {
			inj := faultfs.NewInjector(faultfs.OS{}, at, kind)
			inj.Delay = time.Millisecond
			s := h.sched(t, c.path, func(cfg *Config) { cfg.FS = inj })
			// The next job runs clean. Op counts vary run to run, so the fault
			// may arm during the first job and land on the next: that one obeys
			// the same rules, and the one after it is clean.
			for i, cache := range []string{"cold", "plan", "plan"} {
				r := h.aux(t, s, c.row, c.path, cache)
				h.finish(t, r)
				h.drained(t, s)
				if r.err != nil {
					if !inj.Fired() || kind == faultfs.Latency || i == 2 {
						t.Fatalf("kind=%v at=%d run %d: %v (fired %v)", kind, at, i, r.err, inj.Fired())
					}
					failed++
				} else if i > 0 {
					break
				}
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no fault in the sweep failed a job: the injector does not reach the spill path")
	}
}

// stalledBroadcast runs the broadcast row against a worker that stalls.
func stalledBroadcast(t *testing.T, h *harness) {
	addr, stalled, stop := startStallingWorker(t)
	defer stop()
	c := h.cells[0]
	s := h.sched(t, c.path, func(cfg *Config) { cfg.Workers = []string{addr} })
	r := h.submit(t, s, c.row, c.path)
	r.state, r.wantErr = StateFailed, "context deadline exceeded"
	h.finish(t, r)
	select {
	case <-stalled:
	default:
		t.Fatal("no shuffle connection reached the stalling worker: the job did not run distributed")
	}
	if m := s.Metrics(); !errors.Is(r.err, context.DeadlineExceeded) || m.GrantedBudget != 0 || m.Running != 0 || m.Failed != 1 {
		t.Fatalf("err %v; granted=%d running=%d failed=%d, want 0/0/1", r.err, m.GrantedBudget, m.Running, m.Failed)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// startStallingWorker fronts a worker with a proxy that relays control
// connections (health pings, calibration) and turns every shuffle
// connection into one that stalls: it reads the handshake and the first
// byte of the first frame, signals stalled, and holds the connection
// unread until stop.
func startStallingWorker(t *testing.T) (addr string, stalled <-chan struct{}, stop func()) {
	w := transport.NewWorker(must(net.Listen("tcp", "127.0.0.1:0")))
	go w.Serve()
	ln, signal, quit := must(net.Listen("tcp", "127.0.0.1:0")), make(chan struct{}, 1), make(chan struct{})
	relay := func(c net.Conn) {
		defer c.Close()
		var head [7]byte // the 6-byte handshake, then a frame's first byte
		if _, err := io.ReadFull(c, head[:6]); err != nil {
			return
		}
		if head[5] == 1 { // a shuffle connection
			if _, err := io.ReadFull(c, head[6:]); err == nil {
				select {
				case signal <- struct{}{}:
				default:
				}
			}
			<-quit
			return
		}
		up, err := net.Dial("tcp", w.Addr())
		if err != nil {
			return
		}
		up.Write(head[:6])
		go func() { io.Copy(up, c); up.Close() }()
		io.Copy(c, up)
		up.Close()
	}
	go func() {
		for c, err := ln.Accept(); err == nil; c, err = ln.Accept() {
			go relay(c)
		}
	}()
	stop = sync.OnceFunc(func() {
		close(quit)
		ln.Close()
		w.Close()
	})
	t.Cleanup(stop)
	return ln.Addr().String(), signal, stop
}

// sourceCanary runs each workload cold, then by fifty racing parses, in a
// subtest of its own.
func sourceCanary(t *testing.T, h *harness) {
	for i := 0; i < len(h.cells); i += 2 {
		cold, race := h.cells[i], h.cells[i+1]
		t.Run(cold.row, func(t *testing.T) {
			s := h.sched(t, cold.path)
			first := h.submit(t, s, cold.row, cold.path)
			h.finish(t, first)
			for _, r := range h.runConcurrently(t, s, 50, func(int) cell { return race }) {
				for src, ds := range r.spec.Sources {
					if len(ds) > 0 && &ds[0][0] != &first.spec.Sources[src][0][0] {
						t.Errorf("source %q was decoded again instead of shared", src)
					}
				}
				h.finish(t, r)
			}
			fresh, err := ParseScriptJob(first.row.doc)
			if err != nil {
				t.Fatal(err)
			}
			for src, ds := range fresh.Sources {
				if !slices.EqualFunc(encoded(first.spec.Sources[src]), encoded(ds), bytes.Equal) {
					t.Errorf("cached source %q no longer equals a fresh decode: a job wrote into shared rows", src)
				}
			}
			n := int64(len(fresh.Sources))
			if m := s.Metrics(); m.SourceCacheMisses != n || m.SourceCacheHits != 50*n || s.planCache.docs.len() != 1 {
				t.Errorf("source cache hits/misses = %d/%d, want %d/%d; %d document copies, want 1", m.SourceCacheHits, m.SourceCacheMisses, 50*n, n, s.planCache.docs.len())
			}
		})
	}
}

const wordcountDoc = `{
  "name": "wordcount",
  "script": "reduce count(g) { first := g.at(0) out := copy(first) out[1] = count(g, 0) emit out }",
  "flow": {"sources": [{"name": "words", "attrs": ["word", "n"]}], "ops": [{"kind": "reduce", "udf": "count", "inputs": ["words"], "keys": [["word"]], "key_cardinality": 3}], "sink": "count"},
  "data": {"words": [["a", null], ["b", null], ["a", null], ["c", null], ["a", null], ["b", null]]}
}`

const joinDoc = `{
  "script": "binary pair(l, r) { out := concat(l, r) emit out }",
  "flow": {"sources": [{"name": "L", "attrs": ["lk", "lv"]}, {"name": "R", "attrs": ["rk", "rv"]}],
    "ops": [{"kind": "match", "udf": "pair", "inputs": ["L", "R"], "keys": [["lk"], ["rk"]], "key_cardinality": 2}], "sink": "pair"},
  "data": {"L": [[1, 10], [2, 20]], "R": [[2, 200], [3, 300]]}
}`

// row is one job document. A row that must not succeed names its terminal
// state and error; a successful run must return the oracle's bag and pass
// answer, what the row's data fixes.
type row struct {
	name  string
	doc   []byte
	tight int  // the grant of the path's "tight" budget
	spill bool // every run under the tight grant spills
	// state and err are the terminal state (StateSucceeded if left zero)
	// and the exact error a run ends with; ops are the spans a failure is
	// attributed to.
	state State
	err   string
	ops   []string
	// answer checks a result against what the data fixes ("" if it holds).
	answer func(out record.DataSet) string

	once   sync.Once
	want   []byte // the oracle's canonical bytes
	oracle error
}

var (
	rowsMu sync.Mutex
	built  = map[string]*row{}
)

// getRow returns the named row, building it on first use.
func getRow(tb testing.TB, name string) *row {
	rowsMu.Lock()
	defer rowsMu.Unlock()
	if r, ok := built[name]; ok {
		return r
	}
	_, seed, _ := strings.Cut(name, "#")
	mk, ok := rowDefs[strings.TrimSuffix(name, seed)]
	if !ok {
		tb.Fatalf("no row named %s", name)
	}
	n, _ := strconv.ParseInt(seed, 10, 64)
	r := mk(tb, n)
	r.name = name
	if r.state == 0 {
		r.state = StateSucceeded
	}
	built[name] = r
	return r
}

// The rows. A name ending in '#' is a family: "group#7" is its row drawn
// from seed 7.
var rowDefs = map[string]func(tb testing.TB, seed int64) *row{
	"wordcount": func(testing.TB, int64) *row { return &row{doc: []byte(wordcountDoc), answer: wordcounts} },
	// The same document under the key-cardinality hints 4 to 7: each is its
	// own flow, plan and memo entry over the same rows.
	"wordcount-k#": func(_ testing.TB, seed int64) *row {
		doc := strings.Replace(wordcountDoc, `"key_cardinality": 3`, fmt.Sprintf(`"key_cardinality": %d`, seed), 1)
		return &row{doc: []byte(doc), answer: wordcounts}
	},
	"join": func(testing.TB, int64) *row {
		return &row{doc: []byte(joinDoc), answer: func(out record.DataSet) string {
			if len(out) != 1 || out[0].Field(0).AsInt() != 2 || out[0].Field(1).AsInt() != 20 || out[0].Field(2).AsInt() != 2 || out[0].Field(3).AsInt() != 200 {
				return fmt.Sprintf("join output %v, want [2 20 2 200]", out)
			}
			return ""
		}}
	},
	// Grouping and join traffic of a few thousand records: distinct data per
	// seed, and under the 64 KiB tight grant every run spills.
	"group#": func(_ testing.TB, seed int64) *row { return groupRow(seed, 1000, 200, 0) },
	"group-wide#": func(_ testing.TB, seed int64) *row {
		r := groupRow(seed, 6000, 4000, 0)
		r.tight, r.spill = 64<<10, true
		return r
	},
	"join#": func(_ testing.TB, seed int64) *row { return joinRow(seed, 1500, 500) },
	"join-wide#": func(_ testing.TB, seed int64) *row {
		r := joinRow(seed, 3000, 2000)
		r.tight, r.spill = 64<<10, true
		return r
	},
	// A document that asks for a grant of a few dozen bytes per partition:
	// the chaos rows' fault surface.
	"group-spill": func(testing.TB, int64) *row {
		r := groupRow(42, 6000, 300, 96*4)
		r.spill, r.tight, r.ops = true, 96*4, []string{"tally"}
		return r
	},
	// The second of two Maps divides by zero on its first record; the
	// optimizer fuses it into the Reduce's shuffle senders.
	"fused-chain-error": func(testing.TB, int64) *row {
		r := groupRow(3, 2000, 50, 0, func(doc *ScriptJob) {
			doc.Script += " map pass(ir) { emit ir } map boom(ir) { v := ir[1] x := v / 0 emit ir }"
			doc.Flow.Ops = append([]OpDef{{Kind: "map", UDF: "pass", Inputs: []string{"in"}}, {Kind: "map", UDF: "boom", Inputs: []string{"pass"}}}, doc.Flow.Ops...)
			doc.Flow.Ops[2].Inputs = []string{"boom"}
		})
		r.state, r.err, r.ops = StateFailed, "engine: boom: tac: boom line 2: integer division by zero", []string{"boom", "tally"}
		return r
	},
	// A Cross of 4,000 × 4,000 records whose UDF emits nothing: seconds of
	// CPU from a tiny document, cancellable every few hundred calls, and
	// hinted at 400,000 records a side, so its estimated cost is huge. It is
	// the blocker of the admission rows, which cancel it.
	"spin": func(testing.TB, int64) *row {
		ones := slices.Repeat([]Row{{1, 1}}, 4000)
		return &row{doc: marshal(&ScriptJob{Name: "spin", Script: "binary never(l, r) { if l[0] < 0 { emit l } }",
			Flow: FlowDef{Sources: []SourceDef{{Name: "L", Attrs: []string{"a", "b"}, Records: 4e5}, {Name: "R", Attrs: []string{"c", "d"}, Records: 4e5}},
				Ops: []OpDef{{Kind: "cross", UDF: "never", Inputs: []string{"L", "R"}}}, Sink: "never"},
			Data: map[string][]Row{"L": ones, "R": ones}}), state: StateCancelled, err: "jobs: job cancelled"}
	},
	// A Match whose hints call L tiny beside R, so the plan broadcasts L.
	"broadcast-join": func(testing.TB, int64) *row { return broadcastRow(500, 2000) },
	"broadcast-wide": func(testing.TB, int64) *row { return broadcastRow(100000, 200, "broadcast") },
	"udf-error": func(testing.TB, int64) *row {
		return &row{doc: []byte(`{"script": "reduce last(g) {\n\tn := g.size()\n\tr := g.at(n)\n\temit r\n}",
	  "flow": {"sources": [{"name": "s", "attrs": ["k"]}], "ops": [{"kind": "reduce", "udf": "last", "inputs": ["s"], "keys": [["k"]]}], "sink": "last"},
	  "data": {"s": [[1]]}}`), state: StateFailed, err: "engine: last: tac: last line 3: groupget index 1 out of range [0,1)", ops: []string{"last"}}
	},
	// `% 0.5` truncates the divisor to zero: that used to panic a worker.
	"float-modulo": func(testing.TB, int64) *row {
		return &row{doc: []byte(`{"script": "map half(ir) { out := copy(ir) out[1] = ir[0] % 0.5 emit out }",
  "flow": {"sources": [{"name": "xs", "attrs": ["x", "y"]}], "ops": [{"kind": "map", "name": "halve", "udf": "half", "inputs": ["xs"]}], "sink": "halve"},
  "data": {"xs": [[3.5, null], [1.25, null]]}}`), state: StateFailed, err: "engine: halve: tac: half line 1: float modulo by zero", ops: []string{"halve"}}
	},
	// The benchmark's workload shapes at toy size.
	"q7": func(tb testing.TB, _ int64) *row {
		return &row{doc: q7Doc(tb, 0.1, tpch.Q7DateHi, 0), tight: 256 << 10}
	},
	"clicks":   func(tb testing.TB, _ int64) *row { return &row{doc: clicksDoc(tb, 200, 24), tight: 256 << 10} },
	"textmine": func(tb testing.TB, _ int64) *row { return &row{doc: textmineDoc(tb, 60), tight: 256 << 10} },
}

// wordcounts holds wordcountDoc's answer: a 3, b 2, c 1.
func wordcounts(out record.DataSet) string {
	got := map[string]int64{}
	for _, rec := range out {
		got[rec.Field(0).AsString()] = rec.Field(1).AsInt()
	}
	if len(out) != 3 || got["a"] != 3 || got["b"] != 2 || got["c"] != 1 {
		return fmt.Sprintf("counts %v, want a 3, b 2, c 1", got)
	}
	return ""
}

// nrec checks a result's record count.
func nrec(n int) func(record.DataSet) string {
	return func(out record.DataSet) string {
		if len(out) != n {
			return fmt.Sprintf("%d records, want %d", len(out), n)
		}
		return ""
	}
}

func marshal(doc *ScriptJob) []byte { return must(json.Marshal(doc)) }

const tallyScript = "reduce tally(g) { r := g.at(0) s := sum(g, 1) out := copy(r) out[1] = s emit out }"

// groupRow tallies n seeded (k, v) records over keyCard keys; budget is the
// grant the document asks for. The seed is a comment in the script, so rows
// of one shape share no compiled flow.
func groupRow(seed int64, n, keyCard, budget int, adjust ...func(*ScriptJob)) *row {
	rng := rand.New(rand.NewSource(seed))
	rows, keys := make([]Row, n), map[int64]bool{}
	for i := range rows {
		k := int64(rng.Intn(keyCard))
		keys[k] = true
		rows[i] = Row{k, int64(rng.Intn(1000))}
	}
	doc := &ScriptJob{Name: fmt.Sprintf("group-%d", seed), Script: fmt.Sprintf("# seed %d\n%s", seed, tallyScript), MemoryBudgetBytes: budget,
		Flow: FlowDef{Sources: []SourceDef{{Name: "in", Attrs: []string{"k", "v"}}},
			Ops: []OpDef{{Kind: "reduce", UDF: "tally", Inputs: []string{"in"}, Keys: [][]string{{"k"}}, KeyCardinality: float64(keyCard)}}, Sink: "tally"},
		Data: map[string][]Row{"in": rows}}
	for _, f := range adjust {
		f(doc)
	}
	return &row{doc: marshal(doc), answer: nrec(len(keys))}
}

// joinRow matches two seeded inputs on their first field. Payloads are
// key-determined, so every run of the join is one bag.
func joinRow(seed int64, n, keyCard int) *row {
	rng := rand.New(rand.NewSource(seed))
	side := func(count map[int64]int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			k := int64(rng.Intn(keyCard))
			count[k]++
			rows[i] = Row{k, k*31 + seed%97}
		}
		return rows
	}
	lc, rc := map[int64]int{}, map[int64]int{}
	l, r := side(lc), side(rc)
	pairs := 0
	for k, c := range lc {
		pairs += c * rc[k]
	}
	return pairRow(fmt.Sprintf("# seed %d", seed), SourceDef{Name: "L", Attrs: []string{"lk", "lv"}}, l, SourceDef{Name: "R", Attrs: []string{"rk", "rv"}}, r, keyCard, pairs)
}

// broadcastRow is a join of lN and rN records over 20 keys whose hints call
// L tiny next to R; a failure is attributed to ops.
func broadcastRow(lN, rN int, ops ...string) *row {
	side := func(n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{int64(i % 20), int64(i)}
		}
		return rows
	}
	r := pairRow("", SourceDef{Name: "L", Attrs: []string{"lk", "lv"}, Records: 20}, side(lN),
		SourceDef{Name: "R", Attrs: []string{"rk", "rv"}, Records: 1e6}, side(rN), 20, (lN/20)*(rN/20)*20)
	r.tight, r.ops = 64<<10, ops
	return r
}

func pairRow(comment string, l SourceDef, lrows []Row, r SourceDef, rrows []Row, keyCard, pairs int) *row {
	return &row{doc: marshal(&ScriptJob{Script: comment + "\nbinary pair(l, r) { out := concat(l, r) emit out }",
		Flow: FlowDef{Sources: []SourceDef{l, r}, Ops: []OpDef{{Kind: "match", UDF: "pair", Inputs: []string{"L", "R"},
			Keys: [][]string{{"lk"}, {"rk"}}, KeyCardinality: float64(keyCard)}}, Sink: "pair"},
		Data: map[string][]Row{"L": lrows, "R": rrows}}), answer: nrec(pairs)}
}

// wordsDoc is the wordcount document over the given words, one row each.
func wordsDoc(words []string) []byte {
	rows := make([]string, len(words))
	for i, w := range words {
		rows[i] = fmt.Sprintf("[%q, null]", w)
	}
	return []byte(strings.Replace(wordcountDoc,
		`[["a", null], ["b", null], ["a", null], ["c", null], ["a", null], ["b", null]]`,
		"["+strings.Join(rows, ", ")+"]", 1))
}

// workloadDoc is def with the rows gen lays out on def's flow, each
// projected onto its source's own attribute order.
func workloadDoc(tb testing.TB, name string, def *workloads.Def, gen func(*dataflow.Flow) map[string]record.DataSet) *ScriptJob {
	tb.Helper()
	f, err := def.Build(workloads.ModeSCA, nil)
	if err != nil {
		tb.Fatal(err)
	}
	data := gen(f)
	rows := make(map[string][]Row, len(def.Flow.Sources))
	for _, src := range def.Flow.Sources {
		idx := make([]int, len(src.Attrs))
		for i, a := range src.Attrs {
			idx[i] = f.Attr(a)
		}
		rows[src.Name] = make([]Row, len(data[src.Name]))
		for r, rec := range data[src.Name] {
			rows[src.Name][r] = EncodeRow(rec.Project(idx))
		}
	}
	return &ScriptJob{Name: name, Script: def.Script, Flow: def.Flow, Data: rows}
}

// q7Doc is TPC-H Q7 at scale factor sf. dateHi is the shipdate window's
// upper bound; varying it changes the script (and the answer) but not a
// byte of the data — the q7.coldplan shape.
func q7Doc(tb testing.TB, sf float64, dateHi int64, budget int) []byte {
	tb.Helper()
	g := &tpch.GenParams{SF: sf, Seed: 1}
	def := tpch.Q7(g)
	bound := fmt.Sprintf("d <= %d", tpch.Q7DateHi)
	if strings.Count(def.Script, bound) != 1 {
		tb.Fatalf("the Q7 script does not hold %q exactly once", bound)
	}
	def.Script = strings.Replace(def.Script, bound, fmt.Sprintf("d <= %d", dateHi), 1)
	// The benchmark's Q7 traffic declares a combiner on the final sum, so
	// its shuffle ships partial sums. The paper's Figure 2 flow has none
	// (Table 1 counts its plans without one), so it is added here.
	def.Script += fmt.Sprintf("\nreduce partialVolume(g) { first := g.at(0) out := copy(first) out[%[1]d] = sum(g, %[1]d) emit out }\n",
		workloads.Layout(&def.Flow)["l_revenue"])
	def.Flow.Ops[len(def.Flow.Ops)-1].Combiner = "partialVolume"
	doc := workloadDoc(tb, "q7", def, g.Generate)
	doc.MemoryBudgetBytes = budget
	return marshal(doc)
}

// clicksDoc is the clickstream task: two session Reduces and two Matches.
func clicksDoc(tb testing.TB, sessions, users int) []byte {
	g := &clickstream.GenParams{Sessions: sessions, ClicksPerSess: 12, BuyRate: 0.10, LoginRate: 0.30, Users: users, Seed: 1}
	return marshal(workloadDoc(tb, "clicks", clickstream.Def(g), g.Generate))
}

// textmineDoc is the Map-only text-mining pipeline over docs documents.
func textmineDoc(tb testing.TB, docs int) []byte {
	g := textmine.DefaultGen()
	g.Docs, g.Seed = docs, 1
	return marshal(workloadDoc(tb, "textmine", textmine.Def(g), g.Generate))
}
