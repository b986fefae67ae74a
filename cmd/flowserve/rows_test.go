package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"blackboxflow/internal/jobs"
	"blackboxflow/internal/obs"
)

// This file holds the harness's suites, one per test, and its rows: job
// documents with the status they answer and what their data fixes.

func TestSubmitPollResult(t *testing.T)               { runSuite(t) }
func TestSubmitErrors(t *testing.T)                   { runSuite(t) }
func TestCancelEndpoint(t *testing.T)                 { runSuite(t) }
func TestSubmitWait(t *testing.T)                     { runSuite(t) }
func TestSubmitWaitDisconnectCancels(t *testing.T)    { runSuite(t) }
func TestGracefulDrain(t *testing.T)                  { runSuite(t) }
func TestWaitParamBoolean(t *testing.T)               { runSuite(t) }
func TestResultStreamingMatchesBuffered(t *testing.T) { runSuite(t) }
func TestResultNonFiniteFloats(t *testing.T)          { runSuite(t) }
func TestTenantQuota429(t *testing.T)                 { runSuite(t) }
func TestBackpressure429(t *testing.T)                { runSuite(t) }
func TestTraceEndpoint(t *testing.T)                  { runSuite(t) }
func TestResultStatsParam(t *testing.T)               { runSuite(t) }
func TestMetricsProm(t *testing.T)                    { runSuite(t) }
func TestFaultedJobAnswers500(t *testing.T)           { runSuite(t) }

var (
	cfg2     = jobs.Config{MaxConcurrent: 1, DOP: 2}
	waitPath = path{"POST?wait=1", "cold", "none"}
)

var suites = map[string]suite{
	// Every way to a finished job's rows, and the listing that shows it.
	"TestSubmitPollResult": {cells: cells("wordcount", "entry=GET,GET?stream=1,GET?stats=1"), cfg: cfg2,
		check: func(t *testing.T, h *harness, r *outcome) {
			var list []jobView
			if m := r.srv.sched.Metrics(); getJSON(t, r.url+"/jobs", &list) != http.StatusOK || len(list) != 1 || list[0].State != "succeeded" || m.Submitted != 1 || m.Succeeded != 1 {
				t.Errorf("list = %+v, %d submitted, %d succeeded", list, m.Submitted, m.Succeeded)
			}
		}},
	// A malformed document is a 400 naming its fault, and only one document
	// fits in a request (whitespace may follow it); unknown jobs are 404s.
	"TestSubmitErrors": {cells: cells("bad-script second-document trailing-text wordcount-nl", ""), cfg: cfg2,
		check: func(t *testing.T, h *harness, r *outcome) {
			for url, want := range map[string]int{"/jobs/999": http.StatusNotFound, "/jobs/xyz": http.StatusBadRequest} {
				if st, _ := request(t, http.MethodGet, r.url+url, ""); st != want {
					t.Errorf("GET %s: status %d, want %d", url, st, want)
				}
			}
		}},
	// POST /jobs/{id}/cancel stops a running job; its result is then a 409.
	"TestCancelEndpoint": {cells: cells("spin", "entry=GET"), cfg: cfg2,
		body: func(t *testing.T, h *harness) {
			srv, url := h.server(t, h.cells[0].path)
			r := h.submit(t, srv, url, "spin", h.cells[0].path, false)
			if st, _ := request(t, http.MethodPost, url+"/jobs/1/cancel", ""); st != http.StatusOK || r.status != http.StatusAccepted {
				t.Fatalf("submit %d, cancel %d", r.status, st)
			}
			h.finish(t, r)
		}},
	"TestSubmitWait": {cells: cells("wordcount", "cache=cold,plan,replay,off"), cfg: cfg2},
	// A client that hangs up on ?wait=1 takes its job down with it: an
	// abandoned job must not keep its grant.
	"TestSubmitWaitDisconnectCancels": {cells: cells("spin", "fault=hangup"), cfg: cfg2,
		body: func(t *testing.T, h *harness) {
			c := h.cells[0]
			srv, url := h.server(t, c.path)
			h.ran[c.row+" "+c.path.String()] = true
			ctx, hangUp := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/jobs?wait=1", strings.NewReader(rows[c.row].doc))
			done := make(chan error, 1)
			go func() { _, err := http.DefaultClient.Do(req); done <- err }()
			for deadline := time.Now().Add(10 * time.Second); srv.registered() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("job never registered")
				}
			}
			if hangUp(); <-done == nil {
				t.Fatal("request did not observe the disconnect")
			}
			// The job is cancelled: its view, result and trace say so.
			r := &outcome{row: rows[c.row], path: c.path, srv: srv, url: url, id: 1, status: http.StatusAccepted, want: http.StatusConflict, wantErr: "jobs: job cancelled"}
			getJSON(t, url+"/jobs/1", &r.view)
			h.finish(t, r)
			if m := srv.sched.Metrics(); m.GrantedBudget != 0 || m.Running != 0 {
				t.Errorf("budget still held after disconnect: %+v", m)
			}
		}},
	// A draining server refuses new submissions and its health check, and
	// finishes the jobs it accepted before Shutdown returns (the spilling row
	// is still running when Shutdown is called).
	"TestGracefulDrain": {cells: cells("wordcount-spill", "entry=GET"), cfg: cfg2,
		body: func(t *testing.T, h *harness) {
			srv, url := h.server(t, h.cells[0].path)
			r := h.submit(t, srv, url, "wordcount-spill", h.cells[0].path, false)
			srv.draining.Store(true)
			for _, req := range [][2]string{{http.MethodPost, "/jobs"}, {http.MethodGet, "/healthz"}} {
				if st, _ := request(t, req[0], url+req[1], wordcountDoc); st != http.StatusServiceUnavailable {
					t.Errorf("%s %s while draining: status %d, want 503", req[0], req[1], st)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.sched.Shutdown(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if getJSON(t, fmt.Sprintf("%s/jobs/%d", url, r.id), &r.view); r.view.State != "succeeded" {
				t.Fatalf("accepted job state after drain = %q, want succeeded", r.view.State)
			}
			h.finish(t, r)
		}},
	// wait=0 and wait=false are asynchronous; a malformed wait, stream or
	// stats value is a 400, and a malformed wait submits no job.
	"TestWaitParamBoolean": {cells: cells("wordcount", "entry=POST?wait=0,POST?wait=false,POST?wait=maybe,GET?stream=maybe,GET?stats=maybe"), cfg: cfg2},
	// ?stream=1 writes the bytes the buffered handler writes, with and
	// without ?stats=1, for populated and empty results.
	"TestResultStreamingMatchesBuffered": {cells: []cell{{"populated", "wordcount", path{"GET?stream=1", "cold", "none"}},
		{"empty", "empty", path{"GET?stream=1", "cold", "none"}}, {"", "wordcount", path{"GET?stream=maybe", "cold", "none"}}}, cfg: cfg2},
	// A result holding floats encoding/json refuses (+Inf from 1e308 * 10)
	// is served whole on every route that returns rows, each as null.
	"TestResultNonFiniteFloats": {cells: cells("nonfinite", "entry=POST?wait=1,GET,GET?stream=1"), cfg: jobs.Config{MaxConcurrent: 1, DOP: 1}},
	// A tenant over its queued cap gets a 429 with the quota error,
	// attributed by the X-Tenant header; another tenant is unaffected.
	"TestTenantQuota429": {cells: append(cells("spin wordcount", "entry=GET"), append(cells("wordcount", "entry=POST cache=plan"), cells("wordcount", "entry=GET cache=replay")...)...),
		cfg: jobs.Config{MaxConcurrent: 1, DOP: 2, TenantMaxQueued: 1},
		body: func(t *testing.T, h *harness) {
			srv, url := h.server(t, h.cells[0].path)
			var runs []*outcome
			for i, c := range h.cells {
				r := h.submit(t, srv, url, c.row, c.path, false, "X-Tenant", []string{"acme", "acme", "acme", "globex"}[i])
				if want := []int{http.StatusAccepted, http.StatusAccepted, http.StatusTooManyRequests, http.StatusAccepted}[i]; r.status != want {
					t.Fatalf("submission %d: status %d, want %d: %s", i, r.status, want, r.body)
				}
				runs = append(runs, r)
			}
			if runs[0].view.Tenant != "acme" || runs[1].view.State != "queued" || !strings.Contains(errorOf(runs[2].body), "quota") {
				t.Fatalf("blocker tenant %q, queued job %q, over-quota error %q", runs[0].view.Tenant, runs[1].view.State, errorOf(runs[2].body))
			}
			request(t, http.MethodPost, url+"/jobs/1/cancel", "")
			for _, r := range []*outcome{runs[0], runs[1], runs[3]} {
				h.finish(t, r)
			}
		}},
	// Under a queued-cost ceiling nothing reaches, the job that would queue
	// is a 429 while the one that starts at once is accepted.
	"TestBackpressure429": {cells: append(cells("spin", "entry=GET"), cells("wordcount", "entry=POST")...), cfg: jobs.Config{MaxConcurrent: 1, DOP: 2, MaxQueuedCost: 1e-9},
		body: func(t *testing.T, h *harness) {
			srv, url := h.server(t, h.cells[0].path)
			blocker := h.submit(t, srv, url, "spin", h.cells[0].path, false)
			r := h.submit(t, srv, url, "wordcount", h.cells[1].path, false)
			if blocker.status != http.StatusAccepted || r.status != http.StatusTooManyRequests || !strings.Contains(errorOf(r.body), "cost") {
				t.Fatalf("blocker %d, queued submission %d: %s", blocker.status, r.status, r.body)
			}
			request(t, http.MethodPost, url+"/jobs/1/cancel", "")
			h.finish(t, blocker)
		}},
	// A job's trace is its span tree, as JSON (the default) or Chrome
	// trace_event events; another format is a 400 naming it.
	"TestTraceEndpoint": {cells: cells("wordcount", ""), cfg: cfg2,
		check: func(t *testing.T, h *harness, r *outcome) {
			var root obs.Node
			if getJSON(t, r.url+"/jobs/1/trace?format=json", &root); root.Name != "wordcount" {
				t.Errorf("trace root %q, want the job's name", root.Name)
			}
			if st, body := request(t, http.MethodGet, r.url+"/jobs/1/trace?format=xml", ""); st != http.StatusBadRequest || !strings.Contains(errorOf(body), `"xml"`) {
				t.Errorf("format=xml: status %d, %s; want a 400 naming the format", st, body)
			}
			if st, _ := request(t, http.MethodGet, r.url+"/jobs/999/trace", ""); st != http.StatusNotFound {
				t.Errorf("trace of an unknown job: status %d, want 404", st)
			}
		}},
	// ?stats=1 appends per-operator statistics; the plain result has none.
	"TestResultStatsParam": {cells: cells("wordcount", "entry=GET,GET?stats=1,GET?stats=maybe"), cfg: cfg2},
	"TestMetricsProm":      {cells: cells("wordcount", "cache=cold,plan"), cfg: cfg2, body: metricsProm},
	// A job killed by a disk fault is a 500 carrying the injected error on
	// the submit and the result routes, counted as a failure.
	"TestFaultedJobAnswers500": {cells: cells("wordcount-spill", "fault=enospc@3"), cfg: jobs.Config{MaxConcurrent: 1, DOP: 3},
		check: func(t *testing.T, h *harness, r *outcome) {
			if m := r.srv.sched.Metrics(); r.view.State != "failed" || m.Failed != 1 || m.Succeeded != 0 {
				t.Fatalf("state %q, metrics %+v, want exactly one failure", r.view.State, m)
			}
		}},
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// metricsProm submits a document twice, the second a replay that hits the
// caches, and reads /metrics: the Prometheus exposition carries the
// scheduler's histogram families and counters, and the JSON form the same
// counts, the uptime and the collector's readings.
func metricsProm(t *testing.T, h *harness) {
	srv, url := h.server(t, waitPath)
	for _, c := range h.cells {
		h.finish(t, h.submit(t, srv, url, c.row, c.path, false))
	}
	resp, err := http.Get(url + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if got := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || got != obs.PromContentType {
		t.Fatalf("prom metrics: status %d, content type %q", resp.StatusCode, got)
	}
	text, histograms := string(body), 0
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "# TYPE ") && strings.HasSuffix(line, " histogram") {
			histograms++
		} else if !strings.HasPrefix(line, "# ") && !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"flowserve_jobs_submitted_total 2", "flowserve_job_latency_seconds_count 2", "flowserve_job_latency_seconds_bucket{le=\"+Inf\"} 2",
		"flowserve_queue_wait_seconds_count 2", "flowserve_uptime_seconds ", "flowserve_flow_cache_hits_total 1",
		"flowserve_source_cache_hits_total 1", "flowserve_source_cache_misses_total 1", "flowserve_source_cache_evictions_total 0",
		"flowserve_source_cache_entries 1", "flowserve_source_cache_bytes ",
		"# TYPE flowserve_gc_cpu_seconds_total counter", "# TYPE flowserve_cpu_seconds_total counter", "# TYPE flowserve_gc_cycles_total counter",
		"# TYPE flowserve_gc_percent gauge", "# TYPE flowserve_heap_goal_bytes gauge", "# TYPE flowserve_heap_live_bytes gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition misses %q", want)
		}
	}
	var m jobs.Metrics
	getJSON(t, url+"/metrics", &m)
	if m.UptimeSec <= 0 || m.Histograms["job_latency_seconds"].Count != 2 || histograms < 3 {
		t.Errorf("JSON metrics uptime %v, job latency count %d, want > 0 and 2; %d histogram families in the exposition, want >= 3", m.UptimeSec, m.Histograms["job_latency_seconds"].Count, histograms)
	}
	// The source cache shows under its own names; the flow- and plan-cache
	// counters keep theirs.
	var fields map[string]any
	getJSON(t, url+"/metrics", &fields)
	for name, want := range map[string]float64{
		"flow_cache_hits": 1, "flow_cache_misses": 1, "plan_cache_hits": 1, "plan_cache_misses": 1,
		"source_cache_hits": 1, "source_cache_misses": 1, "source_cache_evictions": 0, "source_cache_entries": 1,
	} {
		if got, ok := fields[name].(float64); !ok || got != want {
			t.Errorf("JSON metrics %s = %v, want %v", name, fields[name], want)
		}
	}
	if got, _ := fields["source_cache_bytes"].(float64); got <= 0 || int64(got) != m.SourceCacheBytes {
		t.Errorf("JSON metrics source_cache_bytes = %v", fields["source_cache_bytes"])
	}
	// The runtime folds CPU time in at the end of a cycle, so one runs first.
	runtime.GC()
	var gc gcMetrics
	getJSON(t, url+"/metrics", &gc)
	if gc.GCCycles == 0 || gc.CPUSeconds <= 0 || gc.GCCPUSeconds > gc.CPUSeconds || gc.HeapGoalBytes == 0 {
		t.Errorf("JSON metrics GC readings %+v", gc)
	}
	if st, _ := request(t, http.MethodGet, url+"/metrics?format=xml", ""); st != http.StatusBadRequest {
		t.Errorf("format=xml status = %d, want 400", st)
	}
}

const wordcountDoc = `{
  "name": "wordcount",
  "script": "reduce count(g) { first := g.at(0) out := copy(first) out[1] = count(g, 0) emit out }",
  "flow": {
    "sources": [{"name": "words", "attrs": ["word", "n"]}],
    "ops": [{"kind": "reduce", "udf": "count", "inputs": ["words"], "keys": [["word"]], "key_cardinality": 3}],
    "sink": "count"
  },
  "data": {"words": [["a", null], ["b", null], ["a", null], ["c", null], ["a", null], ["b", null]]}
}`

// row is one job document: the status its answer has (200, or the failed
// job's 500, the cancelled one's 409, the malformed document's 400), the
// error a failure carries, and what the data fixes about its rows.
type row struct {
	name, doc string
	status    int
	err       string
	answer    func(rows [][]any) string

	once      sync.Once
	want      []byte
	oracleErr error
}

// rows are the documents by name.
var rows = map[string]*row{
	"wordcount":       {doc: wordcountDoc, answer: wordcounts},
	"wordcount-nl":    {doc: wordcountDoc + "\n", answer: wordcounts},
	"bad-script":      {doc: `{"script": "map f(ir) { emit }", "flow": {"sources":[{"name":"s","attrs":["a"]}], "ops": [], "sink": "s"}}`, status: http.StatusBadRequest, err: "jobs: compile script: "},
	"second-document": {doc: wordcountDoc + `{"script": "evil"}`, status: http.StatusBadRequest, err: "jobs: bad job document: "},
	"trailing-text":   {doc: wordcountDoc + " trailing", status: http.StatusBadRequest, err: "jobs: bad job document: "},
	"empty": {doc: `{"name": "empty", "script": "map keep(ir) { if ir[1] == 99 { emit ir } }",
  "flow": {"sources": [{"name": "in", "attrs": ["k", "v"]}], "ops": [{"kind": "map", "udf": "keep", "inputs": ["in"]}], "sink": "keep"},
  "data": {"in": [[1, 1], [2, 2]]}}`, answer: nrows(0)},
	"nonfinite": {doc: `{"script": "map big(ir) { out := copy(ir) out[1] = ir[1] * 10.0 emit out }",
  "flow": {"sources": [{"name": "in", "attrs": ["k", "v"]}], "ops": [{"kind": "map", "udf": "big", "inputs": ["in"]}], "sink": "big"},
  "data": {"in": [["k", 1e308], ["j", 2.5]]}}`, answer: func(rows [][]any) string {
		if want := map[string]any{"k": nil, "j": 25.0}; len(rows) != 2 || rows[0][1] != want[rows[0][0].(string)] || rows[1][1] != want[rows[1][0].(string)] {
			return fmt.Sprintf("rows %v, want %v", rows, want)
		}
		return ""
	}},
	// A Cross of 4,000 × 4,000 records that emits nothing: seconds of CPU
	// from a small document, cancellable every few hundred calls.
	"spin": {doc: strings.ReplaceAll(`{"name": "spin", "script": "binary never(l, r) { if l[0] < 0 { emit l } }",
  "flow": {"sources": [{"name": "L", "attrs": ["a", "b"]}, {"name": "R", "attrs": ["c", "d"]}], "ops": [{"kind": "cross", "udf": "never", "inputs": ["L", "R"]}], "sink": "never"},
  "data": {"L": [ROWS], "R": [ROWS]}}`, "ROWS", strings.Repeat("[1, 1], ", 3999)+"[1, 1]"), status: http.StatusConflict, err: "jobs: job cancelled"},
	// 2,000 words over 100 keys under a grant of a few dozen bytes per
	// partition: the job spills, onto the injector's fault surface.
	"wordcount-spill": {doc: strings.NewReplacer(`"key_cardinality": 3}`, `"key_cardinality": 100}`, `{"words": [["a", null], ["b", null], ["a", null], ["c", null], ["a", null], ["b", null]]}`,
		`{"words": [`+strings.Repeat(words100, 19)+words100[:len(words100)-2]+`]}, "memory_budget_bytes": 288`).Replace(wordcountDoc), answer: nrows(100)},
}

// words100 is the rows of 100 distinct words.
var words100 = func() string {
	var b strings.Builder
	for i := range 100 {
		fmt.Fprintf(&b, `["w%03d", null], `, i)
	}
	return b.String()
}()

func init() {
	for name, r := range rows {
		r.name = name
	}
}

// wordcounts holds wordcountDoc's answer: a 3, b 2, c 1.
func wordcounts(rows [][]any) string {
	got := map[string]any{}
	for _, row := range rows {
		got[row[0].(string)] = row[1]
	}
	if len(rows) != 3 || got["a"] != 3.0 || got["b"] != 2.0 || got["c"] != 1.0 {
		return fmt.Sprintf("counts %v, want a 3, b 2, c 1", got)
	}
	return ""
}

func nrows(n int) func([][]any) string {
	return func(rows [][]any) string {
		if len(rows) != n {
			return fmt.Sprintf("%d rows, want %d", len(rows), n)
		}
		return ""
	}
}
