package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"blackboxflow/internal/jobs"
	"blackboxflow/internal/obs"
)

// This file pins the server's observability surface: the trace endpoint
// (nested JSON and Chrome trace_event export), ?stats=1 on results in both
// the buffered and streaming forms, and the Prometheus text exposition of
// /metrics.

// submitWait runs a document to completion and returns the job id.
func submitWait(t *testing.T, base, doc string) int64 {
	t.Helper()
	resp, body := postJSON(t, base+"/jobs?wait=1", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d: %v", resp.StatusCode, body)
	}
	return int64(body["id"].(float64))
}

// TestTraceEndpoint: a finished job's trace is a span tree rooted at a
// closed job span with the lifecycle phases below it, and ?format=chrome
// yields a Chrome trace_event array covering the same spans.
func TestTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	id := submitWait(t, ts.URL, wordcountDoc)

	var tree obs.Node
	if resp := getJSON(t, fmt.Sprintf("%s/jobs/%d/trace", ts.URL, id), &tree); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	if tree.Kind != obs.KindJob || tree.Name != "wordcount" {
		t.Fatalf("trace root = %q (%s), want the job span", tree.Name, tree.Kind)
	}
	if tree.End.IsZero() || tree.Err != "" {
		t.Fatalf("root span of a finished clean job: end=%v err=%q", tree.End, tree.Err)
	}
	phases := map[string]bool{}
	for _, child := range tree.Children {
		if child.Kind == obs.KindPhase {
			phases[child.Name] = true
		}
	}
	for _, want := range []string{"compile", "queue", "optimize", "run"} {
		if !phases[want] {
			t.Errorf("trace tree misses the %q phase (got %v)", want, phases)
		}
	}

	status, body := rawGet(t, fmt.Sprintf("%s/jobs/%d/trace?format=chrome", ts.URL, id))
	if status != http.StatusOK {
		t.Fatalf("chrome trace status = %d", status)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome trace has no events")
	}
	for _, ev := range events {
		if ev["ph"] != "X" || ev["name"] == "" {
			t.Fatalf("malformed trace event: %v", ev)
		}
	}

	if status, _ := rawGet(t, ts.URL+"/jobs/999/trace"); status != http.StatusNotFound {
		t.Errorf("trace of unknown job: status %d, want 404", status)
	}
}

// TestResultStatsParam: ?stats=1 appends per-operator statistics to the
// result document, the streaming form stays byte-identical to the buffered
// one, and plain results are unchanged by the feature.
func TestResultStatsParam(t *testing.T) {
	_, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	id := submitWait(t, ts.URL, wordcountDoc)
	url := fmt.Sprintf("%s/jobs/%d/result", ts.URL, id)

	_, plain := rawGet(t, url)
	if bytes.Contains(plain, []byte(`"stats"`)) {
		t.Error("plain result grew a stats field")
	}

	bufStatus, buffered := rawGet(t, url+"?stats=1")
	strStatus, streamed := rawGet(t, url+"?stats=1&stream=1")
	if bufStatus != http.StatusOK || strStatus != http.StatusOK {
		t.Fatalf("status buffered=%d streamed=%d", bufStatus, strStatus)
	}
	if !bytes.Equal(buffered, streamed) {
		t.Errorf("streamed ?stats=1 differs from buffered:\nbuffered: %q\nstreamed: %q", buffered, streamed)
	}
	var doc struct {
		Rows  [][]any `json:"rows"`
		Stats []struct {
			Name string `json:"name"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(buffered, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) != 3 || len(doc.Stats) == 0 {
		t.Fatalf("rows=%d stats=%d, want rows with per-operator stats", len(doc.Rows), len(doc.Stats))
	}

	if status, _ := rawGet(t, url+"?stats=maybe"); status != http.StatusBadRequest {
		t.Errorf("stats=maybe status = %d, want 400", status)
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestMetricsProm: ?format=prom serves valid Prometheus text exposition
// with the scheduler's histogram families, and the JSON form carries the
// uptime and histogram snapshots.
func TestMetricsProm(t *testing.T) {
	_, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	submitWait(t, ts.URL, wordcountDoc)
	submitWait(t, ts.URL, wordcountDoc) // a replay: one source-cache hit

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom metrics status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
		t.Fatalf("prom content type %q, want %q", got, obs.PromContentType)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()

	histograms := 0
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			if strings.HasSuffix(line, " histogram") {
				histograms++
			}
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	if histograms < 3 {
		t.Fatalf("prom exposition has %d histogram families, want >= 3", histograms)
	}
	for _, want := range []string{
		"flowserve_jobs_submitted_total 2",
		"flowserve_job_latency_seconds_count 2",
		"flowserve_job_latency_seconds_bucket{le=\"+Inf\"} 2",
		"flowserve_queue_wait_seconds_count 2",
		"flowserve_uptime_seconds ",
		"flowserve_flow_cache_hits_total 1",
		"flowserve_source_cache_hits_total 1",
		"flowserve_source_cache_misses_total 1",
		"flowserve_source_cache_evictions_total 0",
		"flowserve_source_cache_entries 1",
		"flowserve_source_cache_bytes ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition misses %q", want)
		}
	}

	var m jobs.Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.UptimeSec <= 0 {
		t.Errorf("JSON metrics uptime %v", m.UptimeSec)
	}
	if m.Histograms["job_latency_seconds"].Count != 2 {
		t.Errorf("JSON metrics job latency count = %d, want 2", m.Histograms["job_latency_seconds"].Count)
	}
	// The source cache shows under its own names; the flow- and plan-cache
	// counters keep theirs.
	var fields map[string]any
	getJSON(t, ts.URL+"/metrics", &fields)
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

	if status, _ := rawGet(t, ts.URL+"/metrics?format=xml"); status != http.StatusBadRequest {
		t.Errorf("format=xml status = %d, want 400", status)
	}
}
