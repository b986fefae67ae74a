package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blackboxflow/internal/jobs"
	"blackboxflow/internal/obs"
)

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

func testServer(t *testing.T, cfg jobs.Config) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(jobs.New(cfg))
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	return resp, m
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// TestSubmitPollResult drives the happy path: submit, poll status until
// terminal, fetch rows, check metrics.
func TestSubmitPollResult(t *testing.T) {
	_, ts := testServer(t, jobs.Config{MaxConcurrent: 2, DOP: 2})

	resp, body := postJSON(t, ts.URL+"/jobs", wordcountDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", resp.StatusCode, body)
	}
	id := int64(body["id"].(float64))

	deadline := time.Now().Add(10 * time.Second)
	var status map[string]any
	for {
		if getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id), &status); status["state"] == "succeeded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %v", status["state"])
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status["records"].(float64) != 3 {
		t.Errorf("records = %v, want 3", status["records"])
	}
	if status["stats"] == nil {
		t.Error("terminal status has no per-operator stats")
	}

	var result struct {
		Rows [][]any `json:"rows"`
	}
	if resp := getJSON(t, fmt.Sprintf("%s/jobs/%d/result", ts.URL, id), &result); resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	counts := map[string]float64{}
	for _, row := range result.Rows {
		counts[row[0].(string)] = row[1].(float64)
	}
	if counts["a"] != 3 || counts["b"] != 2 || counts["c"] != 1 {
		t.Errorf("counts = %v", counts)
	}

	// A finished job has let go of its inputs (Job.finish); everything a
	// client may still ask it for answers as before.
	var tree obs.Node
	if resp := getJSON(t, fmt.Sprintf("%s/jobs/%d/trace", ts.URL, id), &tree); resp.StatusCode != http.StatusOK || tree.Kind != obs.KindJob {
		t.Errorf("trace of a finished job: status %d, root kind %q", resp.StatusCode, tree.Kind)
	}
	var withStats struct {
		Rows  [][]any          `json:"rows"`
		Stats []map[string]any `json:"stats"`
	}
	if resp := getJSON(t, fmt.Sprintf("%s/jobs/%d/result?stats=1", ts.URL, id), &withStats); resp.StatusCode != http.StatusOK || len(withStats.Rows) != 3 || len(withStats.Stats) == 0 {
		t.Errorf("result?stats=1 of a finished job: status %d, %d rows, %d stats", resp.StatusCode, len(withStats.Rows), len(withStats.Stats))
	}
	if status, body := rawGet(t, fmt.Sprintf("%s/jobs/%d/result?stream=1", ts.URL, id)); status != http.StatusOK || !strings.Contains(string(body), `"rows"`) {
		t.Errorf("streamed result of a finished job: status %d", status)
	}

	var m jobs.Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Submitted != 1 || m.Succeeded != 1 {
		t.Errorf("metrics = %+v", m)
	}

	var list []map[string]any
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list) != 1 || list[0]["state"] != "succeeded" {
		t.Errorf("list = %v", list)
	}
}

// TestSubmitErrors: malformed documents and unknown jobs get 4xx, not 500s.
func TestSubmitErrors(t *testing.T) {
	_, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})

	resp, body := postJSON(t, ts.URL+"/jobs", `{"script": "map f(ir) { emit }", "flow": {"sources":[{"name":"s","attrs":["a"]}], "ops": [], "sink": "s"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad script: status %d", resp.StatusCode)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "compile") {
		t.Errorf("bad script error = %q", msg)
	}

	// Only one document per request: bytes after it used to be ignored.
	for _, tail := range []string{`{"script": "evil"}`, " trailing"} {
		resp, body := postJSON(t, ts.URL+"/jobs", wordcountDoc+tail)
		if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(msg, "jobs: bad job document: ") {
			t.Errorf("document followed by %q: status %d, error %q", tail, resp.StatusCode, msg)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/jobs?wait=1", wordcountDoc+"\n"); resp.StatusCode != http.StatusOK {
		t.Errorf("document followed by a newline: status %d, body %v", resp.StatusCode, body)
	}

	if resp := getJSON(t, ts.URL+"/jobs/999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/jobs/xyz", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: status %d", resp.StatusCode)
	}
}

// slowDoc is a job big enough to still be running when the test acts on it.
func slowDoc() string {
	var rows []string
	for i := 0; i < 40000; i++ {
		rows = append(rows, fmt.Sprintf("[%d, %d]", i, i%7))
	}
	return `{
  "name": "slow",
  "script": "reduce tally(g) { first := g.at(0) out := copy(first) out[1] = sum(g, 1) emit out }",
  "flow": {
    "sources": [{"name": "in", "attrs": ["k", "v"]}],
    "ops": [{"kind": "reduce", "udf": "tally", "inputs": ["in"], "keys": [["k"]], "key_cardinality": 40000}],
    "sink": "tally"
  },
  "data": {"in": [` + strings.Join(rows, ",") + `]}
}`
}

// TestCancelEndpoint cancels a running job over HTTP.
func TestCancelEndpoint(t *testing.T) {
	_, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	resp, body := postJSON(t, ts.URL+"/jobs", slowDoc())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %v", resp.StatusCode, body)
	}
	id := int64(body["id"].(float64))

	resp, _ = postJSON(t, fmt.Sprintf("%s/jobs/%d/cancel", ts.URL, id), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var status map[string]any
		getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id), &status)
		if status["state"] == "cancelled" {
			break
		}
		if status["state"] == "succeeded" {
			t.Skip("job finished before the cancel landed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v after cancel", status["state"])
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp := getJSON(t, fmt.Sprintf("%s/jobs/%d/result", ts.URL, id), nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: status %d, want 409", resp.StatusCode)
	}
}

// TestSubmitWait: ?wait=1 returns the rows inline once the job finishes.
func TestSubmitWait(t *testing.T) {
	_, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	resp, body := postJSON(t, ts.URL+"/jobs?wait=1", wordcountDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit status = %d: %v", resp.StatusCode, body)
	}
	rows, ok := body["rows"].([]any)
	if !ok || len(rows) != 3 {
		t.Fatalf("wait submit rows = %v", body["rows"])
	}
}

// TestSubmitWaitDisconnectCancels: a client that submits with ?wait=1 and
// drops the connection takes its job down with it — the budget grant must
// not stay held by an abandoned job.
func TestSubmitWaitDisconnectCancels(t *testing.T) {
	srv, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})

	ctx, cancelReq := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs?wait=1",
		strings.NewReader(slowDoc()))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		done <- err
	}()

	// Wait for the job to register, then hang up.
	deadline := time.Now().Add(10 * time.Second)
	var job *jobs.Job
	for job == nil {
		if time.Now().After(deadline) {
			t.Fatal("job never registered")
		}
		srv.mu.Lock()
		for _, j := range srv.byID {
			job = j
		}
		srv.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	cancelReq()
	if err := <-done; err == nil {
		t.Fatal("request did not observe the disconnect")
	}

	for {
		st := job.State()
		if st == jobs.StateCancelled {
			break
		}
		if st == jobs.StateSucceeded {
			t.Skip("job finished before the disconnect landed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v after client disconnect", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m := srv.sched.Metrics(); m.GrantedBudget != 0 || m.Running != 0 {
		t.Errorf("budget still held after disconnect: %+v", m)
	}
}

// TestGracefulDrain: a draining server rejects new submissions but lets
// accepted jobs finish.
func TestGracefulDrain(t *testing.T) {
	srv, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	resp, body := postJSON(t, ts.URL+"/jobs", wordcountDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := int64(body["id"].(float64))

	srv.draining.Store(true)
	if resp, _ := postJSON(t, ts.URL+"/jobs", wordcountDoc); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.sched.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var status map[string]any
	getJSON(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id), &status)
	if status["state"] != "succeeded" {
		t.Errorf("accepted job state after drain = %v, want succeeded", status["state"])
	}
}

// TestWaitParamBoolean: ?wait=0 and ?wait=false are asynchronous (202 with
// a job view, not rows), and a malformed wait value is a 400 before any
// job is submitted.
func TestWaitParamBoolean(t *testing.T) {
	srv, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	for _, v := range []string{"0", "false"} {
		resp, body := postJSON(t, ts.URL+"/jobs?wait="+v, wordcountDoc)
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("wait=%s status = %d, want 202 (async): %v", v, resp.StatusCode, body)
		}
		if _, hasRows := body["rows"]; hasRows {
			t.Errorf("wait=%s returned rows inline; it must not block", v)
		}
	}
	before := srv.sched.Metrics().Submitted
	resp, body := postJSON(t, ts.URL+"/jobs?wait=maybe", wordcountDoc)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wait=maybe status = %d, want 400: %v", resp.StatusCode, body)
	}
	if after := srv.sched.Metrics().Submitted; after != before {
		t.Errorf("malformed wait still submitted a job (%d -> %d)", before, after)
	}
}

// rawGet fetches a URL and returns status and raw body bytes.
func rawGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestResultStreamingMatchesBuffered: ?stream=1 must produce byte-for-byte
// the document the buffered handler writes — for populated and empty
// results — so clients cannot tell the difference except in arrival
// timing.
func TestResultStreamingMatchesBuffered(t *testing.T) {
	emptyDoc := `{
  "name": "empty",
  "script": "map keep(ir) { if ir[1] == 99 { emit ir } }",
  "flow": {
    "sources": [{"name": "in", "attrs": ["k", "v"]}],
    "ops": [{"kind": "map", "udf": "keep", "inputs": ["in"]}],
    "sink": "keep"
  },
  "data": {"in": [[1, 1], [2, 2]]}
}`
	_, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	for name, doc := range map[string]string{"populated": wordcountDoc, "empty": emptyDoc} {
		t.Run(name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/jobs?wait=1", doc)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("submit status = %d: %v", resp.StatusCode, body)
			}
			id := int64(body["id"].(float64))
			for _, stats := range []string{"", "&stats=1"} {
				bufStatus, buffered := rawGet(t, fmt.Sprintf("%s/jobs/%d/result?stream=0%s", ts.URL, id, stats))
				strStatus, streamed := rawGet(t, fmt.Sprintf("%s/jobs/%d/result?stream=1%s", ts.URL, id, stats))
				if bufStatus != http.StatusOK || strStatus != http.StatusOK {
					t.Fatalf("status buffered=%d streamed=%d, want 200/200", bufStatus, strStatus)
				}
				if !bytes.Equal(buffered, streamed) {
					t.Errorf("streamed result differs from buffered:\nbuffered: %q\nstreamed: %q",
						buffered, streamed)
				}
			}
		})
	}
	if status, _ := rawGet(t, ts.URL+"/jobs/1/result?stream=maybe"); status != http.StatusBadRequest {
		t.Errorf("stream=maybe status = %d, want 400", status)
	}
}

// TestResultNonFiniteFloats: a result holding floats encoding/json refuses
// (here +Inf, from 1e308 * 10) is served whole on every route that returns
// rows, each such float as null.
func TestResultNonFiniteFloats(t *testing.T) {
	doc := `{
  "script": "map big(ir) { out := copy(ir) out[1] = ir[1] * 10.0 emit out }",
  "flow": {
    "sources": [{"name": "in", "attrs": ["k", "v"]}],
    "ops": [{"kind": "map", "udf": "big", "inputs": ["in"]}],
    "sink": "big"
  },
  "data": {"in": [["k", 1e308], ["j", 2.5]]}
}`
	_, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 1})
	resp, err := http.Post(ts.URL+"/jobs?wait=1", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	waited, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	sub := struct{ ID int64 }{1} // the first job of a fresh server, if the body says nothing
	json.Unmarshal(waited, &sub)
	bodies := map[string][]byte{"?wait=1": waited}
	for _, route := range []string{"/result", "/result?stream=1"} {
		status, body := rawGet(t, fmt.Sprintf("%s/jobs/%d%s", ts.URL, sub.ID, route))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", route, status)
		}
		bodies[route] = body
	}
	for route, body := range bodies {
		var got struct {
			ID   int64
			Rows [][]any
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Errorf("%s: body is not one JSON document (%v): %q", route, err, body)
			continue
		}
		want := map[string]any{"k": nil, "j": 25.0}
		if len(got.Rows) != 2 || got.ID != sub.ID {
			t.Errorf("%s: id %d, rows %v", route, got.ID, got.Rows)
		}
		for _, row := range got.Rows {
			if v, ok := want[row[0].(string)]; !ok || row[1] != v {
				t.Errorf("%s: row %v, want %v", route, row, want)
			}
		}
	}
}

// TestRegistryEviction: terminal jobs beyond the registry capacity are
// evicted oldest-finished first; their IDs answer 410 Gone while
// never-issued IDs stay 404.
func TestRegistryEviction(t *testing.T) {
	srv, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	srv.maxJobs = 2

	var ids []int64
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/jobs?wait=1", wordcountDoc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d status = %d: %v", i, resp.StatusCode, body)
		}
		ids = append(ids, int64(body["id"].(float64)))
	}

	// The third registration pushed the registry to 3 > 2 and evicted the
	// oldest finished job (the first).
	if status, _ := rawGet(t, fmt.Sprintf("%s/jobs/%d", ts.URL, ids[0])); status != http.StatusGone {
		t.Errorf("evicted job status = %d, want 410", status)
	}
	if status, _ := rawGet(t, fmt.Sprintf("%s/jobs/%d/result", ts.URL, ids[0])); status != http.StatusGone {
		t.Errorf("evicted job result status = %d, want 410", status)
	}
	for _, id := range ids[1:] {
		if status, _ := rawGet(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id)); status != http.StatusOK {
			t.Errorf("retained job %d status = %d, want 200", id, status)
		}
	}
	if status, _ := rawGet(t, ts.URL+"/jobs/999"); status != http.StatusNotFound {
		t.Errorf("never-issued id status = %d, want 404", status)
	}

	// TTL eviction: age everything out; the next registration sweeps.
	srv.jobTTL = time.Nanosecond
	time.Sleep(10 * time.Millisecond)
	if resp, _ := postJSON(t, ts.URL+"/jobs?wait=1", wordcountDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-TTL submit status = %d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if status, _ := rawGet(t, fmt.Sprintf("%s/jobs/%d", ts.URL, id)); status != http.StatusGone {
			t.Errorf("TTL-expired job %d status = %d, want 410", id, status)
		}
	}
}

// TestRegistryWalkOnlyWhenEvictable: registering a job walks the registry
// (a scheduler-lock round trip per retained job) only when the walk could
// evict something — not on every submission of a burst that stays under
// the cap with nothing near its TTL.
func TestRegistryWalkOnlyWhenEvictable(t *testing.T) {
	srv, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2})
	walks := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.walks
	}
	for i := 0; i < 8; i++ {
		if resp, body := postJSON(t, ts.URL+"/jobs?wait=1", wordcountDoc); resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d status = %d: %v", i, resp.StatusCode, body)
		}
	}
	if n := walks(); n != 0 {
		t.Fatalf("%d registry walks for 8 submissions under the cap with nothing expired, want 0", n)
	}
	// Over the cap, the next registration walks and evicts down to it.
	srv.mu.Lock()
	srv.maxJobs = 4
	srv.mu.Unlock()
	if resp, _ := postJSON(t, ts.URL+"/jobs?wait=1", wordcountDoc); resp.StatusCode != http.StatusOK {
		t.Fatalf("over-cap submit status = %d", resp.StatusCode)
	}
	srv.mu.Lock()
	n, retained := srv.walks, len(srv.byID)
	srv.mu.Unlock()
	if n != 1 || retained != 4 {
		t.Fatalf("over the cap: %d walks, %d jobs retained, want 1 and 4", n, retained)
	}
}

// spinDoc is a small document whose reduce burns CPU per group, so the
// job reliably occupies its engine slot for the duration of a few quick
// HTTP round trips (unlike slowDoc, whose wide input parses slowly but
// runs fast).
func spinDoc() string {
	var rows []string
	for i := 0; i < 200; i++ {
		rows = append(rows, fmt.Sprintf("[%d, %d]", i, i%7))
	}
	return `{
  "name": "spin",
  "script": "reduce spin(g) { first := g.at(0) out := copy(first) i := 0 while i < 100000 { i := i + 1 } out[1] = sum(g, 1) emit out }",
  "flow": {
    "sources": [{"name": "in", "attrs": ["k", "v"]}],
    "ops": [{"kind": "reduce", "udf": "spin", "inputs": ["in"], "keys": [["k"]], "key_cardinality": 200}],
    "sink": "spin"
  },
  "data": {"in": [` + strings.Join(rows, ",") + `]}
}`
}

// TestTenantQuota429: a tenant over its queued cap gets 429 with the quota
// error, attributed via the X-Tenant header.
func TestTenantQuota429(t *testing.T) {
	srv, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2, TenantMaxQueued: 1})

	submitAs := func(tenant, doc string) (*http.Response, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return resp, m
	}

	// Occupy the single engine slot, then fill acme's queue quota.
	if resp, body := submitAs("acme", spinDoc()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker status = %d: %v", resp.StatusCode, body)
	} else if body["tenant"] != "acme" {
		t.Errorf("job view tenant = %v, want acme", body["tenant"])
	}
	if resp, body := submitAs("acme", wordcountDoc); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first queued submission status = %d", resp.StatusCode)
	} else if body["state"] != "queued" {
		t.Skipf("blocker finished before the quota filled (state %v)", body["state"])
	}
	resp, body := submitAs("acme", wordcountDoc)
	if resp.StatusCode != http.StatusTooManyRequests {
		if m := srv.sched.Metrics(); m.Running == 0 {
			t.Skipf("blocker finished before the over-quota submission (status %d)", resp.StatusCode)
		}
		t.Fatalf("over-quota status = %d, want 429: %v", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "quota") {
		t.Errorf("over-quota error = %q, want a quota message", msg)
	}
	// Another tenant is unaffected.
	if resp, _ := submitAs("globex", wordcountDoc); resp.StatusCode != http.StatusAccepted {
		t.Errorf("other tenant status = %d, want 202", resp.StatusCode)
	}
}

// TestBackpressure429: with a tiny queued-cost ceiling, the job that would
// queue is rejected 429 while the one that starts immediately is accepted.
func TestBackpressure429(t *testing.T) {
	srv, ts := testServer(t, jobs.Config{MaxConcurrent: 1, DOP: 2, MaxQueuedCost: 1e-9})

	if resp, body := postJSON(t, ts.URL+"/jobs", spinDoc()); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("immediate-start submission status = %d: %v", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/jobs", wordcountDoc)
	if resp.StatusCode != http.StatusTooManyRequests {
		if m := srv.sched.Metrics(); m.Running == 0 {
			t.Skipf("blocker finished before the second submission (status %d)", resp.StatusCode)
		}
		t.Fatalf("queued submission status = %d, want 429: %v", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "cost") {
		t.Errorf("backpressure error = %q, want a cost message", msg)
	}
}

// zeros is an endless body of '0' bytes (a JSON number that never ends).
type zeros struct{}

var zeroBlock = bytes.Repeat([]byte{'0'}, 64<<10)

func (zeros) Read(p []byte) (int, error) { return copy(p, zeroBlock), nil }

// TestSubmitBodyReadOnce pins how handleSubmit reads its body: sized from
// Content-Length when there is one, never past the document limit, and
// never trusting the header — a Content-Length that lies in either direction
// costs nothing but memory it was entitled to anyway.
func TestSubmitBodyReadOnce(t *testing.T) {
	srv := newServer(jobs.New(jobs.Config{MaxConcurrent: 1, DOP: 2}))
	submit := func(body io.Reader, contentLength int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/jobs?wait=1", body)
		req.ContentLength = contentLength
		rec := httptest.NewRecorder()
		srv.handler().ServeHTTP(rec, req)
		return rec
	}
	for _, c := range []struct {
		name          string
		contentLength int64
	}{
		{"exact", int64(len(wordcountDoc))},
		{"chunked", -1},
		{"understated", 10},
		{"overstated", int64(len(wordcountDoc)) + 1<<20},
	} {
		if rec := submit(strings.NewReader(wordcountDoc), c.contentLength); rec.Code != http.StatusOK {
			t.Errorf("%s Content-Length: status %d, body %s", c.name, rec.Code, rec.Body)
		}
	}
	// One byte over the limit is refused whatever the header says, and the
	// handler stops reading there: the endless body would never end.
	for _, contentLength := range []int64{maxJobDocBytes + 1, -1} {
		if rec := submit(zeros{}, contentLength); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("endless body, Content-Length %d: status %d, want 413", contentLength, rec.Code)
		}
	}

	// The buffer is sized once: with a Content-Length the very first Read
	// is offered room for the whole document, not the 512 bytes a buffer
	// grown by doubling starts from.
	doc := strings.Repeat(" ", 4<<20)
	body := &firstRead{r: strings.NewReader(doc)}
	req := httptest.NewRequest(http.MethodPost, "/jobs", body)
	req.ContentLength = int64(len(doc))
	if raw, err := readJobDoc(req); err != nil || len(raw) != len(doc) || body.room < len(doc) {
		t.Fatalf("read %d of %d bytes (%v), the first Read offered %d bytes of room", len(raw), len(doc), err, body.room)
	}
}

// firstRead records how much room the first Read call was offered.
type firstRead struct {
	r    io.Reader
	room int
}

func (f *firstRead) Read(p []byte) (int, error) {
	if f.room == 0 {
		f.room = len(p)
	}
	return f.r.Read(p)
}
