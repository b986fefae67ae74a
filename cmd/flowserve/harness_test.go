package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/jobs"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
)

// This file is the service harness of the HTTP front door. Every user path
// of a job document — POST /jobs?wait=1, or POST /jobs and then GET
// /jobs/{id}/result plain, streamed or with ?stats=1 — on a cold server, a
// replayed document or with the caches off, under a disk fault, must answer
// with the status its row expects and, on 200, with the rows of the row's
// oracle: its flow as written, planned at DOP 1 without a budget and run on
// a bare engine.New(1), compared as a canonical bag of JSON rows. A job the
// run submits must also leave a closed span tree that shows its path, a
// drained scheduler and an empty spill directory. Each test is a suite of
// cells (rows_test.go); testdata/service.golden pins the (test, row, path)
// tuples the suites declare. The scheduler's own paths (the worker fleet,
// budget tiers, fault sweeps) are internal/jobs's harness.

var update = flag.Bool("update", false, "rewrite testdata/service.golden")

// path is one way a document reaches its answer over HTTP.
type path struct {
	// entry is POST<query> (the answer is that POST /jobs's), or GET<query>:
	// the document is submitted without waiting, and the answer is GET
	// /jobs/{id}/result<query> once the job is terminal.
	entry string
	// cache: cold (a fresh server), plan (the document's second submission:
	// its flow, sources and plan cached), replay (its third: the document
	// memo) or off (PlanCacheSize -1).
	cache string
	// fault: none, enospc@N (ENOSPC at filesystem operation N) or hangup
	// (the client disconnects while it waits).
	fault string
}

func (p path) String() string { return "entry=" + p.entry + " cache=" + p.cache + " fault=" + p.fault }

// cell is one row on one path; sub, when set, names the subtest it runs in.
type cell struct {
	sub, row string
	path     path
}

// cells declares the rows (space-separated) on every path of the axes
// ("entry=GET,GET?stream=1 cache=plan"): entry, cache and fault default to
// POST?wait=1, cold and none.
func cells(rows, axes string) []cell {
	ps := []path{{"POST?wait=1", "cold", "none"}}
	for _, axis := range strings.Fields(axes) {
		k, vs, _ := strings.Cut(axis, "=")
		var next []path
		for _, p := range ps {
			for _, v := range strings.Split(vs, ",") {
				*map[string]*string{"entry": &p.entry, "cache": &p.cache, "fault": &p.fault}[k] = v
				next = append(next, p)
			}
		}
		ps = next
	}
	var cs []cell
	for _, r := range strings.Fields(rows) {
		for _, p := range ps {
			cs = append(cs, cell{row: r, path: p})
		}
	}
	return cs
}

// suite is one test's cells and the scheduler config behind its servers.
type suite struct {
	cells []cell
	cfg   jobs.Config
	// body drives the suite's own requests; without one each cell runs on
	// a server of its own (harness.cell).
	body func(t *testing.T, h *harness)
	// check adds the suite's checks to each outcome harness.cell has.
	check func(t *testing.T, h *harness, r *outcome)
}

// tuples is the (row, path) tuples the suite declares.
func (s suite) tuples() map[string]bool {
	tu := map[string]bool{}
	for _, c := range s.cells {
		tu[c.row+" "+c.path.String()] = true
	}
	return tu
}

type harness struct {
	suite
	ran map[string]bool
}

// outcome is one document on one path: the answer's status and body, and
// the job it submitted (id 0 if none) with its last view.
type outcome struct {
	row          *row
	path         path
	srv          *server
	url          string
	id           int64
	status, want int
	wantErr      string
	body         []byte
	view         jobView
}

func runSuite(t *testing.T) {
	s, ok := suites[t.Name()]
	if !ok {
		t.Fatalf("no suite named %s", t.Name())
	}
	h := &harness{suite: s, ran: map[string]bool{}}
	if s.body != nil {
		s.body(t, h)
	} else {
		for _, c := range s.cells {
			if c.sub == "" {
				h.cell(t, c.row, c.path)
			} else {
				t.Run(c.sub, func(t *testing.T) { h.cell(t, c.row, c.path) })
			}
		}
	}
	if !t.Failed() && !maps.Equal(s.tuples(), h.ran) {
		t.Fatalf("the suite declares %v but ran %v", slices.Sorted(maps.Keys(s.tuples())), slices.Sorted(maps.Keys(h.ran)))
	}
}

// server starts a server for path p over the suite's config.
func (h *harness) server(t *testing.T, p path) (*server, string) {
	cfg := h.cfg
	cfg.SpillDir = t.TempDir()
	if p.cache == "off" {
		cfg.PlanCacheSize = -1
	}
	var at int64
	if _, err := fmt.Sscanf(p.fault, "enospc@%d", &at); err == nil {
		cfg.FS = faultfs.NewInjector(faultfs.OS{}, at, faultfs.ENOSPC)
	}
	srv := newServer(jobs.New(cfg))
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		srv.sched.Shutdown(ctx)
	})
	return srv, ts.URL
}

// cell runs row name on path p on a server of its own, primed to the
// path's cache state: the job must leave the scheduler drained and the
// spill directory empty, an answer that names no job must have submitted
// none, and a job failed by an injected fault must leave the server able to
// run the same document once the fault is spent.
func (h *harness) cell(t *testing.T, name string, p path) {
	t.Helper()
	srv, url := h.server(t, p)
	primes := map[string]int{"plan": 1, "replay": 2}[p.cache]
	for i := range primes {
		h.finish(t, h.submit(t, srv, url, name, path{"POST?wait=1", []string{"cold", "plan"}[i], "none"}, true))
	}
	r := h.submit(t, srv, url, name, p, false)
	if p.fault != "none" {
		r.want, r.wantErr = http.StatusInternalServerError, "no space left on device"
	}
	h.finish(t, r)
	var m jobs.Metrics
	getJSON(t, url+"/metrics", &m)
	if ents, _ := os.ReadDir(srv.sched.Config().SpillDir); m.GrantedBudget != 0 || m.Running != 0 || m.Submitted != srv.registered() || r.id == 0 && m.Submitted != int64(primes) || len(ents) != 0 {
		t.Fatalf("%s %s: granted %d, running %d, submitted %d of %d registered, %d spill entries left", name, p, m.GrantedBudget, m.Running, m.Submitted, srv.registered(), len(ents))
	}
	if h.check != nil {
		h.check(t, h, r)
	}
	if p.fault != "none" {
		h.finish(t, h.submit(t, srv, url, name, path{"POST?wait=1", "plan", "none"}, true))
	}
}

// submit sends the document's POST /jobs on path p with the header's
// key/value pairs; it counts the (row, path) tuple as run unless aux.
func (h *harness) submit(t *testing.T, srv *server, url, name string, p path, aux bool, header ...string) *outcome {
	t.Helper()
	r := &outcome{row: rows[name], path: p, srv: srv, url: url}
	r.want, r.wantErr = cmp.Or(r.row.status, http.StatusOK), r.row.err
	if !aux {
		h.ran[name+" "+p.String()] = true
	}
	_, q, _ := strings.Cut(p.entry, "POST")
	r.status, r.body = request(t, http.MethodPost, url+"/jobs"+q, r.row.doc, header...)
	json.Unmarshal(r.body, &r.view)
	if r.id = r.view.ID; q != "?wait=1" && q != "?wait=maybe" && p.entry != "POST" && (r.status != http.StatusAccepted || bytes.Contains(r.body, []byte(`"rows"`))) {
		t.Fatalf("%s: an asynchronous submission answered %d %s, want 202 and the job's view", p, r.status, r.body)
	}
	return r
}

// finish waits for the outcome's job, takes the answer of its entry and
// checks it: the status (400 for a malformed query value, before any side
// effect); on 200 the oracle's rows, the row's answer, the job's view and
// the same bytes streamed or buffered; otherwise the job's state and error
// on the result route too. Then the job's trace and path.
func (h *harness) finish(t *testing.T, r *outcome) {
	t.Helper()
	label := r.row.name + " " + r.path.String()
	for r.status == http.StatusAccepted && (r.view.State == "queued" || r.view.State == "running") {
		time.Sleep(time.Millisecond)
		getJSON(t, fmt.Sprintf("%s/jobs/%d", r.url, r.id), &r.view)
	}
	if _, q, _ := strings.Cut(r.path.entry, "GET"); r.status == http.StatusAccepted {
		r.status, r.body = request(t, http.MethodGet, fmt.Sprintf("%s/jobs/%d/result%s", r.url, r.id, q), "")
	}
	if _, q, _ := strings.Cut(r.path.entry, "?"); strings.HasSuffix(q, "=maybe") {
		r.want, r.wantErr = http.StatusBadRequest, "bad "+strings.TrimSuffix(q, "=maybe")+" value"
	}
	if r.status != r.want {
		t.Fatalf("%s: status %d, want %d: %s", label, r.status, r.want, r.body)
	}
	switch rows, err := canonical(r.body); r.want {
	case http.StatusBadRequest:
		if msg := errorOf(r.body); !strings.HasPrefix(msg, r.wantErr) {
			t.Fatalf("%s: error %q, want %q", label, msg, r.wantErr)
		}
	case http.StatusOK:
		if want := r.row.oracle(t); err != nil || !bytes.Equal(rows, want) {
			t.Fatalf("%s: rows %s (%v), want the written-order plan's %s", label, rows, err, r.row.want)
		}
		var doc struct {
			ID    int64
			Rows  [][]any
			Stats []engine.OpStats
		}
		json.Unmarshal(r.body, &doc)
		getJSON(t, fmt.Sprintf("%s/jobs/%d", r.url, r.id), &r.view)
		// Statistics, and a "stats" key, come exactly when ?stats=1 asks.
		if msg, stats := r.row.answer(doc.Rows), len(doc.Stats) > 0; msg != "" || doc.ID != r.id || r.view.State != "succeeded" || r.view.Records != len(doc.Rows) || r.view.Stats == nil ||
			strings.HasSuffix(r.path.entry, "stats=1") != stats || bytes.Contains(r.body, []byte(`"stats"`)) != stats {
			t.Fatalf("%s: %s; job view %+v, %d operator statistics", label, msg, r.view, len(doc.Stats))
		}
	default:
		st, body := request(t, http.MethodGet, fmt.Sprintf("%s/jobs/%d/result", r.url, r.id), "")
		if !strings.Contains(r.view.Error, r.wantErr) || errorOf(r.body) != r.view.Error || st != r.want || errorOf(body) != r.view.Error {
			t.Fatalf("%s: error %q, want %q; GET result answers %d %s", label, r.view.Error, r.wantErr, st, body)
		}
	}
	for _, q := range map[string][]string{"GET?stream=1": {"", "&stats=1"}, "GET?stats=1": {"&stats=1"}}[r.path.entry] {
		bst, buffered := request(t, http.MethodGet, fmt.Sprintf("%s/jobs/%d/result?stream=0%s", r.url, r.id, q), "")
		if st, streamed := request(t, http.MethodGet, fmt.Sprintf("%s/jobs/%d/result?stream=1%s", r.url, r.id, q), ""); st != http.StatusOK || bst != st || !bytes.Equal(buffered, streamed) {
			t.Fatalf("%s: result?stream=1%s differs from the buffered one:\n%s\n%s", label, q, streamed, buffered)
		}
	}
	if r.id != 0 {
		checkTrace(t, r, label)
	}
}

// checkTrace checks the job's span tree, as JSON and as Chrome events: a
// closed root carrying the job's error, the lifecycle phases, and what the
// caches served.
func checkTrace(t *testing.T, r *outcome, label string) {
	t.Helper()
	var root obs.Node
	if st := getJSON(t, fmt.Sprintf("%s/jobs/%d/trace", r.url, r.id), &root); st != http.StatusOK || root.Kind != obs.KindJob || root.End.IsZero() || root.Err != r.view.Error {
		t.Fatalf("%s: trace %d, root %s %q closed %v, want the job span with %q", label, st, root.Kind, root.Err, !root.End.IsZero(), r.view.Error)
	}
	phases := map[string]string{}
	for _, c := range root.Children {
		if c.Kind == obs.KindPhase {
			phases[c.Name] = c.Detail
		}
	}
	compile := map[string]string{"cold": "doc=miss sources=0/", "off": "doc=miss sources=0/", "plan": "flow-cache hit doc=miss", "replay": "flow-cache hit doc=hit"}[r.path.cache]
	_, queued := phases["queue"]
	_, optimized := phases["optimize"]
	if _, ran := phases["run"]; !strings.HasPrefix(phases["compile"], compile) || (phases["optimize"] == "plan-cache hit") != (r.path.cache == "plan" || r.path.cache == "replay") ||
		!queued || !optimized || !ran && r.view.Error == "" {
		t.Fatalf("%s: phases %v after a %s submission", label, phases, r.path.cache)
	}
	var events []map[string]any
	bad := func(ev map[string]any) bool { return ev["ph"] != "X" || ev["name"] == "" }
	if st := getJSON(t, fmt.Sprintf("%s/jobs/%d/trace?format=chrome", r.url, r.id), &events); st != http.StatusOK || len(events) == 0 || slices.ContainsFunc(events, bad) {
		t.Fatalf("%s: chrome trace %d with %d events: %v", label, st, len(events), events)
	}
}

// registered is the highest job ID the server has registered.
func (s *server) registered() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxID
}

// oracle is the row's rows as canonical bytes: its flow in its written
// order, planned at DOP 1 with no budget and run on a bare engine.
func (r *row) oracle(t *testing.T) []byte {
	r.once.Do(func() {
		var tree *optimizer.Tree
		spec, err := jobs.ParseScriptJob([]byte(r.doc))
		if err == nil {
			tree, err = optimizer.FromFlow(spec.Flow)
		}
		if err == nil {
			e := engine.New(1)
			e.Sources = spec.Sources
			out, _, runErr := e.Run(optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(spec.Flow), 1).Optimize(tree))
			doc, _ := appendResult(nil, 0, out, nil)
			r.want, err = canonical(doc)
			err = errors.Join(runErr, err)
		}
		r.oracleErr = err
	})
	if r.oracleErr != nil {
		t.Fatalf("%s: the oracle: %v", r.name, r.oracleErr)
	}
	return r.want
}

// canonical is a result document's rows, compacted and sorted: one bag
// compares equal whatever order the partitions finished in.
func canonical(body []byte) ([]byte, error) {
	var doc struct{ Rows []json.RawMessage }
	err := json.Unmarshal(body, &doc)
	rows := make([][]byte, len(doc.Rows))
	for i, raw := range doc.Rows {
		var b bytes.Buffer
		json.Compact(&b, raw)
		rows[i] = b.Bytes()
	}
	slices.SortFunc(rows, bytes.Compare)
	return bytes.Join(rows, []byte("\n")), err
}

// request sends one request with the header's key/value pairs and returns
// the status and the body.
func request(t *testing.T, method, url, body string, header ...string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	for i := 0; err == nil && i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
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

// getJSON decodes GET url into out and returns the status.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	st, body := request(t, http.MethodGet, url, "")
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return st
}

// errorOf is the error a JSON answer carries.
func errorOf(body []byte) string {
	var v struct{ Error string }
	json.Unmarshal(body, &v)
	return v.Error
}

// TestServiceGolden pins the (test, row, path) tuples the suites declare.
// Regenerate with `go test ./cmd/flowserve -run TestServiceGolden -update`.
func TestServiceGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(suites)) {
		for _, tu := range slices.Sorted(maps.Keys(suites[name].tuples())) {
			b.WriteString(name + " " + tu + "\n")
		}
	}
	file := filepath.Join("testdata", "service.golden")
	if *update {
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(file); err != nil || b.String() != string(want) {
		t.Fatalf("the suites declare %d tuples, %s pins %d others (%v): regenerate it with -update and read the diff for lost cells",
			strings.Count(b.String(), "\n"), file, strings.Count(string(want), "\n"), err)
	}
}
