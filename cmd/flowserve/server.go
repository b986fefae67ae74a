package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/jobs"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/record"
)

// maxJobDocBytes bounds a submitted job document (script + inline data).
const maxJobDocBytes = 64 << 20

// streamFlushEvery is how many rows the streaming result writer emits
// between flushes, so clients see early rows while the tail is still
// being written.
const streamFlushEvery = 64

// Registry-eviction defaults (overridable via flags in main.go).
const (
	defaultJobTTL  = 15 * time.Minute
	defaultMaxJobs = 4096
)

// server is the HTTP front door over a jobs.Scheduler. It keeps submitted
// jobs in memory by ID so results and statistics stay pollable after
// completion — but not forever: terminal jobs are evicted once they
// outlive jobTTL or the registry grows past maxJobs (oldest-finished
// first), so sustained traffic cannot grow the registry without bound.
// Requests for an evicted ID get 410 Gone; never-issued IDs get 404.
type server struct {
	sched    *jobs.Scheduler
	draining atomic.Bool

	jobTTL  time.Duration // how long terminal jobs stay pollable (0 = forever)
	maxJobs int           // registry size that triggers eviction (0 = unbounded)

	mu    sync.Mutex
	byID  map[int64]*jobs.Job
	maxID int64 // highest job ID ever registered; IDs ≤ maxID were real jobs
	// oldestDone is no later than the finish time of any retained job, as of
	// the last registry walk; until it is jobTTL old, nothing has expired.
	oldestDone time.Time
	walks      int // registry walks so far (read by tests)
}

func newServer(sched *jobs.Scheduler) *server {
	return &server{
		sched:      sched,
		byID:       map[int64]*jobs.Job{},
		jobTTL:     defaultJobTTL,
		maxJobs:    defaultMaxJobs,
		oldestDone: time.Now(),
	}
}

// register adds a job to the registry and evicts stale terminal jobs. The
// registry is walked — one scheduler-lock round trip per retained job —
// only when something can be evicted: it is over maxJobs, or the oldest
// finish time the last walk noted has outlived jobTTL.
func (s *server) register(j *jobs.Job) {
	s.mu.Lock()
	s.byID[j.ID] = j
	if j.ID > s.maxID {
		s.maxID = j.ID
	}
	now := time.Now()
	if (s.maxJobs > 0 && len(s.byID) > s.maxJobs) || (s.jobTTL > 0 && now.Sub(s.oldestDone) > s.jobTTL) {
		s.evictLocked(now)
	}
	s.mu.Unlock()
}

// evictLocked drops terminal jobs that outlived jobTTL and, while the
// registry exceeds maxJobs, the oldest-finished terminal jobs. Queued and
// running jobs are never evicted. Caller holds s.mu.
func (s *server) evictLocked(now time.Time) {
	s.walks++
	type doneJob struct {
		id int64
		at time.Time
	}
	var terminal []doneJob
	// A job still queued or running finishes after now.
	s.oldestDone = now
	for id, j := range s.byID {
		at := j.Finished()
		if at.IsZero() {
			continue
		}
		if s.jobTTL > 0 && now.Sub(at) > s.jobTTL {
			delete(s.byID, id)
			continue
		}
		if at.Before(s.oldestDone) {
			s.oldestDone = at
		}
		terminal = append(terminal, doneJob{id, at})
	}
	if s.maxJobs <= 0 || len(s.byID) <= s.maxJobs {
		return
	}
	sort.Slice(terminal, func(a, b int) bool { return terminal[a].at.Before(terminal[b].at) })
	for _, d := range terminal {
		if len(s.byID) <= s.maxJobs {
			break
		}
		delete(s.byID, d.id)
	}
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// jobView is the status JSON of one job.
type jobView struct {
	ID      int64            `json:"id"`
	Name    string           `json:"name,omitempty"`
	Tenant  string           `json:"tenant,omitempty"`
	State   string           `json:"state"`
	Grant   int              `json:"grant_bytes"`
	Error   string           `json:"error,omitempty"`
	Records int              `json:"records,omitempty"`
	Stats   []engine.OpStats `json:"stats,omitempty"`
}

func viewOf(j *jobs.Job) jobView {
	v := jobView{ID: j.ID, Name: j.Name(), Tenant: j.Tenant(), State: j.State().String(), Grant: j.Grant()}
	out, stats, err := j.Result()
	if errors.Is(err, jobs.ErrNotFinished) {
		return v
	}
	if err != nil {
		v.Error = err.Error()
	}
	v.Records = len(out)
	if stats != nil {
		v.Stats = stats.PerOp
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The status line is out the door; all we can do is make the
		// truncation visible instead of silently serving a partial body.
		slog.Warn("writing response", "err", err)
	}
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// failureStatus maps a terminal-with-error job to its HTTP status: a
// cancelled job is a client-driven outcome (409 Conflict), while a failed
// one — a disk fault mid-spill, a UDF error, a deadline — is the runtime's
// failure to deliver the result (500, with the run's error in the body).
func failureStatus(j *jobs.Job) int {
	if j.State() == jobs.StateFailed {
		return http.StatusInternalServerError
	}
	return http.StatusConflict
}

// readJobDoc reads a submitted document, or its first maxJobDocBytes+1 bytes
// — enough for the caller to see it is over the limit. A Content-Length
// within the limit sizes the buffer once, where growing by doubling copied a
// multi-megabyte document several times over; the header is only a hint —
// a body longer than it declared still grows the buffer, a shorter one
// leaves part of it unused — and without one (chunked) the buffer grows as
// it always did.
func readJobDoc(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxJobDocBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare bytes to see EOF
	}
	_, err := buf.ReadFrom(io.LimitReader(r.Body, maxJobDocBytes+1))
	return buf.Bytes(), err
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	raw, err := readJobDoc(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(raw) > maxJobDocBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, "job document exceeds %d bytes", maxJobDocBytes)
		return
	}
	// Parse ?wait as a boolean up front: wait=0 and wait=false mean
	// asynchronous (the zero-value reading), and a malformed value fails
	// before the job is submitted rather than after.
	wait := false
	if v := r.URL.Query().Get("wait"); v != "" {
		var err error
		if wait, err = strconv.ParseBool(v); err != nil {
			writeErr(w, http.StatusBadRequest, "bad wait value %q (want a boolean)", v)
			return
		}
	}
	spec, err := s.sched.ParseScriptJob(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if t := r.Header.Get("X-Tenant"); t != "" {
		spec.Tenant = t
	}
	j, err := s.sched.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull),
		errors.Is(err, jobs.ErrTenantQuota),
		errors.Is(err, jobs.ErrBackpressure):
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, jobs.ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.register(j)

	// Synchronous mode: ?wait=1 holds the request open until the job
	// finishes and returns its rows inline. If the client disconnects
	// while waiting, the request context cancels and the job is cancelled
	// with it — an abandoned job must not keep burning its budget grant.
	if wait {
		out, _, err := j.Wait(r.Context())
		if r.Context().Err() != nil {
			j.Cancel()
			return // the connection is gone; nothing to write
		}
		if err != nil {
			writeJSON(w, failureStatus(j), viewOf(j))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id":   j.ID,
			"rows": jobs.EncodeRows(out),
		})
		return
	}
	writeJSON(w, http.StatusAccepted, viewOf(j))
}

func (s *server) job(w http.ResponseWriter, r *http.Request) *jobs.Job {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return nil
	}
	s.mu.Lock()
	j := s.byID[id]
	wasIssued := id > 0 && id <= s.maxID
	s.mu.Unlock()
	if j == nil {
		if wasIssued {
			writeErr(w, http.StatusGone, "job %d was evicted from the registry", id)
		} else {
			writeErr(w, http.StatusNotFound, "no job %d", id)
		}
		return nil
	}
	return j
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, viewOf(j))
	}
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	stream := false
	if v := r.URL.Query().Get("stream"); v != "" {
		var err error
		if stream, err = strconv.ParseBool(v); err != nil {
			writeErr(w, http.StatusBadRequest, "bad stream value %q (want a boolean)", v)
			return
		}
	}
	withStats := false
	if v := r.URL.Query().Get("stats"); v != "" {
		var err error
		if withStats, err = strconv.ParseBool(v); err != nil {
			writeErr(w, http.StatusBadRequest, "bad stats value %q (want a boolean)", v)
			return
		}
	}
	out, stats, err := j.Result()
	// ?stats=1 appends the run's per-operator statistics to the result
	// document (both the buffered and the streaming form; their bytes stay
	// identical because "stats" sorts after "id" and "rows" in the buffered
	// map encoding).
	var perOp []engine.OpStats
	if withStats && stats != nil {
		perOp = stats.PerOp
	}
	switch {
	case errors.Is(err, jobs.ErrNotFinished):
		writeJSON(w, http.StatusAccepted, viewOf(j))
	case err != nil:
		writeJSON(w, failureStatus(j), viewOf(j))
	case stream:
		streamResult(w, j.ID, out, perOp)
	default:
		doc := map[string]any{
			"id":   j.ID,
			"rows": jobs.EncodeRows(out),
		}
		if perOp != nil {
			doc["stats"] = perOp
		}
		writeJSON(w, http.StatusOK, doc)
	}
}

// handleTrace serves the job's span tree: nested JSON by default,
// Chrome trace_event format (openable in Perfetto or chrome://tracing)
// with ?format=chrome. The trace is readable at any job state — live spans
// of a running job simply have no end time yet.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	tr := j.Trace()
	if tr == nil {
		writeErr(w, http.StatusNotFound, "job %d has no trace", j.ID)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteChromeTrace(w); err != nil {
			slog.Warn("writing chrome trace", "job", j.ID, "err", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, tr.Tree())
}

// streamResult writes the result document incrementally, row by row, with
// periodic flushes — the client sees the first rows while later ones are
// still being encoded, and the server never materializes the full
// jobs.EncodeRows slice or its JSON encoding. The bytes produced are
// identical to the buffered handler's output (pinned by
// TestResultStreamingMatchesBuffered): rows sit at the same indentation
// json.Encoder's SetIndent("", "  ") produces, via json.Indent with the
// row's nesting prefix.
func streamResult(w http.ResponseWriter, id int64, out record.DataSet, perOp []engine.OpStats) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var buf bytes.Buffer
	fail := func(err error) { slog.Warn("streaming result", "job", id, "err", err) }
	if _, err := fmt.Fprintf(w, "{\n  \"id\": %d,\n  \"rows\": [", id); err != nil {
		fail(err)
		return
	}
	for i, rec := range out {
		b, err := json.Marshal(jobs.EncodeRow(rec))
		if err != nil {
			fail(err)
			return
		}
		buf.Reset()
		sep := ",\n    "
		if i == 0 {
			sep = "\n    "
		}
		buf.WriteString(sep)
		if err := json.Indent(&buf, b, "    ", "  "); err != nil {
			fail(err)
			return
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			fail(err)
			return
		}
		if flusher != nil && (i+1)%streamFlushEvery == 0 {
			flusher.Flush()
		}
	}
	closeRows := "]"
	if len(out) > 0 {
		closeRows = "\n  ]"
	}
	if _, err := io.WriteString(w, closeRows); err != nil {
		fail(err)
		return
	}
	if perOp != nil {
		b, err := json.Marshal(perOp)
		if err != nil {
			fail(err)
			return
		}
		buf.Reset()
		buf.WriteString(",\n  \"stats\": ")
		if err := json.Indent(&buf, b, "  ", "  "); err != nil {
			fail(err)
			return
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			fail(err)
			return
		}
	}
	if _, err := io.WriteString(w, "\n}\n"); err != nil {
		fail(err)
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		j.Cancel()
		writeJSON(w, http.StatusOK, viewOf(j))
	}
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, 0, len(s.byID))
	for _, j := range s.byID {
		v := viewOf(j)
		v.Stats = nil // keep listings light; per-job status has the details
		views = append(views, v)
	}
	s.mu.Unlock()
	sort.Slice(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	writeJSON(w, http.StatusOK, views)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.sched.Metrics()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, m)
	case "prom":
		w.Header().Set("Content-Type", obs.PromContentType)
		if err := writeProm(w, m); err != nil {
			slog.Warn("writing prometheus metrics", "err", err)
		}
	default:
		writeErr(w, http.StatusBadRequest, "bad format %q (want json or prom)", format)
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
