package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blackboxflow/internal/jobs"
)

// The tests of this file pin the registry's eviction and how a submission's
// body is read: what they check is the server's bookkeeping, not a path of
// a document to its answer.

// waitRun runs wordcountDoc with ?wait=1 on the server at url, its first,
// second or a later submission there, and returns the job's ID.
func waitRun(t *testing.T, srv *server, url string) int64 {
	t.Helper()
	p := path{"POST?wait=1", []string{"cold", "plan", "replay"}[min(srv.registered(), 2)], "none"}
	r := (&harness{}).submit(t, srv, url, "wordcount", p, true)
	(&harness{}).finish(t, r)
	return r.id
}

// TestRegistryEviction: terminal jobs beyond the registry capacity are
// evicted oldest-finished first; their IDs answer 410 Gone while
// never-issued IDs stay 404.
func TestRegistryEviction(t *testing.T) {
	srv, url := (&harness{suite: suite{cfg: cfg2}}).server(t, waitPath)
	srv.maxJobs = 2
	ids := []int64{waitRun(t, srv, url), waitRun(t, srv, url), waitRun(t, srv, url)}
	// The third registration pushed the registry to 3 > 2 and evicted the
	// oldest finished job (the first).
	for path, want := range map[string]int{
		fmt.Sprintf("/jobs/%d", ids[0]): http.StatusGone, fmt.Sprintf("/jobs/%d/result", ids[0]): http.StatusGone,
		fmt.Sprintf("/jobs/%d", ids[1]): http.StatusOK, fmt.Sprintf("/jobs/%d", ids[2]): http.StatusOK, "/jobs/999": http.StatusNotFound,
	} {
		if st, _ := request(t, http.MethodGet, url+path, ""); st != want {
			t.Errorf("GET %s: status %d, want %d", path, st, want)
		}
	}
	// TTL eviction: age everything out; the next registration sweeps.
	srv.jobTTL = time.Nanosecond
	time.Sleep(10 * time.Millisecond)
	waitRun(t, srv, url)
	for _, id := range ids[1:] {
		if st, _ := request(t, http.MethodGet, fmt.Sprintf("%s/jobs/%d", url, id), ""); st != http.StatusGone {
			t.Errorf("TTL-expired job %d status = %d, want 410", id, st)
		}
	}
}

// TestRegistryWalkOnlyWhenEvictable: registering a job walks the registry
// (a scheduler-lock round trip per retained job) only when the walk could
// evict something — not on every submission of a burst that stays under
// the cap with nothing near its TTL.
func TestRegistryWalkOnlyWhenEvictable(t *testing.T) {
	srv, url := (&harness{suite: suite{cfg: cfg2}}).server(t, waitPath)
	state := func() (walks, retained int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.walks, len(srv.byID)
	}
	for range 8 {
		waitRun(t, srv, url)
	}
	if n, _ := state(); n != 0 {
		t.Fatalf("%d registry walks for 8 submissions under the cap with nothing expired, want 0", n)
	}
	// Over the cap, the next registration walks and evicts down to it.
	srv.mu.Lock()
	srv.maxJobs = 4
	srv.mu.Unlock()
	waitRun(t, srv, url)
	if n, retained := state(); n != 1 || retained != 4 {
		t.Fatalf("over the cap: %d walks, %d jobs retained, want 1 and 4", n, retained)
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
	for name, contentLength := range map[string]int64{
		"exact": int64(len(wordcountDoc)), "chunked": -1, "understated": 10, "overstated": int64(len(wordcountDoc)) + 1<<20,
	} {
		if rec := submit(strings.NewReader(wordcountDoc), contentLength); rec.Code != http.StatusOK {
			t.Errorf("%s Content-Length: status %d, body %s", name, rec.Code, rec.Body)
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
