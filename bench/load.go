package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// driver is the load generator for one workload on one fleet: a closed
// loop of `clients` callers, each with one keep-alive connection, each
// sending its next document only after the previous answer was verified.
type driver struct {
	fleet *fleet
	set   *docSet
	conns []*http.Client

	// cursor hands out documents in order across all clients, so a
	// multi-document workload cycles through its set exactly in sequence.
	cursor atomic.Int64
	// seen marks documents whose answer was already compared row for row;
	// later responses are held to row count and checksum only.
	seen []atomic.Bool
}

func newDriver(f *fleet, set *docSet) *driver {
	d := &driver{fleet: f, set: set, seen: make([]atomic.Bool, len(set.Docs))}
	for i := 0; i < clients; i++ {
		d.conns = append(d.conns, &http.Client{
			Timeout:   jobTimeoutSecs * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		})
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.conns {
		c.CloseIdleConnections()
	}
}

// reply is one answered submission as the client saw it.
type reply struct {
	ID   int64             `json:"id"`
	Rows []json.RawMessage `json:"rows"`

	start, wrote, firstByte, end time.Time
	seq                          int // position in the workload's document sequence
}

// post submits the next document with ?wait=1 and reads the whole answer.
// With timed set it also stamps when the request body was written and when
// the first response byte arrived.
func (d *driver) post(c *http.Client, timed bool) (*reply, error) {
	r := &reply{seq: int(d.cursor.Add(1) - 1)}
	req, err := http.NewRequest(http.MethodPost, d.fleet.base+"/jobs?wait=1", bytes.NewReader(d.set.Docs[r.seq%len(d.set.Docs)]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if timed {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { r.wrote = time.Now() },
			GotFirstResponseByte: func() { r.firstByte = time.Now() },
		}))
	}
	r.start = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	if err != nil {
		return nil, fmt.Errorf("reading answer: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /jobs: %s: %.300s", resp.Status, body)
	}
	if err := json.Unmarshal(body, r); err != nil {
		return nil, fmt.Errorf("bad answer: %w", err)
	}
	return r, nil
}

// verify checks an answer against the document's reference bag.
func (d *driver) verify(r *reply) error {
	doc := r.seq % len(d.set.Docs)
	full := !d.seen[doc].Swap(true)
	if err := d.set.Want[doc].check(r.Rows, full); err != nil {
		return fmt.Errorf("job %d (document %d): wrong answer: %w", r.ID, doc, err)
	}
	return nil
}

// loadStats is what one phase of load produced.
type loadStats struct {
	Attempted, Failed int
	LatenciesMS       []float64 // client-observed, verified jobs only
	Elapsed           time.Duration
	ResultRows        int
	LastID            int64 // a job of this phase, for one status lookup
	FirstErr          error
	Traces            []*jobTrace // traced phases only
}

// each runs one closed loop per client until more reports false, merging
// what the clients saw. more is called before every submission with the
// number of jobs that client has sent so far.
func (d *driver) each(traced bool, more func(sent int) bool) *loadStats {
	start := time.Now()
	var mu sync.Mutex
	total := &loadStats{}
	var wg sync.WaitGroup
	for i, c := range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := &loadStats{}
			for sent := 0; more(sent); sent++ {
				local.Attempted++
				var err error
				var r *reply
				if traced {
					var t *jobTrace
					if t, r, err = d.tracedJob(c, i); t != nil {
						local.Traces = append(local.Traces, t)
					}
				} else if r, err = d.post(c, false); err == nil {
					err = d.verify(r)
				}
				if err != nil {
					local.Failed++
					if local.FirstErr == nil {
						local.FirstErr = err
					}
					continue
				}
				local.LatenciesMS = append(local.LatenciesMS, float64(r.end.Sub(r.start))/float64(time.Millisecond))
				local.ResultRows, local.LastID = len(r.Rows), r.ID
			}
			mu.Lock()
			defer mu.Unlock()
			total.Attempted += local.Attempted
			total.Failed += local.Failed
			total.LatenciesMS = append(total.LatenciesMS, local.LatenciesMS...)
			total.Traces = append(total.Traces, local.Traces...)
			total.ResultRows = max(total.ResultRows, local.ResultRows)
			total.LastID = max(total.LastID, local.LastID)
			if total.FirstErr == nil {
				total.FirstErr = local.FirstErr
			}
		}()
	}
	wg.Wait()
	total.Elapsed = time.Since(start)
	return total
}

// warmup sends the counted warm-up: a fixed number of jobs per client, so
// caches fill and lazy set-up finishes identically on every commit.
func (d *driver) warmup() error {
	st := d.each(false, func(sent int) bool { return sent < warmupPerConn })
	if st.Failed > 0 {
		return fmt.Errorf("warm-up: %d of %d jobs failed: %w", st.Failed, st.Attempted, st.FirstErr)
	}
	return nil
}

// window runs the closed loop for a fixed time, and past it until every
// client has sent minPerClient jobs. Jobs in flight when the time is up
// finish and count; Elapsed covers them.
func (d *driver) window(length time.Duration, traced bool, minPerClient int) *loadStats {
	deadline := time.Now().Add(length)
	return d.each(traced, func(sent int) bool { return sent < minPerClient || time.Now().Before(deadline) })
}
