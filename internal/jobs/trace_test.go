package jobs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"blackboxflow/internal/obs"
)

// This file pins the scheduler's half of the tracing tentpole: every
// submitted job carries a span tree covering its whole lifecycle (compile
// for script jobs, admission wait, optimization, the engine run), cache
// hits are visible as span details, and the scheduler's histograms fill
// from real jobs.

// traceJSON renders tr as the JSON span tree GET /jobs/{id}/trace serves,
// for failure messages.
func traceJSON(tr *obs.Trace) string {
	b, _ := json.MarshalIndent(tr.Tree(), "", "  ")
	return string(b)
}

// phaseSpan returns the first phase span with the given name.
func phaseSpan(t *testing.T, tr *obs.Trace, name string) obs.Span {
	t.Helper()
	for _, s := range tr.Spans() {
		if s.Kind == obs.KindPhase && s.Name == name {
			return s
		}
	}
	t.Fatalf("no %q phase span; trace:\n%s", name, traceJSON(tr))
	return obs.Span{}
}

// TestJobTraceLifecycle runs the same script document twice and checks the
// span trees: the first run records compile, queue, optimize, and run
// phases with operator spans below the run, the optimize span carrying the
// enumeration's effort and the compile span what ingest had to decode; the
// second surfaces the flow-, source- and plan-cache hits in the
// corresponding spans' details, and the third the document replay (the
// document memo copies a document at its second sighting).
func TestJobTraceLifecycle(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, DOP: 2})
	run := func(label string) *Job {
		t.Helper()
		spec, err := s.ParseScriptJob([]byte(wordcountDoc))
		if err != nil {
			t.Fatal(err)
		}
		spec.Tenant = "acme"
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return j
	}

	first := run("first")
	tr := first.Trace()
	root := tr.Spans()[0]
	if root.Kind != obs.KindJob || root.End.IsZero() {
		t.Fatalf("root span not a closed job span: %+v", root)
	}
	if root.Err != "" || root.Records == 0 {
		t.Fatalf("clean job's root span: err=%q records=%d", root.Err, root.Records)
	}
	if !strings.Contains(root.Detail, `tenant="acme"`) || !strings.Contains(root.Detail, "succeeded") {
		t.Fatalf("root detail %q misses identity", root.Detail)
	}
	// The compile span says what ingest found cached: nothing on the first
	// run, so the one inline source's row bytes were parsed.
	compile := phaseSpan(t, tr, "compile")
	if compile.Detail != "doc=miss sources=0/1 decoded_bytes=78" {
		t.Fatalf("first compile span detail %q, want a full miss", compile.Detail)
	}
	if compile.End.Before(compile.Start) {
		t.Fatal("compile span ends before it starts")
	}
	queue := phaseSpan(t, tr, "queue")
	if queue.End.IsZero() {
		t.Fatal("queue span left open after admission")
	}
	// A plan-cache miss reports the enumeration it paid for: wordcount is
	// source → reduce → sink, one plan over three sub-flows, nothing to
	// exchange, and one candidate kept per sub-flow.
	if opt := phaseSpan(t, tr, "optimize"); opt.Detail != "plans=1 subflows=3 exchanges=0 kept=3" {
		t.Fatalf("first optimize span detail %q, want the enumeration stats", opt.Detail)
	}
	runSpan := phaseSpan(t, tr, "run")
	opSeen := false
	for _, sp := range tr.Spans() {
		if sp.Kind == obs.KindOp && sp.Parent == runSpan.ID {
			opSeen = true
		}
	}
	if !opSeen {
		t.Fatalf("no operator spans under the run phase; trace:\n%s", traceJSON(tr))
	}

	second := run("second")
	tr2 := second.Trace()
	if c := phaseSpan(t, tr2, "compile"); c.Detail != "flow-cache hit doc=miss sources=1/1 decoded_bytes=0" {
		t.Fatalf("second compile span detail %q, want cached flow and source", c.Detail)
	}
	if o := phaseSpan(t, tr2, "optimize"); o.Detail != "plan-cache hit" {
		t.Fatalf("second optimize span detail %q, want plan-cache hit", o.Detail)
	}
	third := run("third")
	if c := phaseSpan(t, third.Trace(), "compile"); c.Detail != "flow-cache hit doc=hit sources=1/1 decoded_bytes=0" {
		t.Fatalf("third compile span detail %q, want a replayed document", c.Detail)
	}

	// The traces are distinct objects: the second job must not have
	// recorded into the first's trace.
	if tr == tr2 {
		t.Fatal("jobs share a trace")
	}

	m := s.Metrics()
	if m.UptimeSec <= 0 {
		t.Fatalf("uptime %v", m.UptimeSec)
	}
	for _, name := range []string{"job_latency_seconds", "queue_wait_seconds", "shuffle_ship_seconds", "spill_run_bytes", "worker_ping_seconds"} {
		if _, ok := m.Histograms[name]; !ok {
			t.Fatalf("metrics missing histogram %q", name)
		}
	}
	if got := m.Histograms["job_latency_seconds"].Count; got != 3 {
		t.Fatalf("job latency histogram observed %d jobs, want 3", got)
	}
	if got := m.Histograms["queue_wait_seconds"].Count; got != 3 {
		t.Fatalf("queue wait histogram observed %d admissions, want 3", got)
	}
	if got := m.Histograms["shuffle_ship_seconds"].Count; got == 0 {
		t.Fatal("ship-time histogram empty after three shuffling jobs")
	}
}

// TestJobTraceCancelledWhileQueued pins the eviction path: a job cancelled
// before admission still ends with a closed root span carrying the
// cancellation error and a closed queue span.
func TestJobTraceCancelledWhileQueued(t *testing.T) {
	// One slot, held by a long job submitted first.
	s := New(Config{MaxConcurrent: 1, DOP: 2})
	blocker, err := s.Submit(groupSpec(t, 7, 4000, 50))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(groupSpec(t, 8, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if _, err := waitTerminal(t, victim, "victim"); err == nil {
		t.Fatal("cancelled job returned no error")
	}
	root := victim.Trace().Spans()[0]
	if root.End.IsZero() || !strings.Contains(root.Err, "cancelled") {
		t.Fatalf("cancelled root span: end=%v err=%q", root.End, root.Err)
	}
	for _, sp := range victim.Trace().Spans() {
		if sp.End.IsZero() {
			t.Fatalf("span %q left open on a queue-evicted job", sp.Name)
		}
	}
	if _, err := waitTerminal(t, blocker, "blocker"); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerWorkerNetMetrics pins the worker stats seam end to end at
// the scheduler level: with a live worker fleet, a health sweep populates
// per-worker RTT/traffic stats and the ping histogram. (Named
// 'SchedulerWorker' so the CI distributed job runs it.)
func TestSchedulerWorkerNetMetrics(t *testing.T) {
	addrs, _ := startTestWorkers(t, 2)
	// A short health TTL so the second job's dispatch sweep re-pings the
	// fleet and collects the relay traffic the first job generated.
	s := New(Config{MaxConcurrent: 1, DOP: 4, Workers: addrs})
	s.workers.ttl = time.Millisecond
	var j *Job
	for i := 0; i < 2; i++ {
		var err error
		j, err = s.Submit(groupSpec(t, 11, 3000, 60))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitTerminal(t, j, "distributed job"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // let the TTL lapse between jobs
	}
	m := s.Metrics()
	if len(m.WorkerNet) != len(addrs) {
		t.Fatalf("worker net stats for %d workers, want %d: %+v", len(m.WorkerNet), len(addrs), m.WorkerNet)
	}
	var frames int64
	for addr, st := range m.WorkerNet {
		if st.RTTSeconds <= 0 {
			t.Fatalf("worker %s RTT %v", addr, st.RTTSeconds)
		}
		frames += st.Frames
	}
	if frames == 0 {
		t.Fatal("no relay traffic recorded across the fleet after a distributed job")
	}
	if m.Histograms["worker_ping_seconds"].Count == 0 {
		t.Fatal("ping histogram empty after health sweeps")
	}
	// The job's trace carries per-worker transport spans.
	transport := 0
	for _, sp := range j.Trace().Spans() {
		if sp.Kind == obs.KindTransport && sp.Worker != "" {
			transport++
		}
	}
	if transport == 0 {
		t.Fatalf("no transport spans in a distributed job's trace:\n%s", traceJSON(j.Trace()))
	}
}

// TestSchedulerWorkerBroadcastTraceSpans pins a distributed broadcast edge
// in a job's trace: run → operator → ship → broadcast (bytes and the
// un-replicated record count) → one transport span per worker. (Named
// 'SchedulerWorker' so the CI distributed job runs it.)
func TestSchedulerWorkerBroadcastTraceSpans(t *testing.T) {
	addrs, _ := startTestWorkers(t, 2)
	s := New(Config{MaxConcurrent: 1, DOP: 4, Workers: addrs})
	const lN = 500
	j, err := s.Submit(broadcastJoinSpec(t, lN, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitTerminal(t, j, "broadcast job"); err != nil {
		t.Fatal(err)
	}
	tr := j.Trace()
	spans := tr.Spans()
	var bc obs.Span
	for _, sp := range spans {
		if sp.Kind == obs.KindShip && sp.Name == "broadcast" {
			bc = sp
		}
	}
	if bc.ID == 0 {
		t.Fatalf("no broadcast span — the plan did not broadcast:\n%s", traceJSON(tr))
	}
	ship := spans[bc.Parent]
	op := spans[ship.Parent]
	if ship.Kind != obs.KindShip || ship.Name != "ship" || op.Kind != obs.KindOp || op.Name != "pair" || op.Parent != phaseSpan(t, tr, "run").ID {
		t.Fatalf("broadcast span hangs under %s %q under %s %q, want ship under operator pair under the run phase:\n%s",
			ship.Kind, ship.Name, op.Kind, op.Name, traceJSON(tr))
	}
	if bc.Records != lN || bc.Bytes == 0 || bc.Bytes != ship.Bytes {
		t.Fatalf("broadcast span carries %d records / %d bytes under a ship span of %d bytes, want %d records and all of the bytes", bc.Records, bc.Bytes, ship.Bytes, lN)
	}
	workers := map[string]bool{}
	for _, sp := range spans {
		if sp.Kind == obs.KindTransport && sp.Parent == bc.ID && sp.Bytes > 0 {
			workers[sp.Worker] = true
		}
	}
	if len(workers) != len(addrs) {
		t.Fatalf("transport spans under the broadcast cover %d workers, want %d:\n%s", len(workers), len(addrs), traceJSON(tr))
	}
}
