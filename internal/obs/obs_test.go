package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("wordcount")
	run := tr.Begin(tr.Root(), "run", KindPhase)
	op := tr.Begin(run, "reduce-counts", KindOp)
	ship := tr.Begin(op, "ship", KindShip)
	tr.EndWith(ship, func(s *Span) { s.Bytes = 4096 })
	local := tr.Begin(op, "local", KindLocal)
	tr.End(local)
	tr.End(op)
	tr.End(run)
	tr.EndWith(tr.Root(), nil)

	if got := tr.Len(); got != 5 {
		t.Fatalf("span count = %d, want 5", got)
	}
	root := tr.Tree()
	if root.Name != "wordcount" || root.Kind != KindJob {
		t.Fatalf("root = %q/%q", root.Name, root.Kind)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "run" {
		t.Fatalf("root children = %+v", root.Children)
	}
	opNode := root.Children[0].Children[0]
	if opNode.Name != "reduce-counts" || len(opNode.Children) != 2 {
		t.Fatalf("op node = %+v", opNode)
	}
	if opNode.Children[0].Bytes != 4096 {
		t.Fatalf("ship bytes = %d", opNode.Children[0].Bytes)
	}
	for _, s := range tr.Spans() {
		if s.End.IsZero() {
			t.Fatalf("span %q left open", s.Name)
		}
		if s.End.Before(s.Start) {
			t.Fatalf("span %q ends before it starts", s.Name)
		}
	}
}

func TestTraceFailAndImport(t *testing.T) {
	tr := NewTrace("job")
	tr.Fail(tr.Root(), errors.New("disk full"))
	spans := tr.Spans()
	if spans[0].Err != "disk full" {
		t.Fatalf("root err = %q", spans[0].Err)
	}

	now := time.Now()
	id := tr.Import(tr.Root(), Span{
		Name: "p3", Kind: KindSpill,
		Start: now.Add(-time.Second), End: now,
		Bytes: 100, Runs: 2,
	})
	got := tr.Spans()[id]
	if got.Parent != tr.Root() || got.Bytes != 100 || got.Runs != 2 {
		t.Fatalf("imported span = %+v", got)
	}
	if got.Duration() != time.Second {
		t.Fatalf("imported duration = %v", got.Duration())
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	id := tr.Begin(0, "x", KindOp)
	tr.End(id)
	tr.EndWith(id, func(s *Span) { s.Bytes = 1 })
	tr.Fail(id, errors.New("x"))
	tr.Import(0, Span{})
	tr.Reset("x")
	if tr.Len() != 0 || tr.Spans() != nil || tr.Tree() != nil {
		t.Fatal("nil trace should be empty")
	}
}

func TestTraceReset(t *testing.T) {
	tr := NewTrace("a")
	for i := 0; i < 10; i++ {
		tr.End(tr.Begin(tr.Root(), "op", KindOp))
	}
	tr.Reset("b")
	if tr.Len() != 1 {
		t.Fatalf("len after reset = %d", tr.Len())
	}
	if got := tr.Spans()[0]; got.Name != "b" || got.Kind != KindJob || !got.End.IsZero() {
		t.Fatalf("root after reset = %+v", got)
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTrace("job")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.Begin(tr.Root(), "op", KindOp)
				tr.EndWith(id, func(s *Span) { s.Records = int64(i) })
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != 801 {
		t.Fatalf("span count = %d, want 801", got)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTrace("job")
	op := tr.Begin(tr.Root(), "join", KindOp)
	tr.Import(op, Span{Name: "127.0.0.1:9", Kind: KindTransport,
		Start: time.Now(), End: time.Now(), Bytes: 10, Frames: 2, Worker: "127.0.0.1:9"})
	tr.End(op)
	tr.End(tr.Root())

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 3 {
		t.Fatalf("event count = %d", len(events))
	}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Fatalf("phase = %v, want X", e["ph"])
		}
		if _, ok := e["ts"].(float64); !ok {
			t.Fatalf("ts missing in %v", e)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 2} // ≤1: {0.5, 1}; ≤10: {5}; ≤100: {50}; +Inf: {500, 5000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-5556.5) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 700))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d", s.Count)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != 8000 {
		t.Fatalf("bucket total = %d", total)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	var eh *EngineHists
	_ = eh // EngineHists members are checked at observation sites.
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// promTextValid is a line validator for the Prometheus text exposition
// format (0.0.4): comments, blank lines, and `name{labels} value` samples.
var promTextValid = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+([-+0-9eE]+)?` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|-Inf|NaN)` +
		`|)$`)

func TestPromExposition(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Counter("flow_jobs_total", "Jobs submitted.", 42)
	p.Gauge("flow_jobs_running", "Running jobs.", 3)
	p.GaugeVec("flow_tenant_running", "Per-tenant running.", []LabeledValue{
		{Labels: map[string]string{"tenant": `b"x\`}, Value: 2},
		{Labels: map[string]string{"tenant": "a"}, Value: 1},
	})
	h := NewHistogram([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(50)
	p.Histogram("flow_job_seconds", "Job latency.", h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, line := range strings.Split(out, "\n") {
		if !promTextValid.MatchString(line) {
			t.Fatalf("invalid exposition line %q in:\n%s", line, out)
		}
	}
	for _, want := range []string{
		"# TYPE flow_jobs_total counter",
		"flow_jobs_total 42",
		"# TYPE flow_job_seconds histogram",
		`flow_job_seconds_bucket{le="0.1"} 1`,
		`flow_job_seconds_bucket{le="1"} 2`,
		`flow_job_seconds_bucket{le="+Inf"} 3`,
		"flow_job_seconds_sum 50.55",
		"flow_job_seconds_count 3",
		`flow_tenant_running{tenant="a"} 1`,
		`flow_tenant_running{tenant="b\"x\\"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Tenant "a" sorts before the escaped tenant.
	if strings.Index(out, `tenant="a"`) > strings.Index(out, `tenant="b`) {
		t.Fatalf("gauge vec not sorted:\n%s", out)
	}
}

func TestPromHistogramEmptySnapshot(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Histogram("flow_empty", "Empty.", HistSnapshot{})
	if !strings.Contains(buf.String(), `flow_empty_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty histogram missing +Inf bucket:\n%s", buf.String())
	}
}
