package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SpanID indexes a span within its Trace. The root span is always ID 0;
// NoParent marks the root's parent slot. IDs are stable for the lifetime of
// the trace (spans are never removed), so they can be held across
// goroutines and used after the fact.
type SpanID int32

// NoParent is the Parent value of a root span.
const NoParent SpanID = -1

// Span is one timed region of a job's execution. Spans form a tree via
// Parent; the flat encoding keeps recording O(1) and lets callers rebuild
// the tree (Tree) or stream it to other formats (WriteChromeTrace).
//
// The counter fields are optional attributes; zero values are omitted from
// JSON. Err marks the span failed with the attributed error text.
type Span struct {
	ID      SpanID    `json:"id"`
	Parent  SpanID    `json:"parent"`
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Bytes   int64     `json:"bytes,omitempty"`
	Frames  int64     `json:"frames,omitempty"`
	Records int64     `json:"records,omitempty"`
	Calls   int64     `json:"calls,omitempty"`
	Runs    int64     `json:"runs,omitempty"`
	Worker  string    `json:"worker,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	Err     string    `json:"error,omitempty"`
}

// Duration is End-Start, or the time elapsed so far for an open span.
func (s *Span) Duration() time.Duration {
	if s.End.IsZero() {
		return time.Since(s.Start)
	}
	return s.End.Sub(s.Start)
}

// Trace is a lock-cheap span recorder for one job. All methods are safe on
// a nil receiver (they no-op and return the zero SpanID), so untraced code
// paths — engines without a scheduler, benchmarks with tracing disabled —
// pay only a nil check. Recording methods take one short mutex-guarded
// critical section each; spans are recorded at operator/phase granularity,
// never per record, so contention is negligible.
type Trace struct {
	mu    sync.Mutex
	spans []Span
}

// spanPrealloc is the initial span capacity: enough for the service-tier
// phases plus a dozen operators with per-phase and per-partition children
// without growing the slice mid-job.
const spanPrealloc = 64

// NewTrace creates a trace whose root span (ID 0, kind "job") opens now
// with the given name.
func NewTrace(name string) *Trace {
	t := &Trace{spans: make([]Span, 0, spanPrealloc)}
	t.spans = append(t.spans, Span{
		ID:     0,
		Parent: NoParent,
		Name:   name,
		Kind:   KindJob,
		Start:  time.Now(),
	})
	return t
}

// Root returns the root span's ID. Defined for readability at call sites;
// always 0.
func (t *Trace) Root() SpanID { return 0 }

// Begin opens a child span under parent and returns its ID.
func (t *Trace) Begin(parent SpanID, name, kind string) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{
		ID:     id,
		Parent: parent,
		Name:   name,
		Kind:   kind,
		Start:  time.Now(),
	})
	t.mu.Unlock()
	return id
}

// End closes span id now. Closing an already-closed span keeps the first
// end time.
func (t *Trace) End(id SpanID) { t.EndWith(id, nil) }

// EndWith closes span id now and, if mut is non-nil, applies it to the
// span under the trace lock (to attach counters, detail, or an error).
func (t *Trace) EndWith(id SpanID, mut func(*Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		s := &t.spans[id]
		if s.End.IsZero() {
			s.End = time.Now()
		}
		if mut != nil {
			mut(s)
		}
	}
	t.mu.Unlock()
}

// Fail closes span id with err attributed to it. A nil err is an ordinary
// End.
func (t *Trace) Fail(id SpanID, err error) {
	if err == nil {
		t.End(id)
		return
	}
	t.EndWith(id, func(s *Span) { s.Err = err.Error() })
}

// Import records a pre-timed span — one whose interval and counters were
// accumulated in goroutine-local state (per-partition spill locals,
// transport wire counters) and are folded into the trace after the fact.
// The span's ID and Parent-if-unset are assigned here; Start/End must be
// set by the caller.
func (t *Trace) Import(parent SpanID, s Span) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := SpanID(len(t.spans))
	s.ID = id
	s.Parent = parent
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// Len reports the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the flat span table.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Reset truncates the trace to a fresh root span named name, keeping the
// allocated span capacity. Benchmarks reuse one trace across iterations
// this way; the scheduler instead drops the whole trace with the job.
func (t *Trace) Reset(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.spans = append(t.spans, Span{
		ID:     0,
		Parent: NoParent,
		Name:   name,
		Kind:   KindJob,
		Start:  time.Now(),
	})
	t.mu.Unlock()
}

// Node is a span with its children resolved, for the nested JSON view.
type Node struct {
	Span
	Children []*Node `json:"children,omitempty"`
}

// Tree rebuilds the span tree from the flat table. Children appear in
// recording order. Orphans (spans whose parent is out of range) attach to
// the root so nothing is silently dropped.
func (t *Trace) Tree() *Node {
	spans := t.Spans()
	if len(spans) == 0 {
		return nil
	}
	nodes := make([]*Node, len(spans))
	for i := range spans {
		nodes[i] = &Node{Span: spans[i]}
	}
	for i := 1; i < len(nodes); i++ {
		p := int(nodes[i].Parent)
		if p < 0 || p >= len(nodes) || p == i {
			p = 0
		}
		nodes[p].Children = append(nodes[p].Children, nodes[i])
	}
	return nodes[0]
}

// WriteChromeTrace writes the trace in Chrome trace_event JSON ("X"
// complete events, microsecond timestamps), the format Perfetto and
// chrome://tracing open directly. Spans sharing a parent chain render
// nested on one track; concurrent per-partition and per-worker spans are
// split onto their own tid tracks so they don't overlap-merge.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	if len(spans) == 0 {
		_, err := io.WriteString(w, "[]")
		return err
	}
	base := spans[0].Start
	// Track assignment: phases and operators on track 1; concurrent
	// children (spill-write, transport) fan out to per-sibling tracks so
	// overlapping intervals stay readable.
	tid := make([]int, len(spans))
	next := 2
	sibling := map[SpanID]int{}
	for i, s := range spans {
		switch s.Kind {
		case KindSpill, KindTransport:
			sibling[s.Parent]++
			tid[i] = next + sibling[s.Parent] - 1
		default:
			tid[i] = 1
		}
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		end := s.End
		if end.IsZero() {
			end = time.Now()
		}
		args := map[string]any{}
		if s.Bytes != 0 {
			args["bytes"] = s.Bytes
		}
		if s.Frames != 0 {
			args["frames"] = s.Frames
		}
		if s.Records != 0 {
			args["records"] = s.Records
		}
		if s.Calls != 0 {
			args["calls"] = s.Calls
		}
		if s.Runs != 0 {
			args["runs"] = s.Runs
		}
		if s.Worker != "" {
			args["worker"] = s.Worker
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		if s.Err != "" {
			args["error"] = s.Err
		}
		if len(args) == 0 {
			args = nil
		}
		events = append(events, event{
			Name: s.Name,
			Cat:  s.Kind,
			Ph:   "X",
			TS:   s.Start.Sub(base).Microseconds(),
			Dur:  end.Sub(s.Start).Microseconds(),
			PID:  1,
			TID:  tid[i],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
