package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/obs"
)

// Layers of the table, in the order a job passes through them. "other" is
// server time no layer's span claims (the job and run spans' own time).
var layerNames = []string{
	"serve", "compile", "queue", "optimize", "ship", "transport",
	"combine", "spill_write", "merge", "local", "other",
}

// Client span kinds. The harness opens these itself; everything else in a
// traced job's tree is a span the server recorded.
const (
	kindClient  = "client"  // the POST as the caller saw it: submit, wait, read
	kindHarness = "harness" // work only the traced pass does: fetch-trace, verify
)

// layerOf names the layer that owns time spent inside a span and in none
// of its descendants.
func layerOf(s *obs.Span) string {
	switch s.Kind {
	case kindClient:
		return "serve"
	case obs.KindPhase:
		switch s.Name {
		case "compile", "queue", "optimize":
			return s.Name
		}
		return "other" // the run phase between operators
	case obs.KindOp, obs.KindLocal:
		// An operator span's own time is UDF work: fused Map chains run
		// inside it without a local child.
		return "local"
	case obs.KindShip:
		return "ship"
	case obs.KindTransport:
		return "transport"
	case obs.KindCombine:
		return "combine"
	case obs.KindSpill:
		return "spill_write"
	case obs.KindMerge:
		return "merge"
	}
	return "other"
}

// jobTrace is one traced job: the client's spans with the server's span
// tree re-parented beneath them, and the job's operator statistics.
type jobTrace struct {
	Client int
	Seq    int       // position in the workload's document sequence
	Root   *obs.Node // client "job" span
	// Posted and Answered bound the POST: the interval job latency
	// measures and the layer table attributes.
	Posted, Answered time.Time
	Stats            []engine.OpStats
}

func clientSpan(name, kind string, start, end time.Time, children ...*obs.Node) *obs.Node {
	return &obs.Node{Span: obs.Span{Name: name, Kind: kind, Start: start, End: end}, Children: children}
}

// tracedJob runs one job of the traced pass: the same POST as the untraced
// loop, then the server's trace and statistics for that job id, then the
// answer check, each under a span of the harness's own.
func (d *driver) tracedJob(c *http.Client, client int) (*jobTrace, *reply, error) {
	r, err := d.post(c, true)
	if err != nil {
		return nil, nil, err
	}
	var server obs.Node
	var status struct {
		Stats []engine.OpStats `json:"stats"`
	}
	if err := d.fleet.getJSON(c, fmt.Sprintf("/jobs/%d/trace", r.ID), &server); err != nil {
		return nil, r, err
	}
	if err := d.fleet.getJSON(c, fmt.Sprintf("/jobs/%d", r.ID), &status); err != nil {
		return nil, r, err
	}
	fetched := time.Now()
	err = d.verify(r)
	verified := time.Now()

	t := &jobTrace{Client: client, Seq: r.seq, Posted: r.start, Answered: r.end, Stats: status.Stats}
	t.Root = clientSpan(fmt.Sprintf("job %d", r.ID), kindHarness, r.start, verified,
		clientSpan("submit", kindClient, r.start, r.wrote),
		clientSpan("wait", kindClient, r.wrote, r.firstByte, &server),
		clientSpan("read", kindClient, r.firstByte, r.end),
		clientSpan("fetch-trace", kindHarness, r.end, fetched),
		clientSpan("verify", kindHarness, fetched, verified),
	)
	return t, r, err
}

// walk visits n and its descendants, parents first, with their depth.
func walk(n *obs.Node, depth int, visit func(n *obs.Node, depth int)) {
	visit(n, depth)
	for _, c := range n.Children {
		walk(c, depth+1, visit)
	}
}

// attribute splits the POST's interval among layers: every instant belongs
// to the innermost span open at that instant (of concurrent siblings, the
// one that started last), which is the span's self time — its duration
// minus what its descendants cover — made robust to the overlapping
// per-partition and per-worker spans the server records.
func (t *jobTrace) attribute() map[string]time.Duration {
	type open struct {
		span  obs.Span // clipped to the POST
		depth int
	}
	var spans []open
	var cuts []time.Time
	walk(t.Root, 0, func(n *obs.Node, depth int) {
		if n.Kind == kindHarness {
			return
		}
		s := n.Span
		if s.Start.Before(t.Posted) {
			s.Start = t.Posted
		}
		if s.End.After(t.Answered) {
			s.End = t.Answered
		}
		if s.End.After(s.Start) {
			spans = append(spans, open{s, depth})
			cuts = append(cuts, s.Start, s.End)
		}
	})
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })

	out := map[string]time.Duration{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if !hi.After(lo) {
			continue
		}
		var owner *open
		for j := range spans {
			s := &spans[j]
			if s.span.Start.After(lo) || s.span.End.Before(hi) {
				continue
			}
			if owner == nil || s.depth > owner.depth ||
				(s.depth == owner.depth && s.span.Start.After(owner.span.Start)) {
				owner = s
			}
		}
		if owner != nil {
			out[layerOf(&owner.span)] += hi.Sub(lo)
		}
	}
	return out
}

// serverExtent is the interval the server's spans cover: the compile span
// precedes the root span (the document is parsed before submission).
func (t *jobTrace) serverExtent() time.Duration {
	var lo, hi time.Time
	walk(t.Root, 0, func(n *obs.Node, _ int) {
		if n.Kind == kindClient || n.Kind == kindHarness {
			return
		}
		if lo.IsZero() || n.Start.Before(lo) {
			lo = n.Start
		}
		if n.End.After(hi) {
			hi = n.End
		}
	})
	return hi.Sub(lo)
}

// jobCounts are per-job work counts. They are deterministic for a document
// and a plan, so they repeat exactly.
type jobCounts struct {
	ShippedBytes, RelayBytes, CombinerCalls int64
	SpilledBytes, SpillRuns, UDFCalls       int64
}

// countsOf sums the work counts of traced jobs: operator statistics, and
// the bytes on the per-worker transport spans.
func countsOf(traces []*jobTrace) jobCounts {
	var c jobCounts
	for _, t := range traces {
		for _, s := range t.Stats {
			c.ShippedBytes += int64(s.ShippedBytes)
			c.CombinerCalls += int64(s.CombinerCalls)
			c.SpilledBytes += int64(s.SpilledBytes)
			c.SpillRuns += int64(s.SpillRuns)
			c.UDFCalls += int64(s.UDFCalls)
		}
		walk(t.Root, 0, func(n *obs.Node, _ int) {
			if n.Kind == obs.KindTransport {
				c.RelayBytes += n.Bytes
			}
		})
	}
	return c
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every traced job as Chrome trace_event JSON
// (Perfetto opens it): one process per client, the job's nested spans on
// one track, and the server's concurrent per-partition and per-worker spans
// fanned out onto tracks of their own so they do not overlap-merge.
func writeChromeTrace(path string, traces []*jobTrace) error {
	if len(traces) == 0 {
		return nil
	}
	base := traces[0].Posted
	for _, t := range traces {
		if t.Posted.Before(base) {
			base = t.Posted
		}
	}
	var events []chromeEvent
	for _, t := range traces {
		lane := 1
		var emit func(n *obs.Node, tid int)
		emit = func(n *obs.Node, tid int) {
			if n.Kind == obs.KindSpill || n.Kind == obs.KindTransport {
				lane++
				tid = lane
			}
			args := map[string]any{}
			for k, v := range map[string]int64{"bytes": n.Bytes, "frames": n.Frames, "records": n.Records, "calls": n.Calls, "runs": n.Runs} {
				if v != 0 {
					args[k] = v
				}
			}
			for k, v := range map[string]string{"worker": n.Worker, "detail": n.Detail, "error": n.Err} {
				if v != "" {
					args[k] = v
				}
			}
			events = append(events, chromeEvent{
				Name: n.Name, Cat: n.Kind, Ph: "X",
				TS: n.Start.Sub(base).Microseconds(), Dur: n.End.Sub(n.Start).Microseconds(),
				PID: t.Client + 1, TID: tid, Args: args,
			})
			for _, c := range n.Children {
				emit(c, tid)
			}
		}
		emit(t.Root, 1)
	}
	raw, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
