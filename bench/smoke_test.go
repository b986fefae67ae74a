package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"blackboxflow/internal/obs"
)

// TestSmoke runs the whole harness — real flowserve and flowworker
// processes, both passes, guards, probes, artifacts — at toy sizes with 1 s
// windows, so the documents keep compiling and the references keep matching
// what the server answers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts server processes")
	}
	h, err := newHarness("..")
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	h.toy = true
	out := t.TempDir()
	set, err := h.fullSet(1, time.Second, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r := set.workload(w.Name)
		if r == nil {
			t.Fatalf("no result for %s", w.Name)
		}
		for _, s := range allSpecs {
			if _, ok := r.Metrics[s.Name]; !ok && s.Name != "job_tail_ms" && s.Name != "tail_pct" {
				t.Errorf("%s: metric %s missing", w.Name, s.Name)
			}
		}
		raw, err := os.ReadFile(out + "/trace." + w.Name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var events []chromeEvent
		if err := json.Unmarshal(raw, &events); err != nil || len(events) == 0 {
			t.Errorf("%s: trace file does not hold trace events: %v", w.Name, err)
		}
	}
	if err := compareSets(set, set); err != nil {
		t.Error(err)
	}
	if err := diffFiles(out+"/results.json", out+"/results.json"); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric specs and workloads
// the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q, %d chars)", i, got.Name, got.Why, w.Name, w.Why, len(w.Why))
		}
	}
	check := func(kind string, got []entry, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d reported", kind, len(got), len(want))
		}
		for i, s := range want {
			if g := got[i]; g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better || g.Bound != s.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, s)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestAttribute pins the layer attribution: every instant of the POST goes
// to the innermost open span, overlapping spans are not counted twice, and
// spans outside their parent's interval still own their time.
func TestAttribute(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	node := func(name, kind string, from, to int, kids ...*obs.Node) *obs.Node {
		return clientSpan(name, kind, at(from), at(to), kids...)
	}
	server := node("q", obs.KindJob, 30, 95,
		node("compile", obs.KindPhase, 10, 30), // precedes the root, as the server records it
		node("run", obs.KindPhase, 32, 94,
			node("join", obs.KindOp, 32, 90,
				node("ship", obs.KindShip, 32, 50,
					node("w1", obs.KindTransport, 35, 50),
					node("w2", obs.KindTransport, 35, 50)),
				node("spill-write p0", obs.KindSpill, 40, 52,
					node("merge", obs.KindMerge, 60, 70)), // parented outside its interval
				node("local", obs.KindLocal, 52, 90))))
	tr := &jobTrace{Posted: at(0), Answered: at(100)}
	tr.Root = node("job", kindHarness, 0, 120,
		node("submit", kindClient, 0, 5),
		node("wait", kindClient, 5, 98, server),
		node("read", kindClient, 98, 100),
		node("verify", kindHarness, 100, 120))
	want := map[string]int{
		"serve": 5 + 5 + 3 + 2, "compile": 20, "other": 2 + 4 + 1, "ship": 3,
		"transport": 15, "spill_write": 2, "merge": 10, "local": 28,
	}
	got := tr.attribute()
	total := 0
	for layer, ms := range want {
		if got[layer] != time.Duration(ms)*time.Millisecond {
			t.Errorf("%s: got %v, want %dms", layer, got[layer], ms)
		}
		total += ms
	}
	if total != 100 {
		t.Fatalf("the expectation itself covers %dms of the 100ms POST", total)
	}
	if ext := tr.serverExtent(); ext != 85*time.Millisecond {
		t.Errorf("server extent %v, want 85ms", ext)
	}
}
