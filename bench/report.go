package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec declares a metric: BENCHMARK.json lists the same names, units,
// directions and bounds, and TestBenchmarkJSON holds the two together.
type spec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the base by which the metric may worsen; 0 = not gated
	// Count marks work counts that are deterministic for a seed and must
	// repeat exactly between runs.
	Count bool
}

// endToEnd are the gated metrics, measured with tracing off.
var endToEnd = []spec{
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// untracedDiag are printed beside the end-to-end metrics but never gated.
var untracedDiag = []spec{
	{Name: "samples", Unit: "count"},
	{Name: "job_tail_ms", Unit: "ms"},
	{Name: "tail_pct", Unit: "%"},
	{Name: "build_s", Unit: "s"},
}

// perLayer are the traced pass's metrics: the layer table, the per-job
// work counts, process diagnostics and the in-process probes.
var perLayer = func() []spec {
	var s []spec
	for _, l := range layerNames {
		s = append(s, spec{Name: "layer." + l + ".ms_per_job", Unit: "ms", Better: "lower"})
	}
	return append(s,
		spec{Name: "server_span_ms", Unit: "ms", Better: "lower"},
		spec{Name: "layers_accounted_ratio", Unit: "ratio", Better: "higher"},
		spec{Name: "traced_job_p50_ms", Unit: "ms", Better: "lower"},
		spec{Name: "shipped_bytes_per_job", Unit: "bytes", Better: "lower", Count: true},
		spec{Name: "relay_bytes_per_job", Unit: "bytes", Better: "lower", Count: true},
		spec{Name: "combiner_calls_per_job", Unit: "count", Better: "lower", Count: true},
		spec{Name: "spilled_bytes_per_job", Unit: "bytes", Better: "lower", Count: true},
		spec{Name: "spill_runs_per_job", Unit: "count", Better: "lower", Count: true},
		spec{Name: "udf_calls_per_job", Unit: "count", Better: "lower", Count: true},
		spec{Name: "plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Count: true},
		spec{Name: "worker_fallbacks", Unit: "count", Better: "lower", Count: true},
		spec{Name: "doc_bytes", Unit: "bytes", Better: "lower", Count: true},
		spec{Name: "result_rows", Unit: "count", Better: "lower", Count: true},
		spec{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
		spec{Name: "probe.json_decode_ms", Unit: "ms", Better: "lower"},
		spec{Name: "probe.frontend_ms", Unit: "ms", Better: "lower"},
		spec{Name: "probe.sca_ms", Unit: "ms", Better: "lower"},
		spec{Name: "probe.row_decode_ms", Unit: "ms", Better: "lower"},
		spec{Name: "probe.optimize_ms", Unit: "ms", Better: "lower"},
		spec{Name: "probe.plans", Unit: "count", Better: "lower", Count: true},
		spec{Name: "probe.engine_ms", Unit: "ms", Better: "lower"},
		spec{Name: "probe.encode_ms", Unit: "ms", Better: "lower"},
	)
}()

// allSpecs is every metric a full run can print, in print order.
var allSpecs = func() []spec {
	s := append([]spec{}, endToEnd...)
	s = append(s, untracedDiag...)
	s = append(s, perLayer...)
	return append(s, spec{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"})
}()

// result is one workload's measurements from one or both passes.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(workload string, st *loadStats) *result {
	return &result{Workload: workload, Attempted: st.Attempted, Failed: st.Failed, Metrics: map[string]metric{}}
}

// set records a metric under the unit its spec declares.
func (r *result) set(name string, v float64) {
	for _, s := range allSpecs {
		if s.Name == name {
			r.Metrics[name] = metric{v, s.Unit}
			return
		}
	}
	panic("bench: metric " + name + " has no spec")
}

// merge folds the traced pass's metrics into the untraced pass's result;
// attempted and failed stay those of the untraced window.
func (r *result) merge(traced *result) {
	for k, v := range traced.Metrics {
		r.Metrics[k] = v
	}
}

// print writes every metric the result holds by name, value and unit.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  attempted=%d failed=%d\n", r.Workload, r.Attempted, r.Failed)
	for _, s := range allSpecs {
		if m, ok := r.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", s.Name, m.Value, m.Unit)
		}
	}
}

// resultSet is one full run: every workload, plus what the numbers depend
// on besides the code.
type resultSet struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Seed       int64     `json:"seed"`
	WindowSecs float64   `json:"window_s"`
	Workloads  []*result `json:"workloads"`
}

func (s *resultSet) workload(name string) *result {
	for _, r := range s.Workloads {
		if r.Workload == name {
			return r
		}
	}
	return nil
}

// worsening is how far b is on the wrong side of a, as a share of a.
func worsening(s spec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if s.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets is the self-check: two runs of the same code must agree
// within every end-to-end bound, and every count must repeat exactly.
func compareSets(a, b *resultSet) error {
	var bad []string
	fmt.Println("== selfcheck: set 1 vs set 2")
	for _, ra := range a.Workloads {
		rb := b.workload(ra.Workload)
		for _, s := range allSpecs {
			ma, oka := ra.Metrics[s.Name]
			mb, okb := rb.Metrics[s.Name]
			if !oka || !okb || (s.Bound == 0 && !s.Count) {
				continue
			}
			verdict := "ok"
			switch {
			case s.Count && ma.Value != mb.Value:
				verdict = "COUNT DIFFERS"
			case s.Bound > 0 && worsening(s, ma.Value, mb.Value) > s.Bound:
				verdict = fmt.Sprintf("WORSE BY MORE THAN %.0f%%", 100*s.Bound)
			}
			fmt.Printf("  %-14s %-28s %14.4f %14.4f %-6s %s\n", ra.Workload, s.Name, ma.Value, mb.Value, ma.Unit, verdict)
			if verdict != "ok" {
				bad = append(bad, ra.Workload+"/"+s.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: sets disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}

// diffFiles prints, per workload, each end-to-end metric's ratio with its
// base, and names the layer whose ms_per_job moved most.
func diffFiles(pathA, pathB string) error {
	var sets [2]resultSet
	for i, p := range []string{pathA, pathB} {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := &sets[0], &sets[1]
	for _, ra := range a.Workloads {
		rb := b.workload(ra.Workload)
		if rb == nil {
			fmt.Printf("== %s: only in %s\n", ra.Workload, pathA)
			continue
		}
		fmt.Printf("== %s\n", ra.Workload)
		for _, s := range endToEnd {
			va, vb := ra.Metrics[s.Name].Value, rb.Metrics[s.Name].Value
			note := ""
			if worsening(s, va, vb) > s.Bound {
				note = fmt.Sprintf("  worse than the %.0f%% bound", 100*s.Bound)
			}
			fmt.Printf("  %-16s %12.4f -> %12.4f %-4s x%.3f of %.4f%s\n", s.Name, va, vb, s.Unit, vb/va, va, note)
		}
		type move struct {
			layer string
			delta float64
		}
		var moves []move
		for _, l := range layerNames {
			name := "layer." + l + ".ms_per_job"
			moves = append(moves, move{l, rb.Metrics[name].Value - ra.Metrics[name].Value})
		}
		sort.Slice(moves, func(i, j int) bool { return math.Abs(moves[i].delta) > math.Abs(moves[j].delta) })
		top := moves[0]
		base := ra.Metrics["layer."+top.layer+".ms_per_job"].Value
		fmt.Printf("  layer that moved most: %s %+.3f ms per job (from %.3f ms)\n", top.layer, top.delta, base)
	}
	return nil
}
