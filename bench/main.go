// Command bench is the repository's end-to-end benchmark: it builds and
// launches a real flowserve (plus flowworker processes where the workload
// says so), drives it over HTTP in a closed loop with ScriptJob documents
// ported from the paper's workloads, checks every answer against a plain-Go
// reference, and reports end-to-end metrics and a per-layer table.
//
//	bash bench/run.sh                       every workload, both passes, tables
//	bash bench/run.sh -selfcheck            the full set twice, compared
//	bash bench/run.sh -diff a.json b.json   compare two results files
//	bash bench/run.sh --workload q7.warm --seed 1 --seconds 15 --trace 0
//
// The last form is what BENCHMARK.json's driver runs: one workload, one
// pass, one JSON object on the last line of standard output. See README.md
// for the metrics, their bounds and the load model.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload and print one JSON result line (driver mode)")
		seed      = flag.Int64("seed", 1, "seed of the data generators")
		seconds   = flag.Int("seconds", 15, "length of the measured window")
		trace     = flag.Int("trace", 0, "driver mode: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and fail unless the second agrees with the first")
		diff      = flag.Bool("diff", false, "compare two results files given as arguments")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *selfcheck, *diff); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outDir receives results.json, layers.<workload>.json and
// trace.<workload>.json of a full run.
var outDir = filepath.Join("bench", "out")

func run(name string, seed int64, seconds, trace int, selfcheck, diff bool) error {
	if diff {
		if flag.NArg() != 2 {
			return errors.New("-diff needs two results files")
		}
		return diffFiles(flag.Arg(0), flag.Arg(1))
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	h, err := newHarness(root)
	if err != nil {
		return err
	}
	defer h.close()
	window := time.Duration(seconds) * time.Second

	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		return h.driverRun(w, seed, window, trace == 1)
	}

	fmt.Printf("nproc=%d GOMAXPROCS=%d %s seed=%d window=%ds clients=%d build_s=%.3f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, seconds, clients, h.bins.BuildSecs)
	first, err := h.fullSet(seed, window, outDir)
	if err != nil {
		return err
	}
	if !selfcheck {
		return nil
	}
	second, err := h.fullSet(seed, window, outDir)
	if err != nil {
		return err
	}
	return compareSets(first, second)
}

// harness holds what every run shares: the checkout, the built server
// binaries, and a scratch directory inside the checkout for spill and logs.
type harness struct {
	bins    *binaries
	scratch string
	// toy selects the smoke test's sizes: small documents, one set-up per
	// pass, three probe iterations.
	toy bool
}

// newHarness builds the server binaries of the checkout rooted at root.
func newHarness(root string) (*harness, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "flowserve")); err != nil {
		return nil, fmt.Errorf("run from the root of a checkout: %w", err)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(build, "run-*")
	if err != nil {
		return nil, err
	}
	bins, err := buildBinaries(root, build)
	if err != nil {
		os.RemoveAll(scratch)
		return nil, err
	}
	return &harness{bins: bins, scratch: scratch}, nil
}

func (h *harness) close() { os.RemoveAll(h.scratch) }

// driverRun is one pass of one workload in the form BENCHMARK.json's driver
// reads: human-readable lines first, one JSON object last.
func (h *harness) driverRun(w *workload, seed int64, window time.Duration, traced bool) error {
	var res *result
	var err error
	if traced {
		res, _, err = h.tracedPass(w, seed, window)
	} else {
		res, err = h.untracedPass(w, seed, window)
	}
	if res == nil {
		return err
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res.print(os.Stdout)
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{err == nil, res.Attempted, res.Failed, map[string]metric{}}
	for _, s := range specs {
		line.Metrics[s.Name] = res.Metrics[s.Name]
	}
	raw, merr := json.Marshal(line)
	if merr != nil {
		return merr
	}
	fmt.Println(string(raw))
	return err
}

// fullSet runs both passes of every workload, prints each workload's
// metrics, writes the artifacts, and returns the merged results.
func (h *harness) fullSet(seed int64, window time.Duration, outDir string) (*resultSet, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	set := &resultSet{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, WindowSecs: window.Seconds(),
	}
	var errs []error
	for _, w := range workloads {
		res, err := h.untracedPass(w, seed, window)
		if res == nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.Name, err))
		}
		// The traced pass is shorter: it feeds means, not percentiles.
		layers, traces, err := h.tracedPass(w, seed, max(window*3/10, time.Second/2))
		if layers == nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.Name, err)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: traced pass: %w", w.Name, err))
		}
		res.merge(layers)
		res.Metrics["trace_overhead_ratio"] = metric{res.Metrics["traced_job_p50_ms"].Value / res.Metrics["job_p50_ms"].Value, "ratio"}
		res.print(os.Stdout)
		set.Workloads = append(set.Workloads, res)

		if err := writeChromeTrace(filepath.Join(outDir, "trace."+w.Name+".json"), traces); err != nil {
			return nil, err
		}
		if err := writeJSONFile(filepath.Join(outDir, "layers."+w.Name+".json"), res); err != nil {
			return nil, err
		}
	}
	if err := writeJSONFile(filepath.Join(outDir, "results.json"), set); err != nil {
		return nil, err
	}
	return set, errors.Join(errs...)
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
