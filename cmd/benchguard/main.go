// Command benchguard closes the loop between the committed BENCH_*.json
// baselines and CI: it runs the engine micro-benchmarks (shuffle, net,
// combiner, spill, joinspill), the job-scheduler benchmark (jobs), the
// service plan-cache and ingest benchmark (svc), and the cold-plan optimizer
// benchmark (opt), recomputes the headline ratios, and fails when a freshly
// measured ratio regresses by more than the threshold (default 25%) against
// the committed baseline.
//
// Ratios — batched-vs-per-record throughput, combined-vs-plain shipped
// bytes, spill-vs-in-memory runtime (grouping and join) — are compared
// rather than absolute ns/op because CI machines differ from the machines
// the baselines were measured on; a ratio between two modes of the same
// benchmark on the same host cancels the hardware out. Deterministic byte
// metrics (shipped and spilled bytes per op, the optimizer's allocations
// per ranking) are compared directly with a tight tolerance.
//
// Usage:
//
//	go run ./cmd/benchguard [-benchtime 300ms] [-threshold 0.25] [-out BENCH_fresh.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// metrics is one benchmark's parsed "value unit" pairs (ns/op,
// shipped-B/op, spilled-B/op, ...).
type metrics map[string]float64

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// parseBench extracts per-benchmark metrics from `go test -bench` output.
// The trailing -N GOMAXPROCS suffix is stripped from names.
func parseBench(out string) map[string]metrics {
	res := map[string]metrics{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		vals := metrics{}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			vals[fields[i+1]] = v
		}
		res[name] = vals
	}
	return res
}

// baselineRatio digs ratios.<key> out of a committed BENCH_*.json.
func baselineRatio(path, key string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		Ratios map[string]float64 `json:"ratios"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	v, ok := doc.Ratios[key]
	if !ok {
		return 0, fmt.Errorf("%s: no ratios.%s", path, key)
	}
	return v, nil
}

func main() {
	benchtime := flag.String("benchtime", "300ms", "benchtime passed to go test")
	threshold := flag.Float64("threshold", 0.25, "max allowed relative ratio regression")
	outPath := flag.String("out", "BENCH_fresh.json", "where to write the freshly measured summary (empty to skip)")
	flag.Parse()

	// BenchmarkShuffle lives in internal/engine, beside the reference
	// executor's per-record shuffle it measures against; the rest are the
	// root package's.
	cmd := exec.Command("go", "test", ".", "./internal/engine", "-run", "NONE",
		"-bench", "BenchmarkShuffle/|BenchmarkNetShuffle/|BenchmarkCombiner/|BenchmarkSpill/|BenchmarkJoinSpill/|BenchmarkConcurrentJobs/|BenchmarkRepeatedScripts/|BenchmarkRankAllQ7$",
		"-benchtime", *benchtime)
	raw, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: go test failed: %v\n%s\n", err, raw)
		os.Exit(1)
	}
	bench := parseBench(string(raw))

	need := func(name string) metrics {
		m, ok := bench[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s missing from bench output:\n%s\n", name, raw)
			os.Exit(1)
		}
		return m
	}
	shufBatched := need("BenchmarkShuffle/batched")
	shufLegacy := need("BenchmarkShuffle/per-record")
	shufTraced := need("BenchmarkShuffle/traced")
	netChan := need("BenchmarkNetShuffle/channel")
	netTCP := need("BenchmarkNetShuffle/tcp")
	combOn := need("BenchmarkCombiner/combined")
	combOff := need("BenchmarkCombiner/no-combiner")
	spillOn := need("BenchmarkSpill/spill")
	spillOff := need("BenchmarkSpill/in-memory")
	joinOn := need("BenchmarkJoinSpill/spill")
	joinOff := need("BenchmarkJoinSpill/in-memory")
	jobsDirect := need("BenchmarkConcurrentJobs/direct")
	jobsSerial := need("BenchmarkConcurrentJobs/serial")
	jobsConc := need("BenchmarkConcurrentJobs/concurrent")
	svcCold := need("BenchmarkRepeatedScripts/cold")
	svcCached := need("BenchmarkRepeatedScripts/cached")
	svcMulti := need("BenchmarkRepeatedScripts/multitenant")
	svcIngestMiss := need("BenchmarkRepeatedScripts/ingest/miss")
	svcIngestDocHit := need("BenchmarkRepeatedScripts/ingest/doc-hit")
	optRank := need("BenchmarkRankAllQ7")

	fresh := map[string]float64{
		"shuffle_throughput":             shufLegacy["ns/op"] / shufBatched["ns/op"],
		"obs_overhead":                   shufTraced["ns/op"] / shufBatched["ns/op"],
		"net_tcp_overhead":               netTCP["ns/op"] / netChan["ns/op"],
		"net_tcp_shipped_B_op":           netTCP["shipped-B/op"],
		"net_tcp_allocs_op":              netTCP["allocs/op"],
		"combiner_shipped_reduction":     combOff["shipped-B/op"] / combOn["shipped-B/op"],
		"spill_runtime_overhead":         spillOn["ns/op"] / spillOff["ns/op"],
		"spill_spilled_bytes":            spillOn["spilled-B/op"],
		"spill_runs":                     spillOn["spill-runs/op"],
		"joinspill_runtime_overhead":     joinOn["ns/op"] / joinOff["ns/op"],
		"joinspill_spilled_bytes":        joinOn["spilled-B/op"],
		"joinspill_runs":                 joinOn["spill-runs/op"],
		"shuffle_batched_ns_per_op":      shufBatched["ns/op"],
		"combiner_combined_shipped_B_op": combOn["shipped-B/op"],
		"jobs_scheduler_overhead":        jobsSerial["ns/op"] / jobsDirect["ns/op"],
		"jobs_concurrent_speedup":        jobsSerial["ns/op"] / jobsConc["ns/op"],
		"jobs_spilled_bytes":             jobsConc["spilled-B/op"],
		"jobs_peak_granted_B":            jobsConc["peak-granted-B"],
		"jobs_global_budget_B":           jobsConc["global-budget-B"],
		"svc_cache_speedup":              svcCold["submit-to-start-ns/job"] / svcCached["submit-to-start-ns/job"],
		"svc_ingest_miss_allocs_op":      svcIngestMiss["allocs/op"],
		"svc_ingest_doc_hit_speedup":     svcIngestMiss["ns/op"] / svcIngestDocHit["ns/op"],
		"svc_peak_granted_B":             svcMulti["peak-granted-B"],
		"svc_global_budget_B":            svcMulti["global-budget-B"],
		"svc_tenant_peak_running":        svcMulti["tenant-peak-running"],
		"svc_tenant_cap":                 svcMulti["tenant-cap"],
		"opt_rankall_q7_allocs_op":       optRank["allocs/op"],
		"opt_rankall_q7_ns_op":           optRank["ns/op"],
	}

	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL: "+format+"\n", args...)
		failed = true
	}
	// slack widens the threshold for ratios whose two modes do different
	// kinds of work: the spill/in-memory ratios include a disk-I/O
	// component only on the spill side, which — unlike the CPU-only ratios
	// — does not cancel across machines, so CI disk-speed variance needs
	// extra headroom before a miss means a code regression.
	check := func(label, path, key string, freshVal float64, lowerIsBetter bool, slack float64) {
		base, err := baselineRatio(path, key)
		if err != nil {
			fail("%v", err)
			return
		}
		tol := *threshold * slack
		if lowerIsBetter {
			if freshVal > base*(1+tol) {
				fail("%s regressed: fresh %.3f vs baseline %.3f (max %.3f)",
					label, freshVal, base, base*(1+tol))
				return
			}
		} else if freshVal < base*(1-tol) {
			fail("%s regressed: fresh %.3f vs baseline %.3f (min %.3f)",
				label, freshVal, base, base*(1-tol))
			return
		}
		fmt.Printf("benchguard: ok: %-30s fresh %.3f, baseline %.3f\n", label, freshVal, base)
	}

	check("shuffle throughput ratio", "BENCH_shuffle.json", "throughput",
		fresh["shuffle_throughput"], false, 1)
	check("combiner shipped-bytes ratio", "BENCH_combiner.json", "shipped_bytes_reduction",
		fresh["combiner_shipped_reduction"], false, 1)
	// TCP-vs-channel overhead of the same shuffle: both modes move the same
	// bytes on the same host (the workers sit on loopback), so hardware
	// cancels; triple slack because at CI benchtimes the TCP side completes
	// only one or two ~180 ms iterations, so a single syscall-scheduler
	// hiccup moves the whole sample — the gate is for the wire path losing
	// an integer factor (extra copies, lost batching), not for jitter.
	check("net tcp shuffle overhead", "BENCH_net.json", "tcp_overhead",
		fresh["net_tcp_overhead"], true, 3)
	// The same TCP shuffle gated on allocations per op: a count, identical
	// on every machine, and what decoding a frame into one Value slab and
	// one string arena bought (401,761 when every record and every string
	// field was its own allocation). The optimizer gate's 10% headroom.
	check("net tcp allocs/op", "BENCH_net.json", "tcp_allocs_per_op",
		fresh["net_tcp_allocs_op"], true, 0.4)
	check("spill runtime overhead", "BENCH_spill.json", "runtime_overhead",
		fresh["spill_runtime_overhead"], true, 2)
	// The joinspill baseline sits near 1.0 (the external join restructures
	// a sort the in-memory join performs anyway), so percentage headroom is
	// small in absolute terms and the benchmark is one ~700 ms iteration at
	// CI benchtimes; double slack keeps the gate on genuine regressions
	// (≥1.5x) rather than one slow-disk sample.
	check("joinspill runtime overhead", "BENCH_joinspill.json", "runtime_overhead",
		fresh["joinspill_runtime_overhead"], true, 2)
	// The scheduler-overhead ratio compares two runs of identical engine
	// work on the same host (with vs without the scheduler), so it is
	// portable like the CPU ratios; double slack because the absolute
	// overhead is small (~4%) and per-job spill-directory churn adds disk
	// variance. The concurrent-speedup ratio is ~1.0 on the single-vCPU
	// baseline machine and only grows with cores, so the lower bound
	// guards against the scheduler *serializing* concurrent jobs (lock
	// contention), not against missing speedup.
	check("jobs scheduler overhead", "BENCH_jobs.json", "scheduler_overhead",
		fresh["jobs_scheduler_overhead"], true, 2)
	check("jobs concurrent speedup", "BENCH_jobs.json", "concurrent_speedup",
		fresh["jobs_concurrent_speedup"], false, 2)
	// The plan-cache speedup compares two submit paths of the same
	// document on the same host (recompile vs cache hit), so hardware
	// cancels; double slack because the cached side's absolute window is
	// tens of microseconds and scheduler jitter moves it proportionally
	// more than the CPU-bound ratios. The floor guards the *cache* — a hit
	// path that got slower — not the optimizer: a faster miss path lowers
	// this ratio, so a change that speeds up compile or enumeration
	// re-measures BENCH_svc.json rather than reading the drop as a
	// regression. The miss path has its own gate below.
	check("service plan-cache speedup", "BENCH_svc.json", "cache_speedup",
		fresh["svc_cache_speedup"], false, 2)
	// Ingest of a Q7 SF 4 document whose bytes were never seen (every
	// source digested, decoded and inserted) is gated on allocations per
	// parse — a count, one slab chunk per 768 KB of rows and not one
	// object per row or value (385,326 before the single-pass decoder) —
	// with the optimizer gate's 10% headroom. The replay of a known
	// document against that miss is a ratio of two parses of the same bytes
	// on the same host; the floor catches a replay that started parsing
	// again, double slack because the replay is a third of a millisecond.
	check("ingest miss allocs/op", "BENCH_svc.json", "ingest_miss_allocs_per_op",
		fresh["svc_ingest_miss_allocs_op"], true, 0.4)
	check("ingest doc-hit vs miss speedup", "BENCH_svc.json", "ingest_doc_hit_speedup",
		fresh["svc_ingest_doc_hit_speedup"], false, 2)
	// One cold Q7 ranking exactly as scheduler.execute performs it. Gated on
	// allocations per ranking, not time: the count is deterministic for a
	// Go release and identical on every machine, and it is what the interned
	// plan DAG bought (287,231 before it). 10% headroom for toolchain drift;
	// ns/op lands in BENCH_fresh.json for the record only.
	check("optimizer rank-all allocs/op", "BENCH_opt.json", "rankall_q7_allocs_per_op",
		fresh["opt_rankall_q7_allocs_op"], true, 0.4)

	// Always-on tracing budget: the traced and untraced modes run the
	// identical batched shuffle on the same host, so the ratio isolates the
	// span recorder's cost. This is an absolute bound, not a baseline
	// comparison — the contract is "tracing is free enough to leave on",
	// and spans are recorded per operator phase (never per record), so the
	// true ratio sits at ~1.0 and 5% is jitter headroom.
	if r := fresh["obs_overhead"]; r > 1.05 {
		fail("traced shuffle costs %.3fx the untraced run (max 1.05x); span recording has left the O(1)-per-phase path", r)
	} else {
		fmt.Printf("benchguard: ok: %-30s fresh %.3f (max 1.050)\n", "obs tracing overhead", r)
	}
	// Deterministic sanity: both transports must account identical shipped
	// bytes for the identical shuffle (the engine counts bytes before the
	// transport seam, so any divergence is a seam bug, not noise).
	if netTCP["shipped-B/op"] != netChan["shipped-B/op"] {
		fail("BenchmarkNetShuffle shipped bytes diverge across transports: tcp %.0f vs channel %.0f",
			netTCP["shipped-B/op"], netChan["shipped-B/op"])
	}
	// Deterministic sanity: the budgeted wordcount and join must actually
	// spill, and the in-memory twins must not.
	if fresh["spill_spilled_bytes"] <= 0 || fresh["spill_runs"] <= 0 {
		fail("BenchmarkSpill/spill reports no spill activity (bytes=%.0f runs=%.0f)",
			fresh["spill_spilled_bytes"], fresh["spill_runs"])
	}
	if v := spillOff["spilled-B/op"]; v != 0 {
		fail("BenchmarkSpill/in-memory spilled %.0f bytes, want 0", v)
	}
	if fresh["joinspill_spilled_bytes"] <= 0 || fresh["joinspill_runs"] <= 0 {
		fail("BenchmarkJoinSpill/spill reports no spill activity (bytes=%.0f runs=%.0f)",
			fresh["joinspill_spilled_bytes"], fresh["joinspill_runs"])
	}
	if v := joinOff["spilled-B/op"]; v != 0 {
		fail("BenchmarkJoinSpill/in-memory spilled %.0f bytes, want 0", v)
	}
	// The job benchmark's tight grants must actually force spilling, and
	// admission control must never grant past the global budget (the
	// benchmark itself b.Fatals on that; the metric — compared against the
	// budget the same run reported, so no constant is duplicated here — is
	// belt and braces).
	if fresh["jobs_spilled_bytes"] <= 0 {
		fail("BenchmarkConcurrentJobs/concurrent reports no spill activity")
	}
	if fresh["jobs_global_budget_B"] <= 0 {
		fail("BenchmarkConcurrentJobs/concurrent reports no global budget")
	}
	if fresh["jobs_peak_granted_B"] > fresh["jobs_global_budget_B"] {
		fail("BenchmarkConcurrentJobs/concurrent peak granted %.0f B exceeds the %.0f B global budget",
			fresh["jobs_peak_granted_B"], fresh["jobs_global_budget_B"])
	}
	// Multitenant invariants: the benchmark b.Fatals on violations; the
	// reported metrics are re-checked here so a silently skipped assertion
	// cannot pass CI.
	if fresh["svc_global_budget_B"] <= 0 {
		fail("BenchmarkRepeatedScripts/multitenant reports no global budget")
	}
	if fresh["svc_peak_granted_B"] > fresh["svc_global_budget_B"] {
		fail("BenchmarkRepeatedScripts/multitenant peak granted %.0f B exceeds the %.0f B global budget",
			fresh["svc_peak_granted_B"], fresh["svc_global_budget_B"])
	}
	if fresh["svc_tenant_peak_running"] > fresh["svc_tenant_cap"] {
		fail("BenchmarkRepeatedScripts/multitenant tenant peak running %.0f exceeds the per-tenant cap %.0f",
			fresh["svc_tenant_peak_running"], fresh["svc_tenant_cap"])
	}

	if *outPath != "" {
		enc, _ := json.MarshalIndent(map[string]any{
			"note":      "freshly measured by cmd/benchguard; compare against the committed BENCH_*.json baselines",
			"benchtime": *benchtime,
			"measured":  fresh,
		}, "", "  ")
		if err := os.WriteFile(*outPath, append(enc, '\n'), 0o644); err != nil {
			fail("writing %s: %v", *outPath, err)
		}
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("benchguard: all ratios within threshold")
}
