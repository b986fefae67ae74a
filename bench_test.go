// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// per table/figure), plus ablation and engine micro benchmarks.
// EXPERIMENTS.md maps each paper benchmark to its figure or table, and its
// "Current baselines" section quotes the BENCH_*.json numbers; DESIGN.md
// "Network cost" describes how the figure sweeps model the paper's network.
//
// Run with: go test -bench=. -benchmem
package blackboxflow_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"blackboxflow"
	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/engine"
	"blackboxflow/internal/experiments"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/jobs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/sca"
	"blackboxflow/internal/tac"
	"blackboxflow/internal/transport"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// ---------------------------------------------------------------- Figure 5

// BenchmarkFig5Q7PlanSweep regenerates the Figure 5 series: enumerate the
// Q7 plan space, rank by cost, execute plans at regular rank intervals.
func BenchmarkFig5Q7PlanSweep(b *testing.B) {
	g := &tpch.GenParams{SF: 0.3, Seed: 13}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5Q7(g, 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalPlans), "plans")
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.NormRuntime, "worst/best-runtime")
	}
}

func q7Plans(b *testing.B, g *tpch.GenParams) (*tpch.Query, []optimizer.RankedPlan) {
	b.Helper()
	q, err := tpch.BuildQ7(tpch.ModeSCA, g)
	if err != nil {
		b.Fatal(err)
	}
	ranked, err := optimizer.Plan(q.Flow, 4, 0, optimizer.NetProfile{})
	if err != nil {
		b.Fatal(err)
	}
	return q, ranked
}

// BenchmarkFig5Q7BestPlan executes only the cost-optimal Q7 plan.
func BenchmarkFig5Q7BestPlan(b *testing.B) {
	g := &tpch.GenParams{SF: 1, Seed: 42}
	q, ranked := q7Plans(b, g)
	e := engine.New(4)
	for name, ds := range g.Generate(q.Flow) {
		e.AddSource(name, ds)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(ranked[0].Phys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Q7WorstPlan executes the worst-ranked Q7 plan; the ratio to
// BenchmarkFig5Q7BestPlan is the figure's qualitative claim.
func BenchmarkFig5Q7WorstPlan(b *testing.B) {
	g := &tpch.GenParams{SF: 1, Seed: 42}
	q, ranked := q7Plans(b, g)
	e := engine.New(4)
	for name, ds := range g.Generate(q.Flow) {
		e.AddSource(name, ds)
	}
	worst := ranked[len(ranked)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(worst.Phys); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- Figure 6

// BenchmarkFig6TextMiningPlanSweep regenerates the Figure 6 series.
func BenchmarkFig6TextMiningPlanSweep(b *testing.B) {
	g := &textmine.GenParams{Docs: 150, WordsLo: 40, WordsHi: 120,
		GeneRate: 0.3, DrugRate: 0.4, HumanRate: 0.55, RelRate: 0.5, Seed: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6TextMining(g, 4, 5)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.NormRuntime, "worst/best-runtime")
	}
}

func textminePlans(b *testing.B) (map[string]record.DataSet, []optimizer.RankedPlan) {
	b.Helper()
	g := textmine.DefaultGen()
	task, err := textmine.Build(textmine.ModeSCA, g)
	if err != nil {
		b.Fatal(err)
	}
	ranked, err := optimizer.Plan(task.Flow, 4, 0, optimizer.NetProfile{})
	if err != nil {
		b.Fatal(err)
	}
	return g.Generate(task.Flow), ranked
}

// BenchmarkFig6TextMiningBestPlan executes the cost-optimal stage order.
func BenchmarkFig6TextMiningBestPlan(b *testing.B) {
	data, ranked := textminePlans(b)
	e := engine.New(4)
	for name, ds := range data {
		e.AddSource(name, ds)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(ranked[0].Phys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6TextMiningWorstPlan executes the worst stage order (the
// expensive POS tagger first); paper Figure 6 reports roughly an order of
// magnitude between the extremes.
func BenchmarkFig6TextMiningWorstPlan(b *testing.B) {
	data, ranked := textminePlans(b)
	e := engine.New(4)
	for name, ds := range data {
		e.AddSource(name, ds)
	}
	worst := ranked[len(ranked)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(worst.Phys); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- Figure 7

// BenchmarkFig7ClickstreamPlans regenerates the Figure 7 series: all four
// plans of the clickstream task.
func BenchmarkFig7ClickstreamPlans(b *testing.B) {
	g := &clickstream.GenParams{Sessions: 1000, ClicksPerSess: 8, BuyRate: 0.12,
		LoginRate: 0.3, Users: 150, Seed: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7Clickstream(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ImplementedRank), "implemented-rank")
		b.ReportMetric(res.BestOverImplemented, "best/implemented")
	}
}

// BenchmarkFig7ClickstreamBestPlan executes the join-below-both-reduces
// plan of Figure 4(b).
func BenchmarkFig7ClickstreamBestPlan(b *testing.B) {
	g := clickstream.DefaultGen()
	task, err := clickstream.Build(clickstream.ModeManual, g)
	if err != nil {
		b.Fatal(err)
	}
	ranked, err := optimizer.Plan(task.Flow, 4, 0, optimizer.NetProfile{})
	if err != nil {
		b.Fatal(err)
	}
	e := engine.New(4)
	for name, ds := range g.Generate(task.Flow) {
		e.AddSource(name, ds)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(ranked[0].Phys); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------------------- Table 1

// BenchmarkTable1SCAvsManual regenerates Table 1: enumerated orders with
// manual annotations vs. SCA-derived properties for all four tasks.
func BenchmarkTable1SCAvsManual(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.SCA > row.Manual {
				b.Fatalf("%s: SCA %d > manual %d (conservatism violated)", row.Task, row.SCA, row.Manual)
			}
		}
	}
}

// ----------------------------------------- Section 7.3 "Enumeration Time"

// BenchmarkEnumerationTimeQ7 measures plan enumeration for the largest
// space (the paper's naive implementation stays under 1654 ms).
func BenchmarkEnumerationTimeQ7(b *testing.B) {
	q, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		b.Fatal(err)
	}
	tree, err := optimizer.FromFlow(q.Flow)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alts := optimizer.NewEnumerator().Enumerate(tree)
		if len(alts) < 100 {
			b.Fatal("plan space collapsed")
		}
	}
}

// BenchmarkEnumerationTimeAllTasks enumerates all four tasks.
func BenchmarkEnumerationTimeAllTasks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.EnumTimes()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("missing tasks")
		}
	}
}

// --------------------------------------------- Section 7.3 (Q15 strategies)

// BenchmarkQ15PhysicalStrategies regenerates the Q15 physical-plan
// discussion: costing all three orders with strategy selection.
func BenchmarkQ15PhysicalStrategies(b *testing.B) {
	g := tpch.DefaultGen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Q15Strategies(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// -------------------------------------------------------------- Ablations

// BenchmarkAblationNoRotations disables the Lemma 1 join rotations and
// reports the shrunken Q7 plan space.
func BenchmarkAblationNoRotations(b *testing.B) {
	q, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		b.Fatal(err)
	}
	tree, err := optimizer.FromFlow(q.Flow)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &optimizer.Enumerator{Rules: &optimizer.RuleSet{UnaryUnary: true, UnaryBinary: true}}
		alts := e.Enumerate(tree)
		b.ReportMetric(float64(len(alts)), "plans")
	}
}

// BenchmarkAblationNoInterestingProps disables partitioning-property reuse
// in the physical optimizer and reports the best Q15 cost (never better
// than with reuse).
func BenchmarkAblationNoInterestingProps(b *testing.B) {
	q, err := tpch.BuildQ15(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		b.Fatal(err)
	}
	tree, err := optimizer.FromFlow(q.Flow)
	if err != nil {
		b.Fatal(err)
	}
	est := optimizer.NewEstimator(q.Flow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		po := optimizer.NewPhysicalOptimizer(est, 8)
		po.UseInterestingProps = false
		plan := po.Optimize(tree)
		b.ReportMetric(plan.Cost.Total(), "cost")
	}
}

// BenchmarkAblationNoSubplanSharing costs every Q7 alternative with a
// fresh physical memo per plan — the naive two-phase approach the paper's
// prototype used; compare against BenchmarkFig5Q7PlanSweep's integrated
// (shared-memo) optimization.
func BenchmarkAblationNoSubplanSharing(b *testing.B) {
	q, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		b.Fatal(err)
	}
	tree, err := optimizer.FromFlow(q.Flow)
	if err != nil {
		b.Fatal(err)
	}
	alts := optimizer.NewEnumerator().Enumerate(tree)
	est := optimizer.NewEstimator(q.Flow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range alts {
			optimizer.NewPhysicalOptimizer(est, 4).Optimize(a)
		}
	}
}

// BenchmarkIntegratedOptimization costs every Q7 alternative with the
// shared sub-plan memo (Section 6's integration of physical optimization
// with enumeration). Enumeration, estimator and optimizer are built fresh
// per iteration (only the costing is timed): their caches are keyed by node
// identity, so state carried across iterations would leave nothing to
// measure.
func BenchmarkIntegratedOptimization(b *testing.B) {
	q, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		b.Fatal(err)
	}
	tree, err := optimizer.FromFlow(q.Flow)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		alts := optimizer.NewEnumerator().Enumerate(tree)
		po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(q.Flow), 4)
		b.StartTimer()
		for _, a := range alts {
			po.Optimize(a)
		}
	}
}

// BenchmarkRankAllQ7 is one full Q7 ranking at the server's DOP: one
// optimizer.Plan, which builds and sorts every alternative's best plan (what
// flowopt plans and the experiments read). BENCH_opt.json records it;
// benchguard gates its allocs/op.
func BenchmarkRankAllQ7(b *testing.B) {
	q, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked, err := optimizer.Plan(q.Flow, 2, 0, optimizer.NetProfile{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ranked) != 442 {
			b.Fatalf("ranked %d plans, want 442", len(ranked))
		}
	}
}

// BenchmarkBestQ7 is the optimizer work of one plan-cache miss as
// Scheduler.Submit performs it: one optimizer.Best at the server's DOP,
// which costs the 442 alternatives BenchmarkRankAllQ7 ranks and builds the
// winner's plan only. BENCH_opt.json records it; benchguard gates its
// allocs/op.
func BenchmarkBestQ7(b *testing.B) {
	q, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, err := optimizer.Best(q.Flow, 2, 0, optimizer.NetProfile{})
		if err != nil {
			b.Fatal(err)
		}
		if best.Enum.Expanded != 442 {
			b.Fatalf("costed %d plans, want 442", best.Enum.Expanded)
		}
	}
}

// BenchmarkAblationSCAOverhead measures the full static-code-analysis pass
// over all Q7 UDFs (the paper: "the overhead of performing the static code
// analysis is virtually zero").
func BenchmarkAblationSCAOverhead(b *testing.B) {
	q, err := tpch.BuildQ7(tpch.ModeManual, tpch.DefaultGen())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Flow.DeriveEffects(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- Micro

// BenchmarkInterpreterMapCall measures one interpreted UDF call the way the
// engine's loops make it — a reused tac.Runner emitting into a sink — for
// the Section 3 f1 Map, a concatenating Match/Cross UDF and a summing Reduce
// over a three-record group.
func BenchmarkInterpreterMapCall(b *testing.B) {
	prog := frontend.MustCompile(`
map f1(ir) {
	b := ir[1]
	out := copy(ir)
	if b < 0 {
		b := -b
		out[1] = b
	}
	emit out
}
match jn(l, r) {
	o := concat(l, r)
	emit o
}
reduce sum(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}
`)
	in := record.Record{record.Int(2), record.Int(-3)}
	right := record.Record{record.Null, record.Null, record.Int(7)}
	group := []record.Record{in, in, in}
	sink := func(record.Record) error { return nil }
	for _, c := range []struct {
		name, udf string
		kind      tac.Kind
		call      func(r *tac.Runner) error
	}{
		{"map", "f1", tac.KindMap, func(r *tac.Runner) error { return r.Map(in, sink) }},
		{"binary", "jn", tac.KindBinary, func(r *tac.Runner) error { return r.Binary(in, right, 0, sink) }},
		{"reduce", "sum", tac.KindReduce, func(r *tac.Runner) error { return r.Reduce(group, sink) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			f, _ := prog.Lookup(c.udf)
			r, err := tac.NewRunner(f, c.kind)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.call(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSCAAnalyze measures the static analysis of Q7's script: its four
// functions analysed once each.
func BenchmarkSCAAnalyze(b *testing.B) {
	prog := frontend.MustCompile(tpch.Q7(&tpch.GenParams{SF: 0.01, Seed: 7}).Script)
	b.ReportAllocs()
	for b.Loop() {
		for _, name := range prog.Order {
			if _, err := sca.Analyze(prog.Funcs[name]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNetShuffle compares the same 200k-record DOP-8 repartition over
// the two transports: the in-process channel transport and the TCP
// transport pushing every partition through two loopback shuffle workers
// (the full wire path — framing, worker relay, demux — with only the
// network's physical latency elided). The tcp/channel runtime ratio is the
// wire overhead recorded in BENCH_net.json; shipped bytes are identical by
// construction (byte accounting happens engine-side, before the seam).
func BenchmarkNetShuffle(b *testing.B) {
	const n = 200000
	rng := rand.New(rand.NewSource(42))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	in := make(engine.Partitioned, 8)
	total := 0
	for i := 0; i < n; i++ {
		r := record.Record{
			record.Int(int64(rng.Intn(53) - 26)),
			record.String(words[rng.Intn(len(words))]),
			record.Int(int64(i)),
		}
		total += r.EncodedSize()
		in[i%8] = append(in[i%8], r)
	}
	keys := []int{0, 1}

	run := func(b *testing.B, tp transport.Transport) {
		e := engine.New(8)
		e.Transport = tp
		b.SetBytes(int64(total))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, bytes, err := e.Shuffle(in, keys)
			if err != nil {
				b.Fatal(err)
			}
			if bytes != total || out.Records() != n {
				b.Fatalf("shuffle moved %d records / %d bytes, want %d / %d",
					out.Records(), bytes, n, total)
			}
		}
		b.ReportMetric(float64(total), "shipped-B/op")
		b.ReportMetric(0, "spilled-B/op")
	}

	b.Run("channel", func(b *testing.B) { run(b, nil) })
	b.Run("tcp", func(b *testing.B) {
		addrs := make([]string, 2)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			w := transport.NewWorker(ln)
			go w.Serve()
			defer w.Close()
			addrs[i] = w.Addr()
		}
		tp, err := transport.NewTCP(transport.TCPConfig{Workers: addrs})
		if err != nil {
			b.Fatal(err)
		}
		defer tp.Close()
		run(b, tp)
	})
}

// BenchmarkCombiner measures the pre-shuffle partial aggregation path on a
// high-duplication wordcount-style workload at DOP 8: 200k records over 100
// distinct words, summed per word by a Reduce that is its own combiner. The
// "combined" case runs the optimizer-annotated plan (senders collapse every
// outgoing batch to one record per word before flushing); "no-combiner"
// runs the identical plan with the annotation stripped. The shipped-bytes
// ratio (target ≥5x, measured ~70x) is recorded in BENCH_combiner.json.
func BenchmarkCombiner(b *testing.B) {
	const (
		n     = 200000
		words = 100
	)
	prog := frontend.MustCompile(`
reduce wcount(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}
`)
	udf, _ := prog.Lookup("wcount")
	f := dataflow.NewFlow()
	src := f.Source("words", []string{"word", "n"},
		dataflow.Hints{Records: n, AvgWidthBytes: 16})
	red := f.Reduce("wcount", udf, []string{"word"}, src,
		dataflow.Hints{KeyCardinality: words})
	red.SetCombiner(udf)
	f.SetSink("out", red)
	if err := f.DeriveEffects(); err != nil {
		b.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		b.Fatal(err)
	}
	plan := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 8).Optimize(tree)
	var redNode *optimizer.PhysPlan
	var find func(p *optimizer.PhysPlan)
	find = func(p *optimizer.PhysPlan) {
		if p.Op.Kind == dataflow.KindReduce {
			redNode = p
		}
		for _, in := range p.Inputs {
			find(in)
		}
	}
	find(plan)
	if redNode == nil || !redNode.Combinable {
		b.Fatal("optimizer did not annotate the Reduce as Combinable")
	}

	rng := rand.New(rand.NewSource(42))
	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{
			record.String(fmt.Sprintf("word%03d", rng.Intn(words))),
			record.Int(1),
		}
	}

	for _, mode := range []struct {
		name       string
		combinable bool
	}{
		{"combined", true},
		{"no-combiner", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			redNode.Combinable = mode.combinable
			defer func() { redNode.Combinable = true }()
			e := engine.New(8)
			e.AddSource("words", data)
			b.ReportAllocs()
			b.ResetTimer()
			var shipped, spilled int
			for i := 0; i < b.N; i++ {
				out, stats, err := e.Run(plan)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != words {
					b.Fatalf("reduce emitted %d records, want %d", len(out), words)
				}
				shipped = stats.TotalShippedBytes()
				spilled = stats.TotalSpilledBytes()
			}
			b.ReportMetric(float64(shipped), "shipped-B/op")
			b.ReportMetric(float64(spilled), "spilled-B/op")
		})
	}
}

// BenchmarkSpill measures the out-of-core grouping path on a
// constrained-budget wordcount at DOP 8: 200k records over 20k distinct
// words (low duplication, so no combiner can shrink the stream), summed per
// word. "in-memory" runs with no MemoryBudget; "spill" runs the identical
// plan under a 256 KiB budget (~5 MB working set, forcing multiple sorted
// runs per partition and an external merge). The overhead ratio and the
// spilled-byte volume are recorded in BENCH_spill.json; output equivalence
// is pinned by TestSpillReduceEquivalence.
func BenchmarkSpill(b *testing.B) {
	const (
		n     = 200000
		words = 20000
	)
	prog := frontend.MustCompile(`
reduce wcount(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}
`)
	udf, _ := prog.Lookup("wcount")
	f := dataflow.NewFlow()
	src := f.Source("words", []string{"word", "n"},
		dataflow.Hints{Records: n, AvgWidthBytes: 25})
	red := f.Reduce("wcount", udf, []string{"word"}, src,
		dataflow.Hints{KeyCardinality: words})
	f.SetSink("out", red)
	if err := f.DeriveEffects(); err != nil {
		b.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		b.Fatal(err)
	}
	plan := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 8).Optimize(tree)

	rng := rand.New(rand.NewSource(42))
	data := make(record.DataSet, n)
	distinct := map[int]struct{}{}
	for i := range data {
		w := rng.Intn(words)
		distinct[w] = struct{}{}
		data[i] = record.Record{
			record.String(fmt.Sprintf("word%05d", w)),
			record.Int(1),
		}
	}

	for _, mode := range []struct {
		name   string
		budget int
	}{
		{"in-memory", 0},
		{"spill", 256 << 10},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e := engine.New(8)
			e.MemoryBudget = mode.budget
			e.SpillDir = b.TempDir()
			e.AddSource("words", data)
			b.ReportAllocs()
			b.ResetTimer()
			var shipped, spilled, runs int
			for i := 0; i < b.N; i++ {
				out, stats, err := e.Run(plan)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != len(distinct) {
					b.Fatalf("reduce emitted %d records, want %d", len(out), len(distinct))
				}
				shipped = stats.TotalShippedBytes()
				spilled = stats.TotalSpilledBytes()
				runs = stats.TotalSpillRuns()
			}
			if mode.budget > 0 && runs == 0 {
				b.Fatal("budgeted benchmark never spilled")
			}
			b.ReportMetric(float64(shipped), "shipped-B/op")
			b.ReportMetric(float64(spilled), "spilled-B/op")
			b.ReportMetric(float64(runs), "spill-runs/op")
		})
	}
}

// BenchmarkJoinSpill measures the out-of-core join path on a
// constrained-budget repartition join at DOP 8: 150k × 50k records over 25k
// join keys (~5 MB combined working set on the shuffle receivers).
// "in-memory" runs with no MemoryBudget; "spill" runs the identical plan
// under a 256 KiB budget, forcing both shuffled sides to spill sorted runs
// and the Match to execute as an external merge join over the merged runs
// plus each side's resident remainder (engine/join_spill.go). The overhead
// ratio and spilled volume are recorded in BENCH_joinspill.json; output
// equivalence is pinned by TestSpillJoinEquivalence.
func BenchmarkJoinSpill(b *testing.B) {
	const (
		nL   = 150000
		nR   = 50000
		keys = 25000
	)
	prog := frontend.MustCompile(`
match jn(l, r) {
	o := concat(l, r)
	emit o
}
`)
	udf, _ := prog.Lookup("jn")
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: nL, AvgWidthBytes: 24})
	r := f.Source("R", []string{"rk", "rv"}, dataflow.Hints{Records: nR, AvgWidthBytes: 24})
	jn := f.Match("J", udf, []string{"lk"}, []string{"rk"}, l, r,
		dataflow.Hints{KeyCardinality: keys})
	f.SetSink("out", jn)
	if err := f.DeriveEffects(); err != nil {
		b.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		b.Fatal(err)
	}
	plan := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 8).Optimize(tree)
	var match *optimizer.PhysPlan
	var find func(p *optimizer.PhysPlan)
	find = func(p *optimizer.PhysPlan) {
		if p.Op.Kind == dataflow.KindMatch {
			match = p
		}
		for _, in := range p.Inputs {
			find(in)
		}
	}
	find(plan)
	if match == nil {
		b.Fatal("no Match in plan")
	}
	// Pin the repartition merge join: broadcasting would keep one side fully
	// resident and never touch the spill path this benchmark measures.
	match.Ship = []optimizer.Shipping{optimizer.ShipPartition, optimizer.ShipPartition}
	match.Local = optimizer.LocalMergeJoin

	rng := rand.New(rand.NewSource(42))
	lData := make(record.DataSet, nL)
	for i := range lData {
		k := int64(rng.Intn(keys))
		lData[i] = record.Record{record.String(fmt.Sprintf("key%06d", k)), record.Int(k)}
	}
	rData := make(record.DataSet, nR)
	for i := range rData {
		k := int64(rng.Intn(keys))
		rData[i] = record.Record{record.Null, record.Null, record.String(fmt.Sprintf("key%06d", k)), record.Int(k)}
	}

	for _, mode := range []struct {
		name   string
		budget int
	}{
		{"in-memory", 0},
		{"spill", 256 << 10},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e := engine.New(8)
			e.MemoryBudget = mode.budget
			e.SpillDir = b.TempDir()
			e.AddSource("L", lData)
			e.AddSource("R", rData)
			b.ReportAllocs()
			b.ResetTimer()
			var shipped, spilled, runs, out int
			for i := 0; i < b.N; i++ {
				res, stats, err := e.Run(plan)
				if err != nil {
					b.Fatal(err)
				}
				out = len(res)
				shipped = stats.TotalShippedBytes()
				spilled = stats.TotalSpilledBytes()
				runs = stats.TotalSpillRuns()
			}
			if out == 0 {
				b.Fatal("join emitted nothing")
			}
			if mode.budget > 0 && runs == 0 {
				b.Fatal("budgeted benchmark never spilled")
			}
			b.ReportMetric(float64(shipped), "shipped-B/op")
			b.ReportMetric(float64(spilled), "spilled-B/op")
			b.ReportMetric(float64(runs), "spill-runs/op")
		})
	}
}

// BenchmarkEngineShuffle measures a 4-way hash repartition plus sort-based
// grouping of 10k records (the dominant physical operator cost in the
// relational workloads).
func BenchmarkEngineShuffle(b *testing.B) {
	prog := frontend.MustCompile(`
reduce first(g) {
	r := g.at(0)
	emit r
}
`)
	udf, _ := prog.Lookup("first")
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"k", "v"}, dataflow.Hints{Records: 10000, AvgWidthBytes: 18})
	red := f.Reduce("R", udf, []string{"k"}, src, dataflow.Hints{KeyCardinality: 64})
	f.SetSink("out", red)
	if err := f.DeriveEffects(); err != nil {
		b.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		b.Fatal(err)
	}
	var data record.DataSet
	for i := 0; i < 10000; i++ {
		data = append(data, record.Record{record.Int(int64(i % 64)), record.Int(int64(i))})
	}
	e := engine.New(4)
	e.AddSource("S", data)
	plan := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 4).Optimize(tree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------ Job service

// BenchmarkConcurrentJobs measures the job scheduler's throughput on a
// batch of mixed grouping/join jobs under one shared memory budget, serial
// (one engine slot) versus concurrent (four slots; the global budget admits
// all four). Per-job grants are tight enough that every job spills, so the
// benchmark exercises admission control, per-job engines, per-job spill
// directories, and the budget-aware optimizer together. The serial/
// concurrent ns ratio is the committed BENCH_jobs.json baseline that
// cmd/benchguard enforces.
func BenchmarkConcurrentJobs(b *testing.B) {
	const (
		nJobs   = 8
		perJob  = 96 << 10
		global  = 4 * perJob
		n       = 30000
		keyCard = 12000
	)
	prog := frontend.MustCompile(`
reduce jtally(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}

match jpair(l, r) {
	out := concat(l, r)
	emit out
}`)
	tally, _ := prog.Lookup("jtally")
	pair, _ := prog.Lookup("jpair")

	groupJob := func(seed int64) blackboxflow.JobSpec {
		f := dataflow.NewFlow()
		src := f.Source("in", []string{"k", "v"}, dataflow.Hints{Records: n, AvgWidthBytes: 20})
		red := f.Reduce("jtally", tally, []string{"k"}, src, dataflow.Hints{KeyCardinality: keyCard})
		f.SetSink("out", red)
		if err := f.DeriveEffects(); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		data := make(record.DataSet, n)
		for i := range data {
			data[i] = record.Record{record.Int(int64(rng.Intn(keyCard))), record.Int(int64(rng.Intn(1000)))}
		}
		return blackboxflow.JobSpec{
			Flow: f, Sources: map[string]record.DataSet{"in": data},
			MemoryBudget: perJob, DOP: 2,
		}
	}
	joinJob := func(seed int64) blackboxflow.JobSpec {
		f := dataflow.NewFlow()
		l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: n / 2, AvgWidthBytes: 20})
		r := f.Source("R", []string{"rk", "rv"}, dataflow.Hints{Records: n / 2, AvgWidthBytes: 20})
		m := f.Match("jpair", pair, []string{"lk"}, []string{"rk"}, l, r,
			dataflow.Hints{KeyCardinality: keyCard / 2})
		f.SetSink("out", m)
		if err := f.DeriveEffects(); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		mk := func(pad int) record.DataSet {
			ds := make(record.DataSet, n/2)
			for i := range ds {
				k := int64(rng.Intn(keyCard / 2))
				rec := make(record.Record, pad+2)
				rec[pad] = record.Int(k)
				rec[pad+1] = record.Int(k * 13)
				ds[i] = rec
			}
			return ds
		}
		return blackboxflow.JobSpec{
			Flow: f, Sources: map[string]record.DataSet{"L": mk(0), "R": mk(2)},
			MemoryBudget: perJob, DOP: 2,
		}
	}

	specs := make([]blackboxflow.JobSpec, nJobs)
	for i := range specs {
		if i%2 == 0 {
			specs[i] = groupJob(int64(300 + i))
		} else {
			specs[i] = joinJob(int64(400 + i))
		}
	}

	// Direct baseline: the same specs, optimized and run back-to-back on
	// one engine with the same per-job budget but no scheduler in the way.
	// The serial/direct ns ratio is the scheduler's admission and per-job
	// set-up overhead — a hardware-portable ratio (both sides do identical
	// engine work on the same machine), unlike the concurrent speedup,
	// which scales with available cores.
	b.Run("direct", func(b *testing.B) {
		dir := b.TempDir()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				plan, err := blackboxflow.OptimizeBudget(spec.Flow, 2, perJob)
				if err != nil {
					b.Fatal(err)
				}
				e := blackboxflow.NewEngine(2).WithMemoryBudget(perJob)
				e.SpillDir = dir
				for name, ds := range spec.Sources {
					e.AddSource(name, ds)
				}
				out, _, err := e.Run(plan)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) == 0 {
					b.Fatal("job produced no output")
				}
			}
		}
		b.ReportMetric(float64(nJobs), "jobs/op")
	})

	for _, mode := range []struct {
		name  string
		slots int
	}{
		{"serial", 1},
		{"concurrent", 4},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			b.ResetTimer()
			var spilled, peakGranted, peakRunning int
			for i := 0; i < b.N; i++ {
				s := blackboxflow.NewScheduler(blackboxflow.SchedulerConfig{
					GlobalBudget:  global,
					MaxConcurrent: mode.slots,
					MaxQueue:      -1,
					DOP:           2,
					SpillDir:      dir,
				})
				handles := make([]*blackboxflow.Job, nJobs)
				for jI, spec := range specs {
					j, err := s.Submit(spec)
					if err != nil {
						b.Fatal(err)
					}
					handles[jI] = j
				}
				spilled = 0
				for _, j := range handles {
					out, stats, err := j.Wait(context.Background())
					if err != nil {
						b.Fatal(err)
					}
					if len(out) == 0 {
						b.Fatal("job produced no output")
					}
					spilled += stats.TotalSpilledBytes()
				}
				m := s.Metrics()
				peakGranted, peakRunning = m.PeakGrantedBudget, m.PeakRunning
				if m.PeakGrantedBudget > global {
					b.Fatalf("peak granted %d exceeded the global budget %d", m.PeakGrantedBudget, global)
				}
				if m.PeakRunning > mode.slots {
					b.Fatalf("%d jobs ran concurrently with %d slots", m.PeakRunning, mode.slots)
				}
			}
			if spilled == 0 {
				b.Fatal("no job spilled; grants are not exercising the budget")
			}
			b.ReportMetric(float64(nJobs), "jobs/op")
			b.ReportMetric(float64(spilled), "spilled-B/op")
			b.ReportMetric(float64(peakGranted), "peak-granted-B")
			b.ReportMetric(float64(peakRunning), "peak-running")
			// Reported so benchguard can check peak ≤ global without
			// duplicating this file's constants.
			b.ReportMetric(float64(global), "global-budget-B")
		})
	}
}

// ---------------------------------------------------- Repeated script jobs

// repeatedScriptsDoc is the JSON job document BenchmarkRepeatedScripts
// re-submits: a projection and a join feeding an aggregation, with
// explicit cardinality hints and a deliberately tiny inline payload.
// Submit-to-start cost is then dominated by PactScript compilation, flow
// construction, and plan enumeration — exactly what the scheduler's two
// cache levels elide on a hit — rather than by decoding payload rows,
// which both the cold and cached paths pay alike.
const repeatedScriptsDoc = `{
  "name": "repeated",
  "script": "map scale(ir) { out := copy(ir) out[1] = ir[1] + 1 emit out } map clean(ir) { out := copy(ir) out[3] = ir[3] + 1 emit out } binary pair(l, r) { out := concat(l, r) emit out } reduce tally(g) { first := g.at(0) out := copy(first) out[1] = sum(g, 3) emit out } map fmt(ir) { out := copy(ir) out[3] = ir[1] + ir[3] emit out }",
  "flow": {
    "sources": [
      {"name": "L", "attrs": ["lk", "lv"], "records": 50000, "avg_width_bytes": 20},
      {"name": "R", "attrs": ["rk", "rv"], "records": 50000, "avg_width_bytes": 20}
    ],
    "ops": [
      {"kind": "map", "name": "scale", "udf": "scale", "inputs": ["L"]},
      {"kind": "map", "name": "clean", "udf": "clean", "inputs": ["R"]},
      {"kind": "match", "name": "join", "udf": "pair", "inputs": ["scale", "clean"], "keys": [["lk"], ["rk"]], "key_cardinality": 4000},
      {"kind": "reduce", "name": "agg", "udf": "tally", "inputs": ["join"], "keys": [["lk"]], "key_cardinality": 4000},
      {"kind": "map", "name": "fmt", "udf": "fmt", "inputs": ["agg"]}
    ],
    "sink": "fmt"
  },
  "data": {
    "L": [[1, 10], [2, 20], [3, 30], [1, 40], [2, 50], [3, 60]],
    "R": [[1, 100], [2, 200], [3, 300], [1, 400], [2, 500], [3, 600]]
  }
}`

// q7IngestDoc is the end-to-end benchmark's q7.warm document (TPC-H Q7 at
// SF 4 with inline rows, ≈0.58 MB, made from the workload's one definition)
// for the ingest sub-benchmarks. The shipdate bound appears once, as
// q7IngestHiToken, so a caller can vary the script without touching the
// data; pads are the offsets of padLen bytes of whitespace at the head of
// each source's rows, which a caller rewrites to get the same rows in bytes
// never seen before.
func q7IngestDoc(b *testing.B) (doc []byte, pads []int) {
	g := &tpch.GenParams{SF: 4, Seed: 1}
	def := tpch.Q7(g)
	q, err := tpch.BuildQ7(tpch.ModeManual, g)
	if err != nil {
		b.Fatal(err)
	}
	f := q.Flow
	data := g.Generate(f)
	rows := map[string][]jobs.Row{}
	for _, src := range def.Flow.Sources {
		idx := make([]int, len(src.Attrs))
		for i, a := range src.Attrs {
			idx[i] = f.Attr(a)
		}
		for _, rec := range data[src.Name] {
			rows[src.Name] = append(rows[src.Name], jobs.EncodeRow(rec.Project(idx)))
		}
	}
	bound := fmt.Sprintf("d <= %d", tpch.Q7DateHi)
	if strings.Count(def.Script, bound) != 1 {
		b.Fatalf("the Q7 script does not hold %q exactly once", bound)
	}
	def.Script = strings.Replace(def.Script, bound, fmt.Sprintf("d <= %d", q7IngestHiToken), 1)
	// The benchmark's Q7 traffic declares a combiner on the final sum; the
	// paper's Figure 2 flow has none.
	def.Script += fmt.Sprintf(`
reduce partialVolume(g) { first := g.at(0) out := copy(first) out[%[1]d] = sum(g, %[1]d) emit out }`, f.Attr("l_revenue"))
	def.Flow.Ops[len(def.Flow.Ops)-1].Combiner = "partialVolume"
	doc, err = json.Marshal(&jobs.ScriptJob{Name: "q7", Script: def.Script, Flow: def.Flow, Data: rows})
	if err != nil {
		b.Fatal(err)
	}
	if bytes.Count(doc, []byte(q7IngestHiPrefix+strconv.Itoa(q7IngestHiToken))) != 1 {
		b.Fatal("the shipdate bound does not appear exactly once in the document")
	}
	for _, src := range def.Flow.Sources {
		head := []byte(`"` + src.Name + `":[`)
		at := bytes.Index(doc, head)
		if at < 0 || bytes.Count(doc, head) != 1 {
			b.Fatalf("source %q not found exactly once", src.Name)
		}
		at += len(head)
		doc = append(doc[:at], append(bytes.Repeat([]byte(" "), q7IngestPadLen), doc[at:]...)...)
	}
	for _, src := range def.Flow.Sources {
		pads = append(pads, bytes.Index(doc, []byte(`"`+src.Name+`":[`))+len(src.Name)+4)
	}
	return doc, pads
}

const (
	// The shipdate bound as json.Marshal writes it, and a value with room
	// for 1000 variants of the same width.
	q7IngestHiPrefix = `d \u003c= `
	q7IngestHiToken  = 100000000 + tpch.Q7DateHi
	q7IngestPadLen   = 16
)

// BenchmarkRepeatedScripts measures what the plan cache is for: the
// per-job submit-to-start latency of re-submitting the same script
// document, cold (caching disabled, every submission recompiles) versus
// cached (flow and plan reused). The cold/cached ns ratio is the committed
// BENCH_svc.json baseline that cmd/benchguard enforces. A third
// sub-benchmark drives the same document from several tenants at once under
// quotas and a shared budget, and fails if the scheduler ever exceeds the
// global budget or lets a tenant past its caps. The ingest sub-benchmarks
// time Scheduler.ParseScriptJob alone on a Q7 SF 4 document, at the three
// levels the ingest caches can answer from.
func BenchmarkRepeatedScripts(b *testing.B) {
	raw := []byte(repeatedScriptsDoc)

	// submitOnce parses, submits, and runs one job on an otherwise idle
	// scheduler. The returned latency is submit-to-start: from raw bytes
	// to Submit returning with the physical plan in hand and the job
	// admitted — JSON decode, script compilation and plan enumeration
	// (cold) or cache lookups (cached), hint resolution, hashing, and
	// admission — but not the run itself.
	submitOnce := func(b *testing.B, s *blackboxflow.Scheduler) time.Duration {
		b.Helper()
		t0 := time.Now()
		spec, err := s.ParseScriptJob(raw)
		if err != nil {
			b.Fatal(err)
		}
		j, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		submitted := time.Since(t0)
		if j.Started().IsZero() {
			b.Fatal("job queued on an idle scheduler")
		}
		out, _, err := j.Wait(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("job produced no output")
		}
		return submitted
	}

	// Cold: plan caching disabled; every submission recompiles the script
	// and rebuilds the flow from scratch.
	b.Run("cold", func(b *testing.B) {
		s := blackboxflow.NewScheduler(blackboxflow.SchedulerConfig{
			MaxConcurrent: 1, DOP: 2, PlanCacheSize: -1,
		})
		var total time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total += submitOnce(b, s)
		}
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "submit-to-start-ns/job")
	})

	// Cached: one warming submission outside the timer, then every
	// iteration must hit both cache levels.
	b.Run("cached", func(b *testing.B) {
		s := blackboxflow.NewScheduler(blackboxflow.SchedulerConfig{
			MaxConcurrent: 1, DOP: 2,
		})
		submitOnce(b, s)
		var total time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total += submitOnce(b, s)
		}
		b.StopTimer()
		m := s.Metrics()
		if m.FlowCacheHits < int64(b.N) || m.PlanCacheHits < int64(b.N) {
			b.Fatalf("cache hits flow=%d plan=%d, want >= %d each",
				m.FlowCacheHits, m.PlanCacheHits, b.N)
		}
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "submit-to-start-ns/job")
	})

	// Multitenant: four tenants re-submit the document concurrently under
	// per-tenant caps and a global budget that fits only two grants. The
	// in-benchmark assertions are the acceptance checks: peak granted
	// never exceeds the global budget, and no tenant exceeds its running
	// cap or budget share.
	b.Run("multitenant", func(b *testing.B) {
		const (
			tenants   = 4
			perTenant = 6
			perJob    = 64 << 10
			global    = 2 * perJob
			maxRun    = 2
		)
		b.ResetTimer()
		var peakGranted, tenantPeakRun int
		for i := 0; i < b.N; i++ {
			s := blackboxflow.NewScheduler(blackboxflow.SchedulerConfig{
				GlobalBudget:     global,
				MaxConcurrent:    4,
				MaxQueue:         -1,
				DOP:              2,
				TenantMaxRunning: maxRun,
				TenantBudgetFrac: 0.5,
			})
			var handles []*blackboxflow.Job
			for t := 0; t < tenants; t++ {
				name := fmt.Sprintf("tenant-%d", t)
				for k := 0; k < perTenant; k++ {
					spec, err := s.ParseScriptJob(raw)
					if err != nil {
						b.Fatal(err)
					}
					spec.Tenant = name
					spec.MemoryBudget = perJob
					j, err := s.Submit(spec)
					if err != nil {
						b.Fatal(err)
					}
					handles = append(handles, j)
				}
			}
			for _, j := range handles {
				if _, _, err := j.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			m := s.Metrics()
			if m.PeakGrantedBudget > global {
				b.Fatalf("peak granted %d exceeded the global budget %d",
					m.PeakGrantedBudget, global)
			}
			peakGranted, tenantPeakRun = m.PeakGrantedBudget, 0
			for name, tm := range m.Tenants {
				if tm.PeakRunning > maxRun {
					b.Fatalf("tenant %s peak running %d exceeded its cap %d",
						name, tm.PeakRunning, maxRun)
				}
				if share := global / 2; tm.PeakGrantedBudget > share {
					b.Fatalf("tenant %s peak granted %d exceeded its share %d",
						name, tm.PeakGrantedBudget, share)
				}
				if tm.PeakRunning > tenantPeakRun {
					tenantPeakRun = tm.PeakRunning
				}
			}
		}
		b.ReportMetric(float64(tenants*perTenant), "jobs/op")
		b.ReportMetric(float64(peakGranted), "peak-granted-B")
		b.ReportMetric(float64(global), "global-budget-B")
		b.ReportMetric(float64(tenantPeakRun), "tenant-peak-running")
		b.ReportMetric(float64(maxRun), "tenant-cap")
	})

	// Ingest: raw bytes to Spec, nothing submitted. Each mode parses the
	// document once outside the timer, so the flow cache is warm wherever
	// the script repeats.
	ingest := func(name string, next func(doc []byte, pads []int, i int), check func(b *testing.B, m blackboxflow.JobMetrics)) {
		b.Run("ingest/"+name, func(b *testing.B) {
			doc, pads := q7IngestDoc(b)
			s := blackboxflow.NewScheduler(blackboxflow.SchedulerConfig{MaxConcurrent: 1, DOP: 2})
			if _, err := s.ParseScriptJob(doc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next(doc, pads, i+1)
				if _, err := s.ParseScriptJob(doc); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			check(b, s.Metrics())
		})
	}
	// miss: the same rows in bytes never seen before (the whitespace pad at
	// the head of every source counts up in base 4), so the document memo
	// and the source cache miss, every source is digested, decoded and
	// inserted — past the byte ceiling, evicting — while the script's flow
	// is cached.
	ingest("miss", func(doc []byte, pads []int, i int) {
		for _, at := range pads {
			for k, n := 0, i; k < q7IngestPadLen; k, n = k+1, n/4 {
				doc[at+k] = " \t\n\r"[n%4]
			}
		}
	}, func(b *testing.B, m blackboxflow.JobMetrics) {
		if m.FlowCacheMisses != 1 || m.SourceCacheHits != 0 {
			b.Fatalf("flow misses %d, source hits %d: not the miss path", m.FlowCacheMisses, m.SourceCacheHits)
		}
	})
	// source-hit: a new script over the same rows (the q7.coldplan shape):
	// the document and the flow miss, every source is served decoded.
	ingest("source-hit", func(doc []byte, _ []int, i int) {
		at := bytes.Index(doc, []byte(q7IngestHiPrefix)) + len(q7IngestHiPrefix)
		copy(doc[at:], strconv.Itoa(q7IngestHiToken+i%1000))
	}, func(b *testing.B, m blackboxflow.JobMetrics) {
		if m.SourceCacheMisses != 6 || m.SourceCacheHits != 6*int64(b.N) {
			b.Fatalf("source hits/misses %d/%d: not the source-hit path", m.SourceCacheHits, m.SourceCacheMisses)
		}
	})
	// doc-hit: the same bytes again; a fingerprint of the body's length and
	// ends, one comparison of the body with the document memo's own copy,
	// and look-ups.
	ingest("doc-hit", func([]byte, []int, int) {}, func(b *testing.B, m blackboxflow.JobMetrics) {
		if m.FlowCacheHits != int64(b.N) || m.SourceCacheMisses != 6 {
			b.Fatalf("flow hits %d, source misses %d: not the replay path", m.FlowCacheHits, m.SourceCacheMisses)
		}
	})
}
