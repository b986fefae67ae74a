package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// This file is the differential harness: every stage-variant family —
// fused Map chains, combining shuffles, budget-forced spill grouping, and
// joins — runs twice, once through the operator pipeline (batched,
// combining, spill-capable, columnar) and once on the reference executor of
// reference_test.go (record-at-a-time shipping, stage-at-a-time Maps, no
// combining, no spilling), at DOP 1, 2, 8, and 17, and the outputs must be
// byte-identical — the canonical group/join order makes both agree record
// for record. The stage matrix (matrix_test.go) enumerates the stage
// combinations exhaustively on handcrafted plans; the tests here keep
// optimizer-produced plans and random UDFs in the comparison. DOP 1
// exercises the degenerate single-partition topology, 2 the minimal
// shuffle, 8 more partitions than test cores, and 17 a prime that leaves
// no hash distribution aligned with batch boundaries.

// differentialDOPs are the degrees of parallelism the suite pins.
var differentialDOPs = []int{1, 2, 8, 17}

// runBothModes executes the plan through the pipeline and on the reference
// executor and requires byte-identical outputs and equal exact counters. It
// returns the pipeline's output and run stats so callers can assert the
// intended stage variants (spilling, combining) were actually taken; the
// reference executor ignores the budget (it is fully resident), which is
// exactly what makes it a baseline for the budgeted runs too.
func runBothModes(t *testing.T, label string, phys *optimizer.PhysPlan, sources map[string]record.DataSet, dop, budget int, spillDir string) (record.DataSet, *RunStats) {
	t.Helper()
	e := New(dop)
	e.MemoryBudget = budget
	e.SpillDir = spillDir
	for name, ds := range sources {
		e.AddSource(name, ds)
	}
	out, stats, err := e.Run(phys)
	if err != nil {
		t.Fatalf("%s (pipeline): %v", label, err)
	}
	ref, refStats := mustRefRun(t, e, phys, label)
	requireByteIdentical(t, out, ref, label+": pipeline vs reference")
	requireSameCounters(t, stats, refStats, label)
	return out, stats
}

// requireSameCounters requires the pipeline's per-operator statistics to
// match the reference executor's entry for entry: same operators in the
// same (plan post-order) positions, same records in and out, same UDF
// calls. Shipped bytes must match wherever the pipeline did not combine —
// a combiner exists to ship fewer. The reference neither combines nor
// spills, so those counters have no counterpart to compare.
func requireSameCounters(t *testing.T, got, ref *RunStats, label string) {
	t.Helper()
	if len(got.PerOp) != len(ref.PerOp) {
		t.Fatalf("%s: pipeline reports %d operators, reference %d", label, len(got.PerOp), len(ref.PerOp))
	}
	for i, r := range ref.PerOp {
		g := got.PerOp[i]
		if g.Name != r.Name || g.InRecords != r.InRecords || g.OutRecords != r.OutRecords || g.UDFCalls != r.UDFCalls {
			t.Fatalf("%s: PerOp[%d] is %s in=%d out=%d calls=%d, reference %s in=%d out=%d calls=%d",
				label, i, g.Name, g.InRecords, g.OutRecords, g.UDFCalls, r.Name, r.InRecords, r.OutRecords, r.UDFCalls)
		}
		if g.CombinerCalls == 0 && g.ShippedBytes != r.ShippedBytes {
			t.Fatalf("%s: %s shipped %d bytes, reference %d", label, g.Name, g.ShippedBytes, r.ShippedBytes)
		}
	}
}

// TestDifferentialMapChains pins the fused Map chain (the prebuilt
// tac.Runner stack) against the reference executor's stage-at-a-time Maps over randomly
// generated multi-emitting, filtering, rewriting UDF chains — a
// determinism check that the fused loop's output is a pure function of
// the plan and data, not of engine configuration.
func TestDifferentialMapChains(t *testing.T) {
	const (
		trials = 3
		width  = 4
		nOps   = 4
		nRows  = 160
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(31000 + trial)))
		var src string
		names := make([]string, nOps)
		for i := range names {
			names[i] = fmt.Sprintf("u%d", i)
			src += genUDF(rng, names[i], width)
		}
		prog, err := tac.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		f := dataflow.NewFlow()
		attrs := make([]string, width)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		node := f.Source("S", attrs, dataflow.Hints{Records: nRows, AvgWidthBytes: float64(9 * width)})
		for _, n := range names {
			fn, _ := prog.Lookup(n)
			node = f.Map(n, fn, node, dataflow.Hints{})
		}
		f.SetSink("out", node)
		if err := f.DeriveEffects(false); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tree, err := optimizer.FromFlow(f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		data := make(record.DataSet, nRows)
		for i := range data {
			r := make(record.Record, width)
			for j := range r {
				r[j] = record.Int(int64(rng.Intn(13) - 6))
			}
			data[i] = r
		}
		sources := map[string]record.DataSet{"S": data}
		for _, dop := range differentialDOPs {
			po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop)
			phys := po.Optimize(tree)
			runBothModes(t, fmt.Sprintf("maps trial %d dop %d", trial, dop), phys, sources, dop, 0, "")
		}
	}
}

// TestDifferentialCombinedReduce pins the combining shuffle (columnar
// ColBatch.CombineInto senders) and, under a tiny budget, the spill path's
// external merge against the uncombined, unspilled reference executor: partial
// aggregation and out-of-core grouping must be invisible in the output.
func TestDifferentialCombinedReduce(t *testing.T) {
	const trials = 3
	spillDir := t.TempDir()
	sawSpill := false
	for trial := 0; trial < trials; trial++ {
		tr := genTinyBudgetTrial(t, trial)
		sources := map[string]record.DataSet{"S": tr.data}
		for _, dop := range differentialDOPs {
			po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(tr.flow), dop)
			phys := po.Optimize(optimizer.NewEnumerator().Enumerate(tr.tree)[0])
			label := fmt.Sprintf("reduce trial %d dop %d", trial, dop)
			unlimited, _ := runBothModes(t, label+" unlimited", phys, sources, dop, 0, spillDir)
			budgeted, stats := runBothModes(t, label+" budgeted", phys, sources, dop, 96*dop, spillDir)
			if stats.TotalSpillRuns() > 0 {
				sawSpill = true
			}
			requireByteIdentical(t, budgeted, unlimited, label+": budgeted vs unlimited")
		}
	}
	if !sawSpill {
		t.Fatal("no run ever spilled — the tiny budget is not exercising the columnar spill-sort")
	}
}

// TestDifferentialJoins pins the join paths: in-memory Match (merge or hash
// local strategy, per the optimizer) and the budget-forced external merge
// join, whose run sorts go through the columnar sort. Per-side-unique keys
// with key-determined payloads keep the canonical join order scheduler-
// independent, the repo's convention for byte-comparable runs.
func TestDifferentialJoins(t *testing.T) {
	const nKeys = 140
	prog := tac.MustParse(`
func binary jn($l, $r) {
	$o := concat $l $r
	emit $o
}`)
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"a0", "a1"}, dataflow.Hints{Records: nKeys, AvgWidthBytes: 18})
	r := f.Source("R", []string{"a2", "a3"}, dataflow.Hints{Records: nKeys, AvgWidthBytes: 18})
	jn, _ := prog.Lookup("jn")
	m := f.Match("J", jn, []string{"a0"}, []string{"a2"}, l, r, dataflow.Hints{KeyCardinality: nKeys})
	f.SetSink("out", m)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	lData := make(record.DataSet, nKeys)
	rData := make(record.DataSet, nKeys)
	for i := 0; i < nKeys; i++ {
		k := int64(i)
		lData[i] = record.Record{record.Int(k), record.Int(k*3 + 1)}
		rData[i] = record.Record{record.Null, record.Null, record.Int(k), record.Int(k*5 + 2)}
	}
	sources := map[string]record.DataSet{"L": lData, "R": rData}
	spillDir := t.TempDir()
	sawSpill := false
	for _, dop := range differentialDOPs {
		po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop)
		phys := po.Optimize(tree)
		label := fmt.Sprintf("join dop %d", dop)
		unlimited, _ := runBothModes(t, label+" unlimited", phys, sources, dop, 0, spillDir)
		budgeted, stats := runBothModes(t, label+" budgeted", phys, sources, dop, 96*dop, spillDir)
		if stats.TotalSpillRuns() > 0 {
			sawSpill = true
		}
		requireByteIdentical(t, budgeted, unlimited, label+": budgeted vs unlimited")
	}
	if !sawSpill {
		t.Fatal("no join run ever spilled — the tiny budget is not exercising the external merge join")
	}
}
