package engine

import (
	"bytes"
	"fmt"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// buildWordcountFlow constructs words -> sumPerWord(word) with no combiner,
// so the plan executes through the plain (or spill-capable) shuffle path.
func buildWordcountFlow(t *testing.T, records, keyCard float64) (*dataflow.Flow, *optimizer.Tree) {
	t.Helper()
	prog := tac.MustParse(`
func reduce sumPerWord($g) {
	$first := groupget $g 0
	$or := copyrec $first
	$s := agg sum $g 1
	setfield $or 1 $s
	emit $or
}
`)
	udf, _ := prog.Lookup("sumPerWord")
	f := dataflow.NewFlow()
	src := f.Source("words", []string{"word", "n"},
		dataflow.Hints{Records: records, AvgWidthBytes: 22})
	red := f.Reduce("sumPerWord", udf, []string{"word"}, src,
		dataflow.Hints{KeyCardinality: keyCard})
	f.SetSink("out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, tree
}

// wordcountData builds n records over `keys` distinct words with value i%5+1.
func wordcountData(n, keys int) record.DataSet {
	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{
			record.String(fmt.Sprintf("word%05d", i%keys)),
			record.Int(int64(i%5 + 1)),
		}
	}
	return data
}

// requireByteIdentical fails unless the two data sets hold the same records
// in the same order, encoded byte for byte — Int(1) and Float(1) differ.
func requireByteIdentical(t *testing.T, got, want record.DataSet, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].AppendEncoded(nil), want[i].AppendEncoded(nil)) {
			t.Fatalf("%s: record %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestSpillReduceEquivalence pins the tentpole contract: a grouping
// workload whose working set exceeds MemoryBudget completes with
// SpillRuns > 0 and produces output byte-identical to the unlimited-budget
// run, at DOP {1, 2, 8, 17}, with identical per-operator record counts and
// UDF calls.
func TestSpillReduceEquivalence(t *testing.T) {
	const (
		n    = 20000
		keys = 500
	)
	data := wordcountData(n, keys)
	f, tree := buildWordcountFlow(t, n, keys)

	for _, dop := range []int{1, 2, 8, 17} {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop)
			phys := po.Optimize(tree)

			e := New(dop)
			e.AddSource("words", data)
			e.SpillDir = t.TempDir()
			refOut, refStats, err := e.Run(phys)
			if err != nil {
				t.Fatal(err)
			}
			if len(refOut) != keys {
				t.Fatalf("unlimited run emitted %d records, want %d", len(refOut), keys)
			}
			if refStats.TotalSpillRuns() != 0 {
				t.Fatalf("unlimited run spilled %d runs", refStats.TotalSpillRuns())
			}

			// ~22 B/record × 20k records ≈ 440 KB working set; 32 KB budget
			// forces several runs per partition.
			e.MemoryBudget = 32 << 10
			spillOut, spillStats, err := e.Run(phys)
			if err != nil {
				t.Fatal(err)
			}
			requireByteIdentical(t, spillOut, refOut, "budgeted output")
			if spillStats.TotalSpillRuns() == 0 {
				t.Fatal("budgeted run wrote no spill runs — working set should overflow")
			}
			if spillStats.TotalSpilledBytes() == 0 {
				t.Fatal("budgeted run reports zero spilled bytes")
			}

			ref, spilled := statsByName(refStats), statsByName(spillStats)
			s, r := spilled["sumPerWord"], ref["sumPerWord"]
			if s.InRecords != r.InRecords || s.OutRecords != r.OutRecords || s.UDFCalls != r.UDFCalls {
				t.Errorf("spilled stats in=%d out=%d calls=%d, unlimited in=%d out=%d calls=%d",
					s.InRecords, s.OutRecords, s.UDFCalls, r.InRecords, r.OutRecords, r.UDFCalls)
			}
			if s.ShippedBytes != r.ShippedBytes {
				t.Errorf("spilling changed shipped bytes: %d vs %d", s.ShippedBytes, r.ShippedBytes)
			}
		})
	}
}

// TestSpillCombinedReduce: combining and spilling compose — senders still
// partially aggregate, receivers spill the combined stream, output stays
// byte-identical to the unlimited combined run.
func TestSpillCombinedReduce(t *testing.T) {
	const n = 20000
	data, _ := combineTestData(n)
	f, tree := buildCombineFlow(t)

	for _, dop := range []int{2, 8} {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop)
			phys := po.Optimize(tree)
			if red := findReduceNode(phys, "sumN"); red == nil || !red.Combinable {
				t.Fatal("plan not combinable")
			}

			e := New(dop)
			e.AddSource("words", data)
			e.SpillDir = t.TempDir()
			refOut, _, err := e.Run(phys)
			if err != nil {
				t.Fatal(err)
			}

			// A budget below one flush window's combined output (20 words ≈
			// a few hundred bytes per window, thousands of windows) forces
			// the combined stream itself to spill.
			e.MemoryBudget = 512
			out, stats, err := e.Run(phys)
			if err != nil {
				t.Fatal(err)
			}
			requireByteIdentical(t, out, refOut, "budgeted combined output")
			if stats.TotalCombinerCalls() == 0 {
				t.Error("budgeted combined run reports zero combiner calls")
			}
			if stats.TotalSpillRuns() == 0 {
				t.Error("budgeted combined run wrote no spill runs")
			}
		})
	}
}

// TestSpillCoGroupEquivalence: a CoGroup whose shuffled sides overflow the
// budget produces byte-identical output to the unlimited run.
func TestSpillCoGroupEquivalence(t *testing.T) {
	// The UDF is deliberately order-insensitive within a group (sum + group
	// sizes, key from either side): within-group arrival order is
	// scheduler-dependent on any path, spilling or not.
	prog := tac.MustParse(`
func cogroup cg($g1, $g2) {
	$or := newrec
	$n1 := groupsize $g1
	if $n1 == 0 goto RIGHT
	$r := groupget $g1 0
	$k := getfield $r 0
	goto SET
RIGHT:
	$r2 := groupget $g2 0
	$k := getfield $r2 2
SET:
	setfield $or 0 $k
	$s := agg sum $g1 1
	setfield $or 1 $s
	$n2 := groupsize $g2
	setfield $or 3 $n2
	emit $or
}
`)
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: 6000, AvgWidthBytes: 18})
	r := f.Source("R", []string{"rk"}, dataflow.Hints{Records: 4000, AvgWidthBytes: 9})
	f.DeclareAttr("matches")
	cg := f.CoGroup("CG", func() *tac.Func { u, _ := prog.Lookup("cg"); return u }(),
		[]string{"lk"}, []string{"rk"}, l, r, dataflow.Hints{KeyCardinality: 300})
	f.SetSink("Out", cg)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}

	var lData, rData record.DataSet
	for i := 0; i < 6000; i++ {
		lData = append(lData, record.Record{record.Int(int64(i % 300)), record.Int(int64(i))})
	}
	// Right keys overlap the low half of the left keys and add 100 of
	// their own.
	for i := 0; i < 4000; i++ {
		rData = append(rData, record.Record{record.Null, record.Null, record.Int(int64(i%250 + 150))})
	}

	for _, dop := range []int{1, 2, 8, 17} {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop)
			phys := po.Optimize(tree)

			e := New(dop)
			e.AddSource("L", lData)
			e.AddSource("R", rData)
			e.SpillDir = t.TempDir()
			refOut, _, err := e.Run(phys)
			if err != nil {
				t.Fatal(err)
			}
			if len(refOut) != 400 {
				t.Fatalf("unlimited run emitted %d records, want 400", len(refOut))
			}

			e.MemoryBudget = 16 << 10
			out, stats, err := e.Run(phys)
			if err != nil {
				t.Fatal(err)
			}
			requireByteIdentical(t, out, refOut, "budgeted cogroup output")
			if stats.TotalSpillRuns() == 0 {
				t.Fatal("budgeted cogroup run wrote no spill runs")
			}
		})
	}
}

// TestSpillEdgeCases: empty inputs and a budget smaller than a single batch
// must neither deadlock nor change results.
func TestSpillEdgeCases(t *testing.T) {
	f, tree := buildWordcountFlow(t, 1000, 50)
	po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 4)
	phys := po.Optimize(tree)

	// Empty source under a budget.
	e := New(4)
	e.AddSource("words", nil)
	e.SpillDir = t.TempDir()
	e.MemoryBudget = 1
	out, stats, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.TotalSpillRuns() != 0 {
		t.Fatalf("empty input: %d records, %d runs", len(out), stats.TotalSpillRuns())
	}

	// Budget of one byte: every received batch spills as its own run.
	data := wordcountData(1000, 50)
	e = New(4)
	e.AddSource("words", data)
	e.SpillDir = t.TempDir()
	ref, _, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	e.MemoryBudget = 1
	out, stats, err = e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	requireByteIdentical(t, out, ref, "1-byte budget output")
	if stats.TotalSpillRuns() == 0 {
		t.Fatal("1-byte budget wrote no runs")
	}
}

// TestSpillLegacyShuffleBypass: the reference executor's record-at-a-time
// shuffle is fully resident; a budget does not reach it, and outputs still
// agree with the budgeted pipeline.
func TestSpillLegacyShuffleBypass(t *testing.T) {
	f, tree := buildWordcountFlow(t, 2000, 40)
	po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 4)
	phys := po.Optimize(tree)
	data := wordcountData(2000, 40)

	e := New(4)
	e.AddSource("words", data)
	e.SpillDir = t.TempDir()
	e.MemoryBudget = 64
	budgeted, budgetedStats, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}

	legacy, stats := mustRefRun(t, e, phys, "budgeted wordcount")
	if stats.TotalSpillRuns() != 0 {
		t.Errorf("reference executor spilled %d runs, want 0", stats.TotalSpillRuns())
	}
	requireByteIdentical(t, legacy, budgeted, "reference vs budgeted output")
	requireSameCounters(t, budgetedStats, stats, "budgeted wordcount vs reference")
}
