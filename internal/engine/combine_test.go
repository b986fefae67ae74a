package engine

import (
	"fmt"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// combineProgram is a wordcount-style pipeline over fields word=0, n=1,
// keep=2: a filter Map, an arithmetic Map, and a sum-per-word Reduce whose
// UDF is fully algebraic — summing partial sums equals summing the raw
// values — so the Reduce can serve as its own combiner.
var combineProgram = tac.MustParse(`
func map keepOnly($ir) {
	$k := getfield $ir 2
	if $k == 0 goto SKIP
	emit $ir
SKIP: return
}
func map double($ir) {
	$n := getfield $ir 1
	$d := $n + $n
	$or := copyrec $ir
	setfield $or 1 $d
	emit $or
}
func reduce sumN($g) {
	$first := groupget $g 0
	$or := copyrec $first
	$s := agg sum $g 1
	setfield $or 1 $s
	setfield $or 2 null
	emit $or
}
func reduce badKeyWriter($g) {
	$first := groupget $g 0
	$or := copyrec $first
	setfield $or 0 "rewritten"
	emit $or
}
`)

// buildCombineFlow constructs words -> keepOnly -> double -> sumN(word)
// with the Reduce declared combinable (its own UDF as combiner) and SCA
// effects derived.
func buildCombineFlow(t *testing.T) (*dataflow.Flow, *optimizer.Tree) {
	t.Helper()
	f := dataflow.NewFlow()
	src := f.Source("words", []string{"word", "n", "keep"},
		dataflow.Hints{Records: 20000, AvgWidthBytes: 24})
	m1 := f.Map("keepOnly", getUDF(t, combineProgram, "keepOnly"), src,
		dataflow.Hints{Selectivity: 0.5})
	m2 := f.Map("double", getUDF(t, combineProgram, "double"), m1, dataflow.Hints{})
	red := f.Reduce("sumN", getUDF(t, combineProgram, "sumN"), []string{"word"}, m2,
		dataflow.Hints{KeyCardinality: 20})
	red.SetCombiner(red.UDF)
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

// combineTestData builds a high-duplication data set (20 distinct words)
// plus the expected Reduce output of the pipeline, computed directly.
func combineTestData(n int) (record.DataSet, map[string]int64) {
	data := make(record.DataSet, n)
	sums := map[string]int64{}
	for i := 0; i < n; i++ {
		word := fmt.Sprintf("w%02d", i%20)
		val := int64(i%7 + 1)
		keep := int64(i % 2)
		data[i] = record.Record{record.String(word), record.Int(val), record.Int(keep)}
		if keep == 1 {
			sums[word] += 2 * val
		}
	}
	return data, sums
}

func findReduceNode(p *optimizer.PhysPlan, name string) *optimizer.PhysPlan {
	if p.Op.Name == name {
		return p
	}
	for _, in := range p.Inputs {
		if n := findReduceNode(in, name); n != nil {
			return n
		}
	}
	return nil
}

// TestCombinedReduceEquivalence pins the tentpole contract: a Combinable
// Reduce produces byte-identical results to the non-combined path at DOP
// {1, 2, 8, 17}, with identical per-operator record counts and final-UDF
// calls, strictly fewer shipped bytes, and a nonzero combiner-call count.
func TestCombinedReduceEquivalence(t *testing.T) {
	const n = 20000
	data, sums := combineTestData(n)
	f, tree := buildCombineFlow(t)

	for _, dop := range []int{1, 2, 8, 17} {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop)
			phys := po.Optimize(tree)
			red := findReduceNode(phys, "sumN")
			if red == nil || !red.Combinable {
				t.Fatalf("optimizer did not annotate the shuffled Reduce as Combinable:\n%s", phys.Indent())
			}

			e := New(dop)
			e.AddSource("words", data)
			combOut, combStats, err := e.Run(phys)
			if err != nil {
				t.Fatal(err)
			}

			// Direct evaluation: one record {word, 2*sum(n), null} per word.
			var want record.DataSet
			for w, s := range sums {
				want = append(want, record.Record{record.String(w), record.Int(s), record.Null})
			}
			if !combOut.Equal(want) {
				t.Fatalf("combined output (%d records) differs from direct evaluation (%d records)",
					len(combOut), len(want))
			}

			// Strip the annotation and re-run: the plain shuffle path.
			red.Combinable = false
			plainOut, plainStats, err := e.Run(phys)
			red.Combinable = true
			if err != nil {
				t.Fatal(err)
			}
			if len(plainOut) != len(combOut) {
				t.Fatalf("combined path emitted %d records, plain path %d", len(combOut), len(plainOut))
			}
			// Byte-identical: same records in the same order (partitioning
			// and per-partition group order are key-determined, hence
			// unchanged by combining).
			for i := range plainOut {
				if !plainOut[i].Equal(combOut[i]) {
					t.Fatalf("record %d differs: combined %v, plain %v", i, combOut[i], plainOut[i])
				}
			}

			// The reference executor's record-at-a-time shuffle has no batch
			// to combine; it must still agree.
			legacyOut, legacyStats := mustRefRun(t, e, phys, "combined reduce")
			if !legacyOut.Equal(combOut) {
				t.Fatal("reference output differs from combined output")
			}
			if legacyStats.TotalCombinerCalls() != 0 {
				t.Errorf("reference executor reported %d combiner calls, want 0", legacyStats.TotalCombinerCalls())
			}
			requireSameCounters(t, combStats, legacyStats, "combined reduce vs reference")

			// Exact per-operator statistics across the fused run.
			comb, plain := statsByName(combStats), statsByName(plainStats)
			for _, name := range []string{"keepOnly", "double", "sumN"} {
				c, p := comb[name], plain[name]
				if c.InRecords != p.InRecords || c.OutRecords != p.OutRecords || c.UDFCalls != p.UDFCalls {
					t.Errorf("%s: combined stats in=%d out=%d calls=%d, plain in=%d out=%d calls=%d",
						name, c.InRecords, c.OutRecords, c.UDFCalls, p.InRecords, p.OutRecords, p.UDFCalls)
				}
			}
			if comb["sumN"].CombinerCalls == 0 {
				t.Error("combined run reports zero combiner calls")
			}
			if cb, pb := combStats.TotalShippedBytes(), plainStats.TotalShippedBytes(); cb >= pb {
				t.Errorf("combined path shipped %d bytes, plain path %d — combining did not shrink the shuffle", cb, pb)
			}
		})
	}
}

// TestCombinerSafetyRejection: a declared combiner that writes the grouping
// key must not be annotated Combinable — partial records would hash to the
// wrong partition — and the flow must still execute correctly through the
// plain path.
func TestCombinerSafetyRejection(t *testing.T) {
	f := dataflow.NewFlow()
	src := f.Source("words", []string{"word", "n", "keep"},
		dataflow.Hints{Records: 1000, AvgWidthBytes: 24})
	red := f.Reduce("sumN", getUDF(t, combineProgram, "sumN"), []string{"word"}, src,
		dataflow.Hints{KeyCardinality: 20})
	red.SetCombiner(getUDF(t, combineProgram, "badKeyWriter"))
	f.SetSink("out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 4)
	phys := po.Optimize(tree)
	if node := findReduceNode(phys, "sumN"); node == nil || node.Combinable {
		t.Fatalf("optimizer annotated a key-writing combiner as Combinable:\n%s", phys.Indent())
	}

	data, _ := combineTestData(1000)
	e := New(4)
	e.AddSource("words", data)
	if _, _, err := e.Run(phys); err != nil {
		t.Fatal(err)
	}
}

// TestCombineShuffleEdgeCases: empty inputs, fully skewed keys, and a
// combiner window smaller than the key count must neither deadlock nor
// change results.
func TestCombineShuffleEdgeCases(t *testing.T) {
	f, tree := buildCombineFlow(t)
	po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 4)
	phys := po.Optimize(tree)
	if red := findReduceNode(phys, "sumN"); red == nil || !red.Combinable {
		t.Fatal("plan not combinable")
	}

	// Empty source.
	e := New(4)
	e.AddSource("words", nil)
	out, stats, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty input produced %d records", len(out))
	}
	if stats.TotalShippedBytes() != 0 {
		t.Errorf("empty input shipped %d bytes", stats.TotalShippedBytes())
	}

	// Single key: everything combines into one record per flush window on
	// one partition.
	var skew record.DataSet
	var wantSum int64
	for i := 0; i < 5000; i++ {
		skew = append(skew, record.Record{record.String("only"), record.Int(1), record.Int(1)})
		wantSum += 2
	}
	e = New(4)
	e.AddSource("words", skew)
	out, stats, err = e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	want := record.DataSet{{record.String("only"), record.Int(wantSum), record.Null}}
	if !out.Equal(want) {
		t.Fatalf("skewed combine produced %v, want %v", out, want)
	}
	if stats.TotalCombinerCalls() == 0 {
		t.Error("skewed combine reports zero combiner calls")
	}
}
