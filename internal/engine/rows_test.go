package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
)

// This file is the harness's row table: the flows, their data, and the
// suites that run them. Each differential test below is one suite; see
// harness_test.go for what every run is checked against.

var (
	both      = []string{"none", "tight"}
	tightOnly = []string{"tight"}
)

var suites = map[string]suite{
	// Fused Map chains over random multi-emitting, filtering, rewriting UDFs.
	"TestDifferentialMapChains": {configs{dops: differentialDOPs}, func(t *testing.T) []row {
		return trials(3, func(i int) row { return mapChainRow(t, 31000+int64(i), 4, 160) })
	}},
	// Random Map+Reduce pipelines under a budget that spills every shuffle.
	"TestDifferentialCombinedReduce": {configs{dops: differentialDOPs, budgets: both, plans: "first", some: sawSpill}, func(t *testing.T) []row {
		return trials(3, func(i int) row { return reduceRow(t, 9000+int64(i), 150) })
	}},
	// In-memory Match and the budget-forced external merge join.
	"TestDifferentialJoins": {configs{dops: differentialDOPs, budgets: both, some: sawSpill}, func(t *testing.T) []row {
		r := flowRow(t, "join", keyJoinFlow(140, 140, 140, 18), keyJoinData(140, 140, 140, 140, 0))
		r.tight = perPartition(96)
		return []row{r}
	}},
	// Every combination of stage variants on hand-built plans.
	"TestDifferentialStageMatrix": {configs{dops: differentialDOPs, budgets: both, transports: []string{"channel", "tcp"},
		some: sawSpill | sawCombine | sawBroadcast}, matrixRows},
	// Adversarial keys through every local strategy of Reduce, Match and
	// CoGroup: the strategies of one operator must agree.
	"TestDifferentialAdversarialKeys": {configs{dops: differentialDOPs, budgets: both, some: sawSpill}, func(t *testing.T) []row {
		return adversarialRows(t, adversarialSides(), optimizer.ShipPartition)
	}},
	"TestLocalStrategiesAdversarialKeys": {configs{dops: differentialDOPs}, func(t *testing.T) []row {
		return append(adversarialRows(t, adversarialSides(), optimizer.ShipForward), adversarialRows(t, adversarialSides(), optimizer.ShipPartition)...)
	}},
	// A combinable Reduce, combined and plain.
	"TestCombinedReduceEquivalence": {configs{dops: differentialDOPs, dopSub: true}, func(t *testing.T) []row {
		r := flowRow(t, "combined-reduce", combineFlow, combineTestData(20000))
		r.variants, r.combine = []variant{combinedVariant, {"plain", func(t *testing.T, p *optimizer.PhysPlan) { findOp(p, "sumN").Combinable = false }}}, true
		return []row{r}
	}},
	// Combining and spilling compose: receivers spill the combined stream.
	"TestSpillCombinedReduce": {configs{dops: []int{2, 8}, budgets: both, dopSub: true}, func(t *testing.T) []row {
		r := flowRow(t, "combined-reduce", combineFlow, combineTestData(20000))
		r.variants, r.tight, r.spill = []variant{combinedVariant}, fixed(512), true
		return []row{r}
	}},
	"TestSpillReduceEquivalence": {configs{dops: differentialDOPs, budgets: both, dopSub: true}, func(t *testing.T) []row {
		r := spillRow(flowRow(t, "wordcount", wordcountFlow("sumPerWord", 20000, 500, 22, false), wordcountData(20000, 500)), 32<<10)
		r.check = wantLen(500)
		return []row{r}
	}},
	// An empty source under a budget spills nothing; a budget below one
	// batch.
	"TestSpillEdgeCases": {configs{dops: []int{4}, budgets: both}, func(t *testing.T) []row {
		empty := flowRow(t, "empty", wordcountFlow("sumPerWord", 1000, 50, 22, false), map[string]record.DataSet{"words": nil})
		empty.tight = fixed(1)
		empty.check = func(t *testing.T, label string, out record.DataSet, stats *RunStats) {
			if len(out) != 0 || stats.TotalSpillRuns() != 0 {
				t.Fatalf("%s: empty input: %d records, %d spill runs", label, len(out), stats.TotalSpillRuns())
			}
		}
		return []row{empty, spillRow(flowRow(t, "wordcount", wordcountFlow("sumPerWord", 1000, 50, 22, false), wordcountData(1000, 50)), 1)}
	}},
	// The budget share of MemoryBudget=1 truncates to zero; floored at one
	// batch's worth, every run covers at least two arriving batches, so the
	// run count is bounded by half the batch arrivals (each of 8 senders
	// flushes one tail batch per target: 64) instead of equal to them.
	"TestSpillTinyBudgetRunCountBounded": {configs{dops: []int{8}, budgets: both}, func(t *testing.T) []row {
		r := spillRow(flowRow(t, "wordcount", wordcountFlow("sumPerWord", 20000, 50, 22, false), wordcountData(20000, 50)), 1)
		r.check = func(t *testing.T, label string, out record.DataSet, stats *RunStats) {
			if runs := stats.TotalSpillRuns(); runs > 8*8/2 {
				t.Fatalf("%s: %d spill runs, want <= 32 (budget floor not applied)", label, runs)
			}
		}
		return []row{r}
	}},
	// Empty input, and one key that combines into one record per flush
	// window on one partition.
	"TestCombineShuffleEdgeCases": {configs{dops: []int{4}}, func(t *testing.T) []row {
		var skew record.DataSet
		for i := 0; i < 5000; i++ {
			skew = append(skew, record.Record{record.String("only"), record.Int(1), record.Int(1)})
		}
		empty := flowRow(t, "empty", combineFlow, map[string]record.DataSet{"words": nil})
		skewed := flowRow(t, "skew", combineFlow, map[string]record.DataSet{"words": skew})
		empty.variants, skewed.variants = []variant{combinedVariant}, []variant{combinedVariant}
		skewed.check = wantOut(record.DataSet{{record.String("only"), record.Int(2 * 5000), record.Null}})
		return []row{empty, skewed}
	}},
	// The paper's example: <2,-3> and <-2,-3> become <5,3>.
	"TestPaperPipelineExecution": {configs{dops: []int{4}}, func(t *testing.T) []row {
		r := flowRow(t, "paper", paperFlow, map[string]record.DataSet{"I": {{record.Int(2), record.Int(-3)}, {record.Int(-2), record.Int(-3)}}})
		r.check = wantOut(record.DataSet{{record.Int(5), record.Int(3)}})
		return []row{r}
	}},
	"TestDOPOne": {configs{dops: []int{1}}, func(t *testing.T) []row {
		r := flowRow(t, "paper", paperFlow, map[string]record.DataSet{"I": {{record.Int(1), record.Int(1)}}})
		r.check = wantOut(record.DataSet{{record.Int(2), record.Int(1)}})
		return []row{r}
	}},
	// A Cross: every pair, 5 × 7.
	"TestCrossExecution": {configs{dops: []int{4}}, func(t *testing.T) []row {
		var l, r record.DataSet
		for i := 0; i < 5; i++ {
			l = append(l, record.Record{record.Int(int64(i))})
		}
		for i := 0; i < 7; i++ {
			r = append(r, record.Record{record.Null, record.Int(int64(i))})
		}
		x := flowRow(t, "cross", oneOp(`
cross pair(l, r) {
	o := concat(l, r)
	emit o
}`, dataflow.OpDef{Kind: "cross", UDF: "pair"}, "L a", "R b"), map[string]record.DataSet{"L": l, "R": r})
		x.check = wantLen(35)
		return []row{x}
	}},
	// The paper flow's counters: f1 and f2 see 3 records, f3 2 (f2 drops
	// one); forward edges only, so nothing ships.
	"TestRunStatsAccounting": {configs{dops: []int{2}}, func(t *testing.T) []row {
		r := flowRow(t, "paper", paperFlow, map[string]record.DataSet{"I": {{record.Int(1), record.Int(2)}, {record.Int(-1), record.Int(2)}, {record.Int(3), record.Int(-4)}}})
		r.check = func(t *testing.T, label string, out record.DataSet, stats *RunStats) {
			requireLen(t, label, out, 2)
			if calls, shipped := stats.TotalUDFCalls(), stats.TotalShippedBytes(); calls != 8 || shipped != 0 {
				t.Fatalf("%s: %d UDF calls, %d bytes shipped, want 8 and 0\n%s", label, calls, shipped, stats)
			}
		}
		return []row{r}
	}},
	// A shuffle ships every record's wire size once.
	"TestShuffleBytesAccounted": {configs{dops: []int{4}}, func(t *testing.T) []row {
		var data record.DataSet
		for i := 0; i < 100; i++ {
			data = append(data, record.Record{record.Int(int64(i % 10))})
		}
		r := flowRow(t, "first", oneOp(`
reduce first(g) {
	r := g.at(0)
	emit r
}`, dataflow.OpDef{Kind: "reduce", UDF: "first", Keys: [][]string{{"k"}}, KeyCardinality: 10}, "S k"), map[string]record.DataSet{"S": data})
		r.check = func(t *testing.T, label string, out record.DataSet, stats *RunStats) {
			if got, want := stats.TotalShippedBytes(), data.TotalSize(); got != want {
				t.Fatalf("%s: shuffle bytes = %d, want %d", label, got, want)
			}
		}
		return []row{r}
	}},
	// A sum per key: key k sums k, k+5, …, k+95.
	"TestReduceExecution": {configs{dops: []int{4}}, func(t *testing.T) []row {
		data := make(record.DataSet, 100)
		for i := range data {
			data[i] = record.Record{record.Int(int64(i % 5)), record.Int(int64(i))}
		}
		r := flowRow(t, "sum", wordcountFlow("sum", 100, 5, 18, false), map[string]record.DataSet{"words": data})
		r.check = func(t *testing.T, label string, out record.DataSet, stats *RunStats) {
			requireLen(t, label, out, 5)
			for _, r := range out {
				if k, got := r.Field(0).AsInt(), r.Field(1).AsInt(); got != 20*k+950 {
					t.Errorf("%s: sum(k=%d) = %d, want %d", label, k, got, 20*k+950)
				}
			}
		}
		return []row{r}
	}},
	// One record per key group, carrying the left group's sum and the right
	// group's size: keys 0..4 appear 4 times each in L, keys 0..2 3 times
	// each in R.
	"TestCoGroupExecution": {configs{dops: []int{4}}, func(t *testing.T) []row {
		r := coGroupRow(t, 20, 9, 5, 3, 0)
		r.check = func(t *testing.T, label string, out record.DataSet, stats *RunStats) {
			requireLen(t, label, out, 5)
			for _, rec := range out {
				// Key k sums k, k+5, k+10, k+15.
				if k, sum, n := rec.Field(0).AsInt(), rec.Field(1).AsInt(), rec.Field(3).AsInt(); sum != 4*k+30 || n != map[bool]int64{true: 3}[k < 3] {
					t.Errorf("%s: key %d sums %d and matches %d", label, k, sum, n)
				}
			}
		}
		return []row{r}
	}},
	// 2^53 and 2^53+1 are one float64 but two keys: a Reduce yields two
	// groups of two under either grouping strategy, and a Match does not
	// join the one to the other.
	"TestExactNumericKeys": {configs{dops: []int{1, 3}}, func(t *testing.T) []row {
		a, b := record.Int(1<<53), record.Int(1<<53+1)
		rows := adversarialRows(t, strategySides([]record.Value{a, b, a, b}, []record.Value{b}), optimizer.ShipPartition)[:2]
		rows[0].check = groupsOf(4, 2)
		rows[1].check = func(t *testing.T, label string, out record.DataSet, stats *RunStats) {
			requireLen(t, label, out, 2)
			for _, r := range out {
				if !r.Field(0).Equal(b) {
					t.Errorf("%s: joined %v to %v", label, r.Field(0), b)
				}
			}
		}
		return rows
	}},
	// A declared combiner that writes the grouping key is not annotated
	// Combinable — partial records would hash to the wrong partition — and
	// the flow runs through the plain path.
	"TestCombinerSafetyRejection": {configs{dops: []int{4}}, func(t *testing.T) []row {
		fd := combineFlow
		fd.def.Sources = sources(dataflow.SourceDef{Name: "words", Attrs: attrs("word n keep"), Records: 1000, AvgWidthByte: 24})
		fd.def.Ops = ops(dataflow.OpDef{Kind: "reduce", UDF: "sumN", Combiner: "badKeyWriter", Inputs: attrs("words"), Keys: [][]string{{"word"}}, KeyCardinality: 20})
		r := flowRow(t, "key-writing-combiner", fd, combineTestData(1000))
		r.variants = []variant{{"plain", func(t *testing.T, p *optimizer.PhysPlan) {
			if findOp(p, "sumN").Combinable {
				t.Fatalf("optimizer annotated a key-writing combiner as Combinable:\n%s", p.Indent())
			}
		}}}
		return []row{r}
	}},
	// The reference never spills: a budget does not reach it (every row's
	// reference run is under its tight budget).
	"TestSpillLegacyShuffleBypass": {configs{dops: []int{4}, budgets: tightOnly}, func(t *testing.T) []row {
		return []row{spillRow(flowRow(t, "wordcount", wordcountFlow("sumPerWord", 2000, 40, 22, false), wordcountData(2000, 40)), 64)}
	}},
	"TestSpillCoGroupEquivalence": {configs{dops: differentialDOPs, budgets: both, dopSub: true}, func(t *testing.T) []row {
		// 300 left keys and 100 right-only ones.
		r := spillRow(coGroupRow(t, 6000, 4000, 300, 250, 150), 16<<10)
		r.check = wantLen(400)
		return []row{r}
	}},
	// Both join strategies over repartitioned sides: the hash join falls
	// back to the external merge join when a side spills.
	"TestSpillJoinEquivalence": {configs{dops: differentialDOPs, budgets: both, rowSub: true, dopSub: true}, func(t *testing.T) []row {
		var rows []row
		for _, local := range []optimizer.Local{optimizer.LocalMergeJoin, optimizer.LocalHashJoin} {
			r := flowRow(t, local.String(), keyJoinFlow(12000, 6000, 500, 20), keyJoinData(12000, 300, 6000, 400, 200))
			r.variants = pinJoin(optimizer.ShipPartition, optimizer.ShipPartition, local, 0)
			// 100 overlapping keys, 40 left and 15 right records each.
			r.check = wantLen(100 * 40 * 15)
			rows = append(rows, spillRow(r, 32<<10))
		}
		return rows
	}},
	// The canonical join order holds across local strategies.
	"TestJoinStrategiesByteIdentical": {configs{dops: []int{4}}, func(t *testing.T) []row {
		r := flowRow(t, "join", keyJoinFlow(2000, 1500, 80, 20), keyJoinData(2000, 50, 1500, 60, 20))
		r.variants = []variant{localVariant("merge-join", optimizer.LocalMergeJoin, 0), localVariant("hash-build0", optimizer.LocalHashJoin, 0), localVariant("hash-build1", optimizer.LocalHashJoin, 1)}
		return []row{r}
	}},
	// Every Match strategy and shipping computes the join's bag, the
	// optimizer's choice among them.
	"TestJoinExecutionStrategies": {configs{dops: []int{4}, rowSub: true}, func(t *testing.T) []row {
		var lData, rData record.DataSet
		for i := 0; i < 50; i++ {
			lData = append(lData, record.Record{record.Int(int64(i % 10)), record.Int(int64(i))})
			rData = append(rData, record.Record{record.Null, record.Null, record.Int(int64(i % 10)), record.Int(int64(100 + i))})
		}
		mk := func(name string, pin []variant) row {
			r := flowRow(t, name, keyJoinFlow(50, 50, 10, 18), map[string]record.DataSet{"L": lData, "R": rData})
			// 10 keys, 5 records per key and side.
			r.variants, r.bag, r.check = pin, true, wantLen(10*5*5)
			return r
		}
		return []row{
			mk("chosen", nil),
			mk("partition+hash", pinJoin(optimizer.ShipPartition, optimizer.ShipPartition, optimizer.LocalHashJoin, 0)),
			mk("partition+hash-build-right", pinJoin(optimizer.ShipPartition, optimizer.ShipPartition, optimizer.LocalHashJoin, 1)),
			mk("partition+merge", pinJoin(optimizer.ShipPartition, optimizer.ShipPartition, optimizer.LocalMergeJoin, 0)),
			mk("broadcast-left+hash", pinJoin(optimizer.ShipBroadcast, optimizer.ShipForward, optimizer.LocalHashJoin, 0)),
			mk("broadcast-right+hash", pinJoin(optimizer.ShipForward, optimizer.ShipBroadcast, optimizer.LocalHashJoin, 1)),
		}
	}},
	// Sort and hash grouping form the same 6 groups of 10.
	"TestReduceHashVsSortGrouping": {configs{dops: []int{3}}, func(t *testing.T) []row {
		var data record.DataSet
		for i := 0; i < 60; i++ {
			data = append(data, record.Record{record.Int(int64(i % 6)), record.Int(int64(i))})
		}
		r := flowRow(t, "count", oneOp(`
reduce count(g) {
	first := g.at(0)
	k := first[0]
	out := new()
	out[0] = k
	out[2] = count(g, 0)
	emit out
}`, dataflow.OpDef{Kind: "reduce", UDF: "count", Keys: [][]string{{"k"}}, KeyCardinality: 6}, "S k v"), map[string]record.DataSet{"S": data})
		r.variants = []variant{localVariant("sort-group", optimizer.LocalSortGroup, 0), localVariant("hash-group", optimizer.LocalHashGroup, 0)}
		r.check = groupsOf(6, 10)
		return []row{r}
	}},
	// A fused chain agrees with the same Maps run one operator at a time.
	"TestChainedExecutionMatchesUnchained": {configs{dops: []int{4}}, func(t *testing.T) []row {
		r := paperRow(t, 11, 500, 20)
		r.variants = []variant{{"chained", func(t *testing.T, p *optimizer.PhysPlan) {
			if !setChained(p, true) {
				t.Fatal("optimizer produced no Chained annotation for a Map pipeline")
			}
		}}, {"unchained", func(t *testing.T, p *optimizer.PhysPlan) { setChained(p, false) }}}
		return []row{r}
	}},
	// A flow sharded over two workers by TCP, every target remote or some
	// local, equals the channel run, shipped bytes included.
	"TestDistributedEquivalence": {configs{dops: differentialDOPs, transports: []string{"channel", "tcp", "mixed"}, rowSub: true, dopSub: true}, func(t *testing.T) []row {
		return []row{combinedReduceRow(t), budgetedJoinRow(t), broadcastJoinRow(t)}
	}},
	// Every reordering the optimizer enumerates computes the same bag.
	"TestRandomPipelinesAllPlansEquivalent": {configs{dops: []int{3}, plans: "alts", some: sawAlts}, func(t *testing.T) []row {
		return trials(60, func(i int) row { return mapChainRow(t, 1000+int64(i), 5, 120) })
	}},
	"TestRandomReducePipelinesEquivalent": {configs{dops: []int{3}, plans: "alts"}, func(t *testing.T) []row {
		return trials(40, func(i int) row { return reduceRow(t, 5000+int64(i), 90) })
	}},
	"TestRandomPipelinesTinyBudgetEquivalent": {configs{dops: []int{3}, budgets: both, plans: "alts", some: sawSpill}, func(t *testing.T) []row {
		return trials(25, func(i int) row { return reduceRow(t, 9000+int64(i), 150) })
	}},
	"TestRandomJoinPipelinesTinyBudgetEquivalent": {configs{dops: []int{3}, budgets: both, plans: "alts", some: sawSpill}, func(t *testing.T) []row {
		return trials(18, func(i int) row { return joinTrialRow(t, i) })
	}},
	"TestAllAlternativesEquivalent": {configs{dops: []int{4}, plans: "alts", some: sawAlts}, func(t *testing.T) []row {
		return []row{paperRow(t, 7, 200, 10), taintChainRow(t), mixedEmitsRow(t), countThenFilterRow(t), dynamicFilterRow(t), twoPerCallRow(t)}
	}},
	// One seeded disk fault per random pipeline.
	"TestRandomPipelinesTinyBudgetFaultEquivalent": {configs{dops: []int{3}, budgets: tightOnly, plans: "first", fault: "disk", some: sawFault}, func(t *testing.T) []row {
		return trials(15, func(i int) row { return reduceRow(t, 9000+int64(i), 150) })
	}},
	// Disk faults swept across the spill pipelines of Reduce, CoGroup and
	// Match.
	"TestChaosSpillPipelinesSingleFault": {configs{dops: []int{3}, budgets: tightOnly, fault: "disk", points: 24, rowSub: true}, func(t *testing.T) []row {
		reduce := flowRow(t, "reduce", wordcountFlow("sumPerWord", 6000, 300, 22, false), wordcountData(6000, 300))
		cogroup := coGroupRow(t, 3000, 2000, 200, 150, 100)
		match := flowRow(t, "match", keyJoinFlow(900, 900, 900, 18), keyJoinData(900, 900, 900, 900, 0))
		reduce.op, cogroup.op, match.op = "sumPerWord", "CG", "J"
		return []row{spillRow(reduce, 96*3), spillRow(cogroup, 96*3), spillRow(match, 96*3)}
	}},
	// Connection faults swept across a partitioned and a broadcast edge.
	"TestChaosTCPConnFaults": {configs{dops: []int{8}, transports: []string{"mixed"}, fault: "conn", points: 12, rowSub: true}, func(t *testing.T) []row {
		cr, bj := combinedReduceRow(t), broadcastJoinRow(t)
		cr.op, bj.op = "wcount", "J"
		return []row{cr, bj}
	}},
}

func TestDifferentialMapChains(t *testing.T)                    { runSuite(t) }
func TestDifferentialCombinedReduce(t *testing.T)               { runSuite(t) }
func TestDifferentialJoins(t *testing.T)                        { runSuite(t) }
func TestDifferentialStageMatrix(t *testing.T)                  { runSuite(t) }
func TestDifferentialAdversarialKeys(t *testing.T)              { runSuite(t) }
func TestCombinedReduceEquivalence(t *testing.T)                { runSuite(t) }
func TestSpillCombinedReduce(t *testing.T)                      { runSuite(t) }
func TestSpillReduceEquivalence(t *testing.T)                   { runSuite(t) }
func TestSpillLegacyShuffleBypass(t *testing.T)                 { runSuite(t) }
func TestSpillEdgeCases(t *testing.T)                           { runSuite(t) }
func TestCrossExecution(t *testing.T)                           { runSuite(t) }
func TestCombinerSafetyRejection(t *testing.T)                  { runSuite(t) }
func TestPaperPipelineExecution(t *testing.T)                   { runSuite(t) }
func TestDOPOne(t *testing.T)                                   { runSuite(t) }
func TestReduceExecution(t *testing.T)                          { runSuite(t) }
func TestCoGroupExecution(t *testing.T)                         { runSuite(t) }
func TestExactNumericKeys(t *testing.T)                         { runSuite(t) }
func TestRunStatsAccounting(t *testing.T)                       { runSuite(t) }
func TestShuffleBytesAccounted(t *testing.T)                    { runSuite(t) }
func TestSpillTinyBudgetRunCountBounded(t *testing.T)           { runSuite(t) }
func TestCombineShuffleEdgeCases(t *testing.T)                  { runSuite(t) }
func TestSpillCoGroupEquivalence(t *testing.T)                  { runSuite(t) }
func TestSpillJoinEquivalence(t *testing.T)                     { runSuite(t) }
func TestJoinStrategiesByteIdentical(t *testing.T)              { runSuite(t) }
func TestChainedExecutionMatchesUnchained(t *testing.T)         { runSuite(t) }
func TestJoinExecutionStrategies(t *testing.T)                  { runSuite(t) }
func TestReduceHashVsSortGrouping(t *testing.T)                 { runSuite(t) }
func TestDistributedEquivalence(t *testing.T)                   { runSuite(t) }
func TestRandomPipelinesAllPlansEquivalent(t *testing.T)        { runSuite(t) }
func TestRandomReducePipelinesEquivalent(t *testing.T)          { runSuite(t) }
func TestRandomPipelinesTinyBudgetEquivalent(t *testing.T)      { runSuite(t) }
func TestRandomJoinPipelinesTinyBudgetEquivalent(t *testing.T)  { runSuite(t) }
func TestAllAlternativesEquivalent(t *testing.T)                { runSuite(t) }
func TestRandomPipelinesTinyBudgetFaultEquivalent(t *testing.T) { runSuite(t) }
func TestChaosSpillPipelinesSingleFault(t *testing.T)           { runSuite(t) }
func TestChaosTCPConnFaults(t *testing.T)                       { runSuite(t) }

// requireLen requires a run's output to hold n records.
func requireLen(t *testing.T, label string, out record.DataSet, n int) {
	if len(out) != n {
		t.Fatalf("%s: %d records out, want %d", label, len(out), n)
	}
}

// wantLen is a check requiring n output records.
func wantLen(n int) func(*testing.T, string, record.DataSet, *RunStats) {
	return func(t *testing.T, label string, out record.DataSet, _ *RunStats) { requireLen(t, label, out, n) }
}

// groupsOf is a check requiring n output records, each counting a group of
// size in field 2.
func groupsOf(n int, size int64) func(*testing.T, string, record.DataSet, *RunStats) {
	return func(t *testing.T, label string, out record.DataSet, _ *RunStats) {
		requireLen(t, label, out, n)
		for _, r := range out {
			if r.Field(2).AsInt() != size {
				t.Errorf("%s: %v is in a group of %d, want %d", label, r, r.Field(2).AsInt(), size)
			}
		}
	}
}

// wantOut is a check requiring the output bag want.
func wantOut(want record.DataSet) func(*testing.T, string, record.DataSet, *RunStats) {
	return func(t *testing.T, label string, out record.DataSet, _ *RunStats) {
		if !out.Equal(want) {
			t.Fatalf("%s: out = %v, want %v", label, out, want)
		}
	}
}

// trials builds n rows.
func trials(n int, build func(i int) row) []row {
	rows := make([]row, n)
	for i := range rows {
		rows[i] = build(i)
	}
	return rows
}

// spillRow makes r a row whose every run under a tight budget of b bytes
// spills.
func spillRow(r row, b int) row {
	r.tight, r.spill = fixed(b), true
	return r
}

// pinJoin runs the chosen plan with the shipping and local strategy of its
// Match pinned.
func pinJoin(l, r optimizer.Shipping, local optimizer.Local, build int) []variant {
	return []variant{{"chosen", func(t *testing.T, p *optimizer.PhysPlan) {
		m := findOp(p, "J")
		m.Ship, m.Local, m.BuildSide = []optimizer.Shipping{l, r}, local, build
	}}}
}

// localVariant runs the operator under the plan's sink with a local
// strategy.
func localVariant(name string, local optimizer.Local, build int) variant {
	return variant{name, func(t *testing.T, p *optimizer.PhysPlan) {
		p.Inputs[0].Local, p.Inputs[0].BuildSide = local, build
	}}
}

// combinedVariant requires the optimizer to have annotated the shuffled
// Reduce sumN as combinable.
var combinedVariant = variant{"combined", func(t *testing.T, p *optimizer.PhysPlan) {
	if n := findOp(p, "sumN"); n == nil || !n.Combinable {
		t.Fatalf("optimizer did not annotate the shuffled Reduce as Combinable:\n%s", p.Indent())
	}
}}

// setChained sets every Chained annotation of p to on and reports whether p
// had one.
func setChained(p *optimizer.PhysPlan, on bool) bool {
	had := p.Chained
	p.Chained = p.Chained && on
	for _, in := range p.Inputs {
		had = setChained(in, on) || had
	}
	return had
}

func sources(ss ...dataflow.SourceDef) []dataflow.SourceDef { return ss }

func ops(os ...dataflow.OpDef) []dataflow.OpDef { return os }

func attrs(names string) []string { return strings.Fields(names) }

// wordcountFlow is words(word, n) → udf(word), which sums n; the UDF is its
// own combiner when combiner is set.
func wordcountFlow(udf string, records, keys, width float64, combiner bool) flowDef {
	op := dataflow.OpDef{Kind: "reduce", UDF: udf, Inputs: attrs("words"), Keys: [][]string{{"word"}}, KeyCardinality: keys}
	if combiner {
		op.Combiner = udf
	}
	return flowDef{sumScript(udf), dataflow.FlowDef{
		Sources: sources(dataflow.SourceDef{Name: "words", Attrs: attrs("word n"), Records: records, AvgWidthByte: width}),
		Ops:     ops(op), Sink: udf,
	}}
}

// sumScript is a Reduce named udf that sums field 1 into its group's first
// record.
func sumScript(udf string) string {
	return fmt.Sprintf(`
reduce %s(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}`, udf)
}

// wordcountData builds the source words: n records over `keys` distinct
// words with value i%5+1.
func wordcountData(n, keys int) map[string]record.DataSet {
	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{record.String(fmt.Sprintf("word%05d", i%keys)), record.Int(int64(i%5 + 1))}
	}
	return map[string]record.DataSet{"words": data}
}

const concatJoin = `
match jn(l, r) {
	o := concat(l, r)
	emit o
}`

// keyJoinFlow is L(a0, a1) ⋈ R(a2, a3) on a0 = a2, a concat UDF named J.
func keyJoinFlow(lRecs, rRecs, keys, width float64) flowDef {
	return flowDef{concatJoin, dataflow.FlowDef{
		Sources: sources(dataflow.SourceDef{Name: "L", Attrs: attrs("a0 a1"), Records: lRecs, AvgWidthByte: width},
			dataflow.SourceDef{Name: "R", Attrs: attrs("a2 a3"), Records: rRecs, AvgWidthByte: width}),
		Ops:  ops(dataflow.OpDef{Kind: "match", Name: "J", UDF: "jn", Inputs: attrs("L R"), Keys: [][]string{{"a0"}, {"a2"}}, KeyCardinality: keys}),
		Sink: "J",
	}}
}

// keyJoinData builds the two sides of a join whose byte-level output is
// scheduler-independent: every record is fully determined by its key, so
// the within-key arrival order (which varies with sender interleaving at
// DOP > 1) permutes identical records only. Left keys are [0, lKeys),
// right keys [rLo, rLo+rKeys) — the overlap is the matching key range.
func keyJoinData(lN, lKeys, rN, rKeys, rLo int) map[string]record.DataSet {
	l := make(record.DataSet, lN)
	for i := range l {
		k := int64(i % lKeys)
		l[i] = record.Record{record.Int(k), record.Int(k*7 + 1)}
	}
	r := make(record.DataSet, rN)
	for i := range r {
		k := int64(i%rKeys + rLo)
		r[i] = record.Record{record.Null, record.Null, record.Int(k), record.Int(k*3 + 2)}
	}
	return map[string]record.DataSet{"L": l, "R": r}
}

// combineFlow is words → keepOnly → double → sumN(word), the Reduce its own
// combiner: summing partial sums equals summing the raw values.
var combineFlow = flowDef{combineScript, dataflow.FlowDef{
	Sources: sources(dataflow.SourceDef{Name: "words", Attrs: attrs("word n keep"), Records: 20000, AvgWidthByte: 24}),
	Ops: ops(dataflow.OpDef{Kind: "map", UDF: "keepOnly", Inputs: attrs("words"), Selectivity: 0.5},
		dataflow.OpDef{Kind: "map", UDF: "double", Inputs: attrs("keepOnly")},
		dataflow.OpDef{Kind: "reduce", UDF: "sumN", Combiner: "sumN", Inputs: attrs("double"), Keys: [][]string{{"word"}}, KeyCardinality: 20}),
	Sink: "sumN",
}}

// combineTestData builds n records over 20 words, half of them kept.
func combineTestData(n int) map[string]record.DataSet {
	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{record.String(fmt.Sprintf("w%02d", i%20)), record.Int(int64(i%7 + 1)), record.Int(int64(i % 2))}
	}
	return map[string]record.DataSet{"words": data}
}

const coGroupScript = `
cogroup cg(g1, g2) {
	out := new()
	n1 := g1.size()
	if n1 != 0 {
		r := g1.at(0)
		k := r[0]
	} else {
		r2 := g2.at(0)
		k := r2[2]
	}
	out[0] = k
	out[1] = sum(g1, 1)
	n2 := g2.size()
	out[3] = n2
	emit out
}`

// coGroupRow co-groups L(lk, lv) with R(rk) into CG, whose UDF is
// order-insensitive within a group (a sum and group sizes, the key from
// either side). Left keys are [0, lKeys), right keys [rLo, rLo+rKeys).
func coGroupRow(t *testing.T, lN, rN, lKeys, rKeys, rLo int) row {
	fd := flowDef{coGroupScript, dataflow.FlowDef{
		Attrs: attrs("matches"),
		Sources: sources(dataflow.SourceDef{Name: "L", Attrs: attrs("lk lv"), Records: float64(lN), AvgWidthByte: 18},
			dataflow.SourceDef{Name: "R", Attrs: attrs("rk"), Records: float64(rN), AvgWidthByte: 9}),
		Ops:  ops(dataflow.OpDef{Kind: "cogroup", Name: "CG", UDF: "cg", Inputs: attrs("L R"), Keys: [][]string{{"lk"}, {"rk"}}, KeyCardinality: float64(lKeys)}),
		Sink: "CG",
	}}
	var l, r record.DataSet
	for i := 0; i < lN; i++ {
		l = append(l, record.Record{record.Int(int64(i % lKeys)), record.Int(int64(i))})
	}
	for i := 0; i < rN; i++ {
		r = append(r, record.Record{record.Null, record.Null, record.Int(int64(i%rKeys + rLo))})
	}
	return flowRow(t, "cogroup", fd, map[string]record.DataSet{"L": l, "R": r})
}

// paperFlow is the Section 3 example I → f1 → f2 → f3: f1 = |B|, f2 =
// filter A >= 0, f3 = A+B over fields A=0, B=1.
var paperFlow = flowDef{`
map f1(ir) {
	b := ir[1]
	out := copy(ir)
	if b < 0 {
		b := -b
		out[1] = b
	}
	emit out
}
map f2(ir) {
	a := ir[0]
	if a >= 0 {
		out := copy(ir)
		emit out
	}
}
map f3(ir) {
	a := ir[0]
	b := ir[1]
	out := copy(ir)
	out[0] = a + b
	emit out
}`, dataflow.FlowDef{
	Sources: sources(dataflow.SourceDef{Name: "I", Attrs: attrs("A B"), Records: 100, AvgWidthByte: 18}),
	Ops: ops(dataflow.OpDef{Kind: "map", UDF: "f1", Inputs: attrs("I")}, dataflow.OpDef{Kind: "map", UDF: "f2", Inputs: attrs("f1"), Selectivity: 0.5},
		dataflow.OpDef{Kind: "map", UDF: "f3", Inputs: attrs("f2")}),
	Sink: "f3",
}}

// paperRow runs the paper flow over n random records with fields in
// [-span, span].
func paperRow(t *testing.T, seed int64, n, span int) row {
	rng := rand.New(rand.NewSource(seed))
	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{record.Int(int64(rng.Intn(2*span+1) - span)), record.Int(int64(rng.Intn(2*span+1) - span))}
	}
	return flowRow(t, "paper", paperFlow, map[string]record.DataSet{"I": data})
}

// taintChainFlow is S(k, v, n) → lowV → tagSize(k): lowV keeps the
// records whose v passes a test it reaches through two assignments, and
// tagSize sets n to its key group's size. lowV splits the groups, so only
// condition taint that follows the chain keeps the Reduce from being moved
// below it.
var taintChainFlow = flowDef{`
map lowV(ir) {
	a := ir[1]
	b := a + 1
	c := b * 2
	if c < 12 {
		emit ir
	}
}` + tagSizeUDF, dataflow.FlowDef{
	Sources: sources(dataflow.SourceDef{Name: "S", Attrs: attrs("k v n"), Records: 60, AvgWidthByte: 27}),
	Ops: ops(dataflow.OpDef{Kind: "map", UDF: "lowV", Inputs: attrs("S"), Selectivity: 0.5},
		dataflow.OpDef{Kind: "reduce", UDF: "tagSize", Inputs: attrs("lowV"), Keys: [][]string{{"k"}}, KeyCardinality: 4}),
	Sink: "tagSize",
}}

// taintChainRow runs taintChainFlow over 60 records: four keys, v = i%10,
// so lowV keeps half of every group.
func taintChainRow(t *testing.T) row {
	r := flowRow(t, "taint-chain", taintChainFlow, kvnData())
	r.bag, r.check = true, wantLen(30)
	return r
}

// tagSizeUDF sets field 2 of every record to its key group's size.
const tagSizeUDF = `
reduce tagSize(g) {
	n := g.size()
	i := 0
	while i < n {
		r := g.at(i)
		out := copy(r)
		out[2] = n
		emit out
		i := i + 1
	}
}`

// kvnData is 60 records (k, v, n): four keys, v = i%10, n = 0. A test on v
// splits every key group, and unevenly.
func kvnData() map[string]record.DataSet {
	data := make(record.DataSet, 60)
	for i := range data {
		data[i] = record.Record{record.Int(int64(i % 4)), record.Int(int64(i % 10)), record.Int(0)}
	}
	return map[string]record.DataSet{"S": data}
}

// countThenFilterFlow is S(k, v, n) → tagSize(k) → highV: highV tests v,
// outside tagSize's key, so only Theorem 2's key-group condition keeps it
// from being moved below tagSize, where the groups it splits would be
// counted split.
var countThenFilterFlow = flowDef{tagSizeUDF + `
map highV(ir) {
	if ir[1] >= 5 {
		emit ir
	}
}`, dataflow.FlowDef{
	Sources: sources(dataflow.SourceDef{Name: "S", Attrs: attrs("k v n"), Records: 60, AvgWidthByte: 27}),
	Ops: ops(dataflow.OpDef{Kind: "reduce", UDF: "tagSize", Inputs: attrs("S"), Keys: [][]string{{"k"}}, KeyCardinality: 4},
		dataflow.OpDef{Kind: "map", UDF: "highV", Inputs: attrs("tagSize"), Selectivity: 0.5}),
	Sink: "highV",
}}

// countThenFilterRow runs countThenFilterFlow over kvnData: 30 records
// survive, each counted in its whole group of 15.
func countThenFilterRow(t *testing.T) row {
	r := flowRow(t, "count-then-filter", countThenFilterFlow, kvnData())
	r.bag, r.check = true, groupsOf(30, 15)
	return r
}

// dynamicFilterFlow is S(k, v, w) → lowAt → keepBig(k): lowAt tests the
// field that k indexes, v or w, so its condition taint is only k but its
// decision splits key groups; keepBig passes on the groups of ten or more
// records. Only KGP refusing a dynamic read keeps keepBig from being moved
// below lowAt.
var dynamicFilterFlow = flowDef{`
map lowAt(ir) {
	f := ir[0]
	x := ir[f]
	if x < 5 {
		emit ir
	}
}
reduce keepBig(g) {
	n := g.size()
	if n >= 10 {
		i := 0
		while i < n {
			r := g.at(i)
			emit r
			i := i + 1
		}
	}
}`, dataflow.FlowDef{
	Sources: sources(dataflow.SourceDef{Name: "S", Attrs: attrs("k v w"), Records: 40, AvgWidthByte: 27}),
	Ops: ops(dataflow.OpDef{Kind: "map", UDF: "lowAt", Inputs: attrs("S"), Selectivity: 0.5},
		dataflow.OpDef{Kind: "reduce", UDF: "keepBig", Inputs: attrs("lowAt"), Keys: [][]string{{"k"}}, KeyCardinality: 2}),
	Sink: "keepBig",
}}

// dynamicFilterRow runs dynamicFilterFlow over 40 records in two groups of
// 20: k = 1 tests v = i%10 and keeps 12, k = 2 tests w = 3i%10 and keeps 8,
// so only the first group reaches ten.
func dynamicFilterRow(t *testing.T) row {
	data := make(record.DataSet, 40)
	for i := range data {
		data[i] = record.Record{record.Int(int64(1 + i%2)), record.Int(int64(i % 10)), record.Int(int64(3 * i % 10))}
	}
	r := flowRow(t, "dynamic-filter", dynamicFilterFlow, map[string]record.DataSet{"S": data})
	r.bag, r.check = true, wantLen(12)
	return r
}

// twoPerCallFlow is S(k, v, n) → twice → tagSize(k): twice emits every
// record two times, so it doubles the groups tagSize counts. It has no
// condition, so only KGP refusing emitters of more than one record keeps
// tagSize from being moved below it.
var twoPerCallFlow = flowDef{`
map twice(ir) {
	emit ir
	emit ir
}` + tagSizeUDF, dataflow.FlowDef{
	Sources: sources(dataflow.SourceDef{Name: "S", Attrs: attrs("k v n"), Records: 60, AvgWidthByte: 27}),
	Ops: ops(dataflow.OpDef{Kind: "map", UDF: "twice", Inputs: attrs("S")},
		dataflow.OpDef{Kind: "reduce", UDF: "tagSize", Inputs: attrs("twice"), Keys: [][]string{{"k"}}, KeyCardinality: 4}),
	Sink: "tagSize",
}}

// twoPerCallRow runs twoPerCallFlow over kvnData: 120 records, each
// counted in a group of 30.
func twoPerCallRow(t *testing.T) row {
	r := flowRow(t, "two-per-call", twoPerCallFlow, kvnData())
	r.bag, r.check = true, groupsOf(120, 30)
	return r
}

// mixedEmitsFlow is S(a, b) → newOrKeep → tagC: newOrKeep emits a record
// the default constructor built when a > 0 and its input otherwise, so it
// copies its input on one emit only and projects c away on the other;
// tagC sets c. Only a write set that counts that projection keeps tagC
// from being moved below newOrKeep.
var mixedEmitsFlow = flowDef{`
map newOrKeep(ir) {
	a := ir[0]
	if a > 0 {
		out := new()
		out[0] = a
		emit out
	} else {
		emit ir
	}
}
map tagC(ir) {
	out := copy(ir)
	out[2] = 1
	emit out
}`, dataflow.FlowDef{
	Attrs:   attrs("c"),
	Sources: sources(dataflow.SourceDef{Name: "S", Attrs: attrs("a b"), Records: 40, AvgWidthByte: 18}),
	Ops:     ops(dataflow.OpDef{Kind: "map", UDF: "newOrKeep", Inputs: attrs("S")}, dataflow.OpDef{Kind: "map", UDF: "tagC", Inputs: attrs("newOrKeep")}),
	Sink:    "tagC",
}}

// mixedEmitsRow runs mixedEmitsFlow over 40 records with a in [-3, 3].
func mixedEmitsRow(t *testing.T) row {
	data := make(record.DataSet, 40)
	for i := range data {
		data[i] = record.Record{record.Int(int64(i%7 - 3)), record.Int(int64(i))}
	}
	r := flowRow(t, "mixed-emits", mixedEmitsFlow, map[string]record.DataSet{"S": data})
	r.check = wantLen(40)
	return r
}

// combinedReduceRow is a wordcount whose Reduce combines before shipping:
// every run makes combiner calls and ships fewer bytes than the reference.
func combinedReduceRow(t *testing.T) row {
	r := flowRow(t, "combined-reduce", wordcountFlow("wcount", 6000, 120, 16, true), wordcountData(6000, 120))
	r.combine = true
	r.check = func(t *testing.T, label string, _ record.DataSet, stats *RunStats) {
		if stats.TotalCombinerCalls() == 0 {
			t.Fatalf("%s: no combiner calls: the combining path did not run", label)
		}
	}
	return r
}

// budgetedJoinRow is a repartition merge join whose shuffled sides both
// spill under 32 KB at every DOP.
func budgetedJoinRow(t *testing.T) row {
	r := flowRow(t, "budgeted-join", keyJoinFlow(6000, 3000, 300, 20), keyJoinData(6000, 300, 3000, 300, 0))
	r.variants = pinJoin(optimizer.ShipPartition, optimizer.ShipPartition, optimizer.LocalMergeJoin, 0)
	r.budgets = tightOnly
	return spillRow(r, 32<<10)
}

// broadcastJoinRow replicates the left side to every partition through the
// shuffle's senders and forwards the right side.
func broadcastJoinRow(t *testing.T) row {
	const lN, rN = 3000, 6000
	r := flowRow(t, "broadcast-join", keyJoinFlow(lN, rN, 300, 20), keyJoinData(lN, 300, rN, 300, 0))
	r.variants = pinJoin(optimizer.ShipBroadcast, optimizer.ShipForward, optimizer.LocalHashJoin, 0)
	size := r.sources["L"].TotalSize()
	r.check = func(t *testing.T, label string, out record.DataSet, stats *RunStats) {
		// The un-replicated count in, the left side's wire size once per
		// target partition out.
		for _, st := range stats.PerOp {
			if st.Name == "J" && (st.InRecords != lN+rN || st.ShippedBytes < size || st.ShippedBytes%size != 0) {
				t.Fatalf("%s: J took in %d records and shipped %d bytes, want %d records and a multiple of %d bytes", label, st.InRecords, st.ShippedBytes, lN+rN, size)
			}
		}
	}
	return r
}

// genUDF builds a random Map UDF over `width` fields. Shapes: filters,
// field rewrites, field moves, and multi-emitters.
func genUDF(rng *rand.Rand, name string, width int) string {
	f1 := rng.Intn(width)
	f2 := rng.Intn(width)
	c := rng.Intn(7) - 3
	switch rng.Intn(5) {
	case 0: // filter on f1
		return fmt.Sprintf(`
map %s(ir) {
	a := ir[%d]
	if a >= %d {
		emit ir
	}
}`, name, f1, c)
	case 1: // rewrite f1 from f1 and f2
		return fmt.Sprintf(`
map %s(ir) {
	a := ir[%d]
	b := ir[%d]
	out := copy(ir)
	out[%d] = a + b
	emit out
}`, name, f1, f2, f1)
	case 2: // conditional rewrite (f1's sign decides)
		return fmt.Sprintf(`
map %s(ir) {
	a := ir[%d]
	out := copy(ir)
	if a < 0 {
		out[%d] = -a
	}
	emit out
}`, name, f1, f1)
	case 3: // move f2 into f1 (reads f2, writes f1)
		return fmt.Sprintf(`
map %s(ir) {
	b := ir[%d]
	out := copy(ir)
	out[%d] = b * 2
	emit out
}`, name, f2, f1)
	default: // duplicate rows with a marker in f1
		return fmt.Sprintf(`
map %s(ir) {
	emit ir
	out := copy(ir)
	out[%d] = %d
	emit out
}`, name, f1, c)
	}
}

// genMaps appends n random Map UDFs named prefix0… to src and chains them
// onto in, returning the script, the ops and the last op's name.
func genMaps(rng *rand.Rand, src, prefix string, n int, in string) (string, []dataflow.OpDef, string) {
	var ops []dataflow.OpDef
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		src += genUDF(rng, name, 4)
		ops = append(ops, dataflow.OpDef{Kind: "map", UDF: name, Inputs: []string{in}})
		in = name
	}
	return src, ops, in
}

// aggUDF is the Reduce random pipelines end in: it keeps the grouping key
// and sums aggField into the attribute at index 4.
func aggUDF(keyField, aggField int) string {
	return fmt.Sprintf(`
reduce agg(g) {
	first := g.at(0)
	out := new()
	out[%d] = first[%d]
	out[4] = sum(g, %d)
	emit out
}`, keyField, keyField, aggField)
}

// randomInts builds n records of four ints drawn from [-span, span].
func randomInts(rng *rand.Rand, n, span int) record.DataSet {
	data := make(record.DataSet, n)
	for i := range data {
		r := make(record.Record, 4)
		for j := range r {
			r[j] = record.Int(int64(rng.Intn(2*span+1) - span))
		}
		data[i] = r
	}
	return data
}

var randomSource = dataflow.SourceDef{Name: "S", Attrs: attrs("a0 a1 a2 a3"), AvgWidthByte: 36}

// mapChainRow is a chain of nOps random Maps over nRows random records.
func mapChainRow(t *testing.T, seed int64, nOps, nRows int) row {
	rng := rand.New(rand.NewSource(seed))
	src, maps, last := genMaps(rng, "", "u", nOps, "S")
	s := randomSource
	s.Records = float64(nRows)
	r := flowRow(t, fmt.Sprint("seed", seed), flowDef{src, dataflow.FlowDef{Sources: sources(s), Ops: maps, Sink: last}},
		map[string]record.DataSet{"S": randomInts(rng, nRows, 6)})
	r.seed = seed
	return r
}

// reduceRow is three random Maps feeding a sum-aggregate Reduce agg over
// nRows random records; under a tight budget of 96 bytes per partition
// every shuffled batch spills.
func reduceRow(t *testing.T, seed int64, nRows int) row {
	rng := rand.New(rand.NewSource(seed))
	src, maps, last := genMaps(rng, "", "m", 3, "S")
	keyField, aggField := rng.Intn(4), rng.Intn(4)
	src += aggUDF(keyField, aggField)
	s := randomSource
	s.Records = float64(nRows)
	maps = append(maps, dataflow.OpDef{Kind: "reduce", UDF: "agg", Inputs: []string{last}, Keys: [][]string{{fmt.Sprint("a", keyField)}}, KeyCardinality: 13})
	r := flowRow(t, fmt.Sprint("seed", seed), flowDef{src, dataflow.FlowDef{Attrs: attrs("a4"), Sources: sources(s), Ops: maps, Sink: "agg"}},
		map[string]record.DataSet{"S": randomInts(rng, nRows, 4)})
	r.seed, r.op, r.tight = seed, "agg", perPartition(96)
	return r
}

// joinTrialRow joins two sources by Match or (every third trial) Cross,
// followed by random Maps and, for every other Match, a Reduce. Per-side
// unique keys with every non-key field a function of the key keep the
// output order scheduler-independent; a Cross behind a broadcast edge
// compares as a bag.
func joinTrialRow(t *testing.T, trial int) row {
	const keyDomain = 40
	seed := int64(12000 + trial)
	rng := rand.New(rand.NewSource(seed))
	useCross := trial%3 == 2
	withReduce := !useCross && trial%2 == 0
	src, maps, last := genMaps(rng, concatJoin, "m", 2, "J")
	keyField, aggField := rng.Intn(4), rng.Intn(4)
	nL, nR := 12+rng.Intn(keyDomain-12), 12+rng.Intn(keyDomain-12)
	join := dataflow.OpDef{Kind: "match", Name: "J", UDF: "jn", Inputs: attrs("L R"), Keys: [][]string{{"a0"}, {"a2"}}, KeyCardinality: keyDomain}
	if useCross {
		nL, nR = 6+rng.Intn(6), 6+rng.Intn(6)
		join.Kind, join.Keys, join.KeyCardinality = "cross", nil, 0
	}
	if withReduce {
		src += aggUDF(keyField, aggField)
		maps = append(maps, dataflow.OpDef{Kind: "reduce", UDF: "agg", Inputs: []string{last}, Keys: [][]string{{fmt.Sprint("a", keyField)}}, KeyCardinality: 13})
		last = "agg"
	}
	lPerm, rPerm := rng.Perm(keyDomain), rng.Perm(keyDomain)
	l, r := make(record.DataSet, nL), make(record.DataSet, nR)
	for i := range l {
		k := int64(lPerm[i])
		l[i] = record.Record{record.Int(k), record.Int(k*3 + 1)}
	}
	for i := range r {
		k := int64(rPerm[i])
		r[i] = record.Record{record.Null, record.Null, record.Int(k), record.Int(k*5 + 2)}
	}
	fd := flowDef{src, dataflow.FlowDef{Attrs: attrs("a4"),
		Sources: sources(dataflow.SourceDef{Name: "L", Attrs: attrs("a0 a1"), Records: float64(nL), AvgWidthByte: 18},
			dataflow.SourceDef{Name: "R", Attrs: attrs("a2 a3"), Records: float64(nR), AvgWidthByte: 18}),
		Ops: append(ops(join), maps...), Sink: last}}
	jr := flowRow(t, fmt.Sprint("seed", seed), fd, map[string]record.DataSet{"L": l, "R": r})
	jr.seed, jr.op, jr.tight = seed, "J", perPartition(96)
	return jr
}

const combineScript = `
map keepOnly(ir) {
	k := ir[2]
	if k != 0 {
		emit ir
	}
}
map double(ir) {
	n := ir[1]
	out := copy(ir)
	out[1] = n + n
	emit out
}
reduce sumN(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	out[2] = null
	emit out
}
reduce badKeyWriter(g) {
	first := g.at(0)
	out := copy(first)
	out[0] = "rewritten"
	emit out
}`

var combineProgram = frontend.MustCompile(combineScript)

// adversarialRows run sources (strategySides) through every local strategy
// of Reduce, Match and CoGroup, every input shipped by ship. Payloads differ
// within a key, so shuffled outputs compare as bags.
func adversarialRows(t *testing.T, sources map[string]record.DataSet, ship optimizer.Shipping) []row {
	mk := func(kind dataflow.OpKind, variants ...variant) row {
		return row{name: fmt.Sprintf("%v/%v", kind, ship), plan: func() *optimizer.PhysPlan { return strategyPlan(t, kind, 0, 0, ship) },
			sources: sources, variants: variants, tight: fixed(1), bag: true}
	}
	return []row{
		mk(dataflow.KindReduce, localVariant("sort-group", optimizer.LocalSortGroup, 0), localVariant("hash-group", optimizer.LocalHashGroup, 0)),
		mk(dataflow.KindMatch, localVariant("merge-join", optimizer.LocalMergeJoin, 0),
			localVariant("hash-build0", optimizer.LocalHashJoin, 0), localVariant("hash-build1", optimizer.LocalHashJoin, 1)),
		mk(dataflow.KindCoGroup, localVariant("sort-cogroup", optimizer.LocalSortCoGrp, 0)),
	}
}

// The stage matrix: hand-built plans enumerate every combination of
// pipeline stage variants — operator × per-edge shipping × fused chain
// length × combiner — including shippings no optimizer would choose: the
// pipeline promises the reference's answer for any plan, sensible or not.
// Every record is a function of its key (the chain Maps preserve that), so
// the within-group arrival order a shuffle scrambles permutes identical
// records only.

// matrixMaps generates the chain Maps for one input side: key in field k,
// value in field k+1. Each keeps "record = f(key)": a filter on the key, a
// rewrite of the value from the key and the value, and a multi-emitter of
// identical copies.
func matrixMaps(side string, k int) string {
	return fmt.Sprintf(`
map keep%[1]s(ir) {
	k := ir[%[2]d]
	m := k %% 3
	if m != 0 {
		emit ir
	}
}
map bump%[1]s(ir) {
	k := ir[%[2]d]
	v := ir[%[3]d]
	out := copy(ir)
	out[%[3]d] = v + k
	emit out
}
map twice%[1]s(ir) {
	emit ir
	out := copy(ir)
	emit out
}`, side, k, k+1)
}

var matrixProgram = frontend.MustCompile(matrixMaps("L", 0) + matrixMaps("R", 2) + concatJoin + coGroupScript + sumScript("sum"))

// matrixShape is one operator under test: its kind, local strategy and UDF.
type matrixShape struct {
	name   string
	kind   dataflow.OpKind
	local  optimizer.Local
	udf    string
	binary bool
	build  int // a hash join's BuildSide
}

var matrixShapes = []matrixShape{
	{name: "sink", kind: dataflow.KindSink, local: optimizer.LocalPipe},
	{name: "reduce-sort", kind: dataflow.KindReduce, local: optimizer.LocalSortGroup, udf: "sum"},
	{name: "reduce-hash", kind: dataflow.KindReduce, local: optimizer.LocalHashGroup, udf: "sum"},
	{name: "cogroup", kind: dataflow.KindCoGroup, local: optimizer.LocalSortCoGrp, udf: "cg", binary: true},
	// Match strategies A and B hash-join (co-partitioned, or one side
	// broadcast) building either side; C merge-joins. The shipping sweep
	// covers the placements of all three.
	{name: "match-hash-build0", kind: dataflow.KindMatch, local: optimizer.LocalHashJoin, udf: "jn", binary: true},
	{name: "match-hash-build1", kind: dataflow.KindMatch, local: optimizer.LocalHashJoin, udf: "jn", binary: true, build: 1},
	{name: "match-merge", kind: dataflow.KindMatch, local: optimizer.LocalMergeJoin, udf: "jn", binary: true},
	{name: "cross", kind: dataflow.KindCross, local: optimizer.LocalNestedLoop, udf: "jn", binary: true},
}

var matrixShips = []optimizer.Shipping{optimizer.ShipForward, optimizer.ShipPartition, optimizer.ShipBroadcast}

// matrixRows is one row per shape × shipping × chain length {0, 1, 3} ×
// combiner (a partitioned Reduce only), each under a one-byte tight budget.
func matrixRows(t *testing.T) []row {
	var rows []row
	for _, sh := range matrixShapes {
		sources := matrixSources(sh.kind == dataflow.KindCross)
		var shipSets [][]optimizer.Shipping
		for _, l := range matrixShips {
			if !sh.binary {
				shipSets = append(shipSets, []optimizer.Shipping{l})
				continue
			}
			for _, r := range matrixShips {
				shipSets = append(shipSets, []optimizer.Shipping{l, r})
			}
		}
		for _, ships := range shipSets {
			combiners := []bool{false}
			if sh.kind == dataflow.KindReduce && ships[0] == optimizer.ShipPartition {
				combiners = []bool{false, true}
			}
			for _, nMaps := range []int{0, 1, 3} {
				for _, combine := range combiners {
					rows = append(rows, row{name: fmt.Sprintf("%s%v/chain=%d/combiner=%v", sh.name, ships, nMaps, combine),
						plan:    func() *optimizer.PhysPlan { return matrixPlan(t, sh, ships, nMaps, combine) },
						sources: sources, tight: fixed(1)})
				}
			}
		}
	}
	return rows
}

// matrixEdge builds one input of the operator: a source with nMaps chained
// Maps on top.
func matrixEdge(t *testing.T, side string, nMaps int) *optimizer.PhysPlan {
	node := &optimizer.PhysPlan{
		Op:    &dataflow.Operator{Name: side, Kind: dataflow.KindSource},
		Local: optimizer.LocalScan,
	}
	for _, name := range []string{"keep", "bump", "twice"}[:nMaps] {
		node = &optimizer.PhysPlan{
			Op:      &dataflow.Operator{Name: name + side, Kind: dataflow.KindMap, UDF: getUDF(t, matrixProgram, name+side)},
			Inputs:  []*optimizer.PhysPlan{node},
			Ship:    []optimizer.Shipping{optimizer.ShipForward},
			Local:   optimizer.LocalPipe,
			Chained: true,
		}
	}
	return node
}

// matrixPlan builds source(s) → chain(s) → operator → sink for one cell.
func matrixPlan(t *testing.T, sh matrixShape, ships []optimizer.Shipping, nMaps int, combine bool) *optimizer.PhysPlan {
	inputs := []*optimizer.PhysPlan{matrixEdge(t, "L", nMaps)}
	keys := [][]int{{0}}
	if sh.binary {
		inputs = append(inputs, matrixEdge(t, "R", nMaps))
		keys = append(keys, []int{2})
	}
	if sh.kind == dataflow.KindSink {
		return &optimizer.PhysPlan{
			Op:     &dataflow.Operator{Name: "out", Kind: dataflow.KindSink},
			Inputs: inputs, Ship: ships, Local: sh.local,
		}
	}
	op := &dataflow.Operator{Name: "op", Kind: sh.kind, UDF: getUDF(t, matrixProgram, sh.udf), Keys: keys}
	if combine {
		op.Combiner = op.UDF
	}
	node := &optimizer.PhysPlan{Op: op, Inputs: inputs, Ship: ships, Local: sh.local, BuildSide: sh.build, Combinable: combine}
	return &optimizer.PhysPlan{
		Op:     &dataflow.Operator{Name: "out", Kind: dataflow.KindSink},
		Inputs: []*optimizer.PhysPlan{node},
		Ship:   []optimizer.Shipping{optimizer.ShipForward},
		Local:  optimizer.LocalPipe,
	}
}

// matrixSources builds the inputs: every record a function of its key, keys
// repeated so groups have several (identical) members, the two sides' key
// ranges overlapping in part. Cross gets small inputs; the rest enough
// records that a one-batch budget overflows at DOP > 1. Every record has
// Null room, so a UDF wrongly handed a source row could widen it in place
// and the source canary would see it.
func matrixSources(cross bool) map[string]record.DataSet {
	nL, nR, keysL, keysR, rLo := 360, 280, 45, 40, 20
	if cross {
		nL, nR, keysL, keysR, rLo = 14, 9, 7, 5, 3
	}
	roomy := func(vs ...record.Value) record.Record { return append(make(record.Record, 0, 8), vs...) }
	l := make(record.DataSet, nL)
	for i := range l {
		k := int64(i % keysL)
		l[i] = roomy(record.Int(k), record.Int(k*3+1))
	}
	r := make(record.DataSet, nR)
	for i := range r {
		k := int64(i%keysR + rLo)
		r[i] = roomy(record.Null, record.Null, record.Int(k), record.Int(k*5+2))
	}
	return map[string]record.DataSet{"L": l, "R": r}
}
