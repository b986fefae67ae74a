package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// This file implements a randomized end-to-end soundness check of the whole
// system: generate random Map/Reduce pipelines over random UDFs, run the
// static analysis, enumerate every reordering the optimizer believes valid,
// execute all of them, and require bag-equal outputs. It is the empirical
// counterpart of the paper's safety argument (Section 5): conservative
// property estimation must never license a result-changing reordering.

// genUDF builds a random Map UDF over `width` fields. Shapes: filters,
// field rewrites, field moves, and multi-emitters.
func genUDF(rng *rand.Rand, name string, width int) string {
	f1 := rng.Intn(width)
	f2 := rng.Intn(width)
	c := rng.Intn(7) - 3
	switch rng.Intn(5) {
	case 0: // filter on f1
		return fmt.Sprintf(`
func map %s($ir) {
	$a := getfield $ir %d
	if $a < %d goto S
	emit $ir
S: return
}`, name, f1, c)
	case 1: // rewrite f1 from f1 and f2
		return fmt.Sprintf(`
func map %s($ir) {
	$a := getfield $ir %d
	$b := getfield $ir %d
	$s := $a + $b
	$or := copyrec $ir
	setfield $or %d $s
	emit $or
}`, name, f1, f2, f1)
	case 2: // conditional rewrite (f1's sign decides)
		return fmt.Sprintf(`
func map %s($ir) {
	$a := getfield $ir %d
	$or := copyrec $ir
	if $a >= 0 goto E
	$n := neg $a
	setfield $or %d $n
E: emit $or
}`, name, f1, f1)
	case 3: // move f2 into f1 (reads f2, writes f1)
		return fmt.Sprintf(`
func map %s($ir) {
	$b := getfield $ir %d
	$or := copyrec $ir
	$d := $b * 2
	setfield $or %d $d
	emit $or
}`, name, f2, f1)
	default: // duplicate rows with a marker in f1
		return fmt.Sprintf(`
func map %s($ir) {
	emit $ir
	$or := copyrec $ir
	setfield $or %d %d
	emit $or
}`, name, f1, c)
	}
}

// TestRandomPipelinesAllPlansEquivalent generates random flows and checks
// that every enumerated alternative computes the same bag.
func TestRandomPipelinesAllPlansEquivalent(t *testing.T) {
	const (
		trials = 60
		width  = 4
		nOps   = 5
		nRows  = 120
	)
	totalPlans := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))

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
		alts := optimizer.NewEnumerator().Enumerate(tree)
		totalPlans += len(alts)

		data := make(record.DataSet, nRows)
		for i := range data {
			r := make(record.Record, width)
			for j := range r {
				r[j] = record.Int(int64(rng.Intn(13) - 6))
			}
			data[i] = r
		}
		e := New(3)
		e.AddSource("S", data)
		est := optimizer.NewEstimator(f)
		po := optimizer.NewPhysicalOptimizer(est, 3)

		var ref record.DataSet
		for i, a := range alts {
			out, _, err := e.Run(po.Optimize(a))
			if err != nil {
				t.Fatalf("trial %d plan %s: %v", trial, a, err)
			}
			if i == 0 {
				ref = out
				continue
			}
			if !out.Equal(ref) {
				t.Fatalf("trial %d: plan %s output differs from %s\nUDFs:\n%s",
					trial, a, alts[0], src)
			}
		}
	}
	if totalPlans <= trials {
		t.Errorf("suspiciously few plans across trials: %d", totalPlans)
	}
}

// tinyBudgetTrial is one randomly generated Map+Reduce pipeline from the
// tiny-budget sweep's seed series, shared by the budget-equivalence and
// fault-equivalence tests so both walk the same pipeline population.
type tinyBudgetTrial struct {
	src  string
	flow *dataflow.Flow
	tree *optimizer.Tree
	data record.DataSet
}

// genTinyBudgetTrial builds trial number `trial` of the tiny-budget sweep:
// random Map UDFs feeding a sum-aggregate Reduce, plus matching input data.
func genTinyBudgetTrial(t *testing.T, trial int) tinyBudgetTrial {
	t.Helper()
	const (
		width = 4
		nMaps = 3
		nRows = 150
	)
	rng := rand.New(rand.NewSource(int64(9000 + trial)))

	var src string
	names := make([]string, nMaps)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		src += genUDF(rng, names[i], width)
	}
	keyField := rng.Intn(width)
	aggField := rng.Intn(width)
	src += fmt.Sprintf(`
func reduce agg($g) {
	$first := groupget $g 0
	$or := newrec
	$k := getfield $first %d
	setfield $or %d $k
	$s := agg sum $g %d
	setfield $or %d $s
	emit $or
}`, keyField, keyField, aggField, width)

	prog, err := tac.Parse(src)
	if err != nil {
		t.Fatalf("trial %d: %v\n%s", trial, err, src)
	}

	f := dataflow.NewFlow()
	attrs := make([]string, width+1)
	for i := 0; i <= width; i++ {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	node := f.Source("S", attrs[:width], dataflow.Hints{Records: nRows, AvgWidthBytes: float64(9 * width)})
	f.DeclareAttr(attrs[width])
	for _, n := range names {
		fn, _ := prog.Lookup(n)
		node = f.Map(n, fn, node, dataflow.Hints{})
	}
	aggFn, _ := prog.Lookup("agg")
	node = f.Reduce("agg", aggFn, []string{attrs[keyField]}, node, dataflow.Hints{KeyCardinality: 13})
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
			r[j] = record.Int(int64(rng.Intn(9) - 4))
		}
		data[i] = r
	}
	return tinyBudgetTrial{src: src, flow: f, tree: tree, data: data}
}

// TestRandomPipelinesTinyBudgetEquivalent is the out-of-core counterpart of
// the randomized soundness checks: random Map+Reduce pipelines, every
// enumerated alternative, executed under an artificially tiny MemoryBudget
// (forcing multi-run external merges on every shuffled grouping) must be
// byte-identical to the same plan's unlimited-budget run, and bag-equal
// across alternatives.
func TestRandomPipelinesTinyBudgetEquivalent(t *testing.T) {
	const trials = 25
	spillDir := t.TempDir()
	sawSpill := false
	for trial := 0; trial < trials; trial++ {
		tr := genTinyBudgetTrial(t, trial)
		src, f, data := tr.src, tr.flow, tr.data
		alts := optimizer.NewEnumerator().Enumerate(tr.tree)

		e := New(3)
		e.AddSource("S", data)
		e.SpillDir = spillDir
		po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 3)

		var ref record.DataSet
		for i, a := range alts {
			phys := po.Optimize(a)

			e.MemoryBudget = 0
			unlimited, _, err := e.Run(phys)
			if err != nil {
				t.Fatalf("trial %d plan %s: %v", trial, a, err)
			}

			// ~37 B/record × 150 rows ≈ 5.5 KB through the shuffle; 96
			// bytes per partition forces a run per received batch.
			e.MemoryBudget = 96 * e.DOP
			budgeted, stats, err := e.Run(phys)
			if err != nil {
				t.Fatalf("trial %d plan %s (budgeted): %v", trial, a, err)
			}
			if stats.TotalSpillRuns() > 0 {
				sawSpill = true
			}

			if len(budgeted) != len(unlimited) {
				t.Fatalf("trial %d plan %s: budgeted %d records, unlimited %d",
					trial, a, len(budgeted), len(unlimited))
			}
			for j := range unlimited {
				if !budgeted[j].Equal(unlimited[j]) {
					t.Fatalf("trial %d plan %s: record %d is %v budgeted, %v unlimited\nUDFs:\n%s",
						trial, a, j, budgeted[j], unlimited[j], src)
				}
			}

			// The same plan on the reference executor (record-at-a-time
			// shuffle, no fusion, combining or spilling) must be
			// byte-identical to the pipeline runs above, with the same exact
			// counters, extending the sweep into a differential.
			legacyOut, legacyStats := mustRefRun(t, e, phys, fmt.Sprintf("trial %d plan %s", trial, a))
			requireByteIdentical(t, legacyOut, unlimited,
				fmt.Sprintf("trial %d plan %s reference vs pipeline", trial, a))
			requireByteIdentical(t, legacyOut, budgeted,
				fmt.Sprintf("trial %d plan %s reference vs pipeline (budgeted)", trial, a))
			requireSameCounters(t, stats, legacyStats,
				fmt.Sprintf("trial %d plan %s (budgeted)", trial, a))

			if i == 0 {
				ref = budgeted
				continue
			}
			if !budgeted.Equal(ref) {
				t.Fatalf("trial %d: budgeted plan %s output differs from %s\nUDFs:\n%s",
					trial, a, alts[0], src)
			}
		}
	}
	if !sawSpill {
		t.Fatal("no trial ever spilled — the tiny budget is not exercising the out-of-core path")
	}
}

// TestRandomPipelinesTinyBudgetFaultEquivalent re-runs the tiny-budget sweep's
// pipeline population with one seeded fault injected per trial: each trial
// must either fail cleanly with an error wrapping the injected fault, or —
// when the fault misses the run (latency, or an unreached op index) —
// produce output byte-identical to the fault-free budgeted run. Either way
// no spill file survives, and the engine runs the next trial normally.
func TestRandomPipelinesTinyBudgetFaultEquivalent(t *testing.T) {
	const trials = 15
	spillDir := t.TempDir()
	faulted := 0
	for trial := 0; trial < trials; trial++ {
		tr := genTinyBudgetTrial(t, trial)
		alts := optimizer.NewEnumerator().Enumerate(tr.tree)
		phys := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(tr.flow), 3).Optimize(alts[0])

		e := New(3)
		e.AddSource("S", tr.data)
		e.SpillDir = spillDir
		e.MemoryBudget = 96 * e.DOP

		ref, _, err := e.Run(phys)
		if err != nil {
			t.Fatalf("trial %d: fault-free run: %v", trial, err)
		}
		assertNoSpillFiles(t, spillDir)

		// Measure the trial's fault surface, then inject one seeded fault.
		counter := faultfs.NewInjector(faultfs.OS{}, 0, faultfs.ENOSPC)
		e.FS = counter
		if _, _, err := e.Run(phys); err != nil {
			t.Fatalf("trial %d: counting run: %v", trial, err)
		}
		nOps := counter.Ops()
		if nOps == 0 {
			t.Fatalf("trial %d never touched the spill path under the tiny budget", trial)
		}
		inj := faultfs.Seeded(faultfs.OS{}, int64(9000+trial), nOps)
		inj.Delay = time.Millisecond
		e.FS = inj
		out, _, err := e.Run(phys)
		switch {
		case err != nil:
			if !inj.Fired() {
				t.Fatalf("trial %d: error %v without the fault firing\nUDFs:\n%s", trial, err, tr.src)
			}
			if !faultfs.IsInjected(err) {
				t.Fatalf("trial %d: error %v does not wrap the injected fault\nUDFs:\n%s", trial, err, tr.src)
			}
			faulted++
		default:
			requireByteIdentical(t, out, ref, fmt.Sprintf("trial %d (fault missed)", trial))
		}
		assertNoSpillFiles(t, spillDir)

		// The engine stays usable: a fault-free rerun is byte-identical.
		e.FS = nil
		out, _, err = e.Run(phys)
		if err != nil {
			t.Fatalf("trial %d: rerun after fault: %v", trial, err)
		}
		requireByteIdentical(t, out, ref, fmt.Sprintf("trial %d rerun", trial))
		assertNoSpillFiles(t, spillDir)
	}
	if faulted == 0 {
		t.Fatal("no trial's seeded fault ever surfaced an error — the schedule generator is not reaching the spill path")
	}
}

// TestRandomJoinPipelinesTinyBudgetEquivalent extends the tiny-budget
// equivalence sweep from Reduce pipelines to joins: random flows joining
// two sources via Match or Cross, followed by random Maps and (for Match)
// sometimes a Reduce, executed for every enumerated alternative under an
// artificially tiny MemoryBudget and compared byte-for-byte against the
// same plan's unlimited-budget run.
//
// Byte-level (not just bag) comparison across two executions is only
// meaningful when the output order is scheduler-independent, so the
// generated sources use per-side-unique join keys with every non-key field
// a function of the key: within-key arrival order — the one thing the
// shuffle's sender interleaving can change between runs — then permutes
// identical records only, on the spilled and unspilled paths alike. A Cross
// imposes no order of its own, so behind a shipped (broadcast) edge its
// output is whatever order the senders' batches arrived in: the Cross
// trials compare bags.
func TestRandomJoinPipelinesTinyBudgetEquivalent(t *testing.T) {
	const (
		trials    = 18
		width     = 4
		nMaps     = 2
		keyDomain = 40
	)
	spillDir := t.TempDir()
	sawJoinSpill := false
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(12000 + trial)))
		useCross := trial%3 == 2

		src := `
func binary jn($l, $r) {
	$o := concat $l $r
	emit $o
}`
		names := make([]string, nMaps)
		for i := range names {
			names[i] = fmt.Sprintf("m%d", i)
			src += genUDF(rng, names[i], width)
		}
		keyField := rng.Intn(width)
		aggField := rng.Intn(width)
		withReduce := !useCross && trial%2 == 0
		if withReduce {
			src += fmt.Sprintf(`
func reduce agg($g) {
	$first := groupget $g 0
	$or := newrec
	$k := getfield $first %d
	setfield $or %d $k
	$s := agg sum $g %d
	setfield $or %d $s
	emit $or
}`, keyField, keyField, aggField, width)
		}
		prog, err := tac.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}

		f := dataflow.NewFlow()
		nL := 12 + rng.Intn(keyDomain-12)
		nR := 12 + rng.Intn(keyDomain-12)
		if useCross {
			nL, nR = 6+rng.Intn(6), 6+rng.Intn(6)
		}
		l := f.Source("L", []string{"a0", "a1"}, dataflow.Hints{Records: float64(nL), AvgWidthBytes: 18})
		r := f.Source("R", []string{"a2", "a3"}, dataflow.Hints{Records: float64(nR), AvgWidthBytes: 18})
		jnFn, _ := prog.Lookup("jn")
		var node *dataflow.Operator
		if useCross {
			node = f.Cross("J", jnFn, l, r, dataflow.Hints{})
		} else {
			node = f.Match("J", jnFn, []string{"a0"}, []string{"a2"}, l, r,
				dataflow.Hints{KeyCardinality: keyDomain})
		}
		f.DeclareAttr("a4")
		for _, n := range names {
			fn, _ := prog.Lookup(n)
			node = f.Map(n, fn, node, dataflow.Hints{})
		}
		if withReduce {
			aggFn, _ := prog.Lookup("agg")
			node = f.Reduce("agg", aggFn, []string{fmt.Sprintf("a%d", keyField)}, node,
				dataflow.Hints{KeyCardinality: 13})
		}
		f.SetSink("out", node)
		if err := f.DeriveEffects(false); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		tree, err := optimizer.FromFlow(f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		alts := optimizer.NewEnumerator().Enumerate(tree)

		// Per-side-unique keys, payloads a function of the key (see above).
		lPerm, rPerm := rng.Perm(keyDomain), rng.Perm(keyDomain)
		lData := make(record.DataSet, nL)
		for i := range lData {
			k := int64(lPerm[i])
			lData[i] = record.Record{record.Int(k), record.Int(k*3 + 1)}
		}
		rData := make(record.DataSet, nR)
		for i := range rData {
			k := int64(rPerm[i])
			rData[i] = record.Record{record.Null, record.Null, record.Int(k), record.Int(k*5 + 2)}
		}
		e := New(3)
		e.AddSource("L", lData)
		e.AddSource("R", rData)
		e.SpillDir = spillDir
		po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 3)

		var ref record.DataSet
		for i, a := range alts {
			phys := po.Optimize(a)

			e.MemoryBudget = 0
			unlimited, _, err := e.Run(phys)
			if err != nil {
				t.Fatalf("trial %d plan %s: %v", trial, a, err)
			}

			// A share of a few dozen bytes per partition and side: every
			// shuffled join input with more than ~two batches per partition
			// spills (the floor keeps runs at one batch's worth or more).
			e.MemoryBudget = 96 * e.DOP
			budgeted, stats, err := e.Run(phys)
			if err != nil {
				t.Fatalf("trial %d plan %s (budgeted): %v", trial, a, err)
			}
			for _, op := range stats.PerOp {
				if op.Name == "J" && op.SpillRuns > 0 {
					sawJoinSpill = true
				}
			}

			if len(budgeted) != len(unlimited) {
				t.Fatalf("trial %d plan %s: budgeted %d records, unlimited %d",
					trial, a, len(budgeted), len(unlimited))
			}
			for j := range unlimited {
				if !useCross && !budgeted[j].Equal(unlimited[j]) {
					t.Fatalf("trial %d plan %s: record %d is %v budgeted, %v unlimited\nUDFs:\n%s",
						trial, a, j, budgeted[j], unlimited[j], src)
				}
			}
			if !budgeted.Equal(unlimited) {
				t.Fatalf("trial %d plan %s: budgeted and unlimited output bags differ\nUDFs:\n%s", trial, a, src)
			}

			// Reference differential: the budgeted join (external merges and
			// in-memory joins alike) must be byte-identical to the reference
			// executor, which never spills, with the same exact counters.
			legacyOut, legacyStats := mustRefRun(t, e, phys, fmt.Sprintf("trial %d plan %s", trial, a))
			if useCross {
				if !legacyOut.Equal(budgeted) {
					t.Fatalf("trial %d plan %s: reference and pipeline (budgeted) output bags differ", trial, a)
				}
			} else {
				requireByteIdentical(t, legacyOut, budgeted,
					fmt.Sprintf("trial %d plan %s reference vs pipeline (budgeted)", trial, a))
			}
			requireSameCounters(t, stats, legacyStats,
				fmt.Sprintf("trial %d plan %s (budgeted)", trial, a))

			if i == 0 {
				ref = budgeted
				continue
			}
			if !budgeted.Equal(ref) {
				t.Fatalf("trial %d: budgeted plan %s output differs from %s\nUDFs:\n%s",
					trial, a, alts[0], src)
			}
		}
	}
	if !sawJoinSpill {
		t.Fatal("no trial ever spilled a Match input — the tiny budget is not exercising the join spill path")
	}
}

// TestRandomReducePipelinesEquivalent adds a Reduce with a random key to
// random Map pipelines, exercising the KGP machinery end to end.
func TestRandomReducePipelinesEquivalent(t *testing.T) {
	const (
		trials = 40
		width  = 4
		nMaps  = 3
		nRows  = 90
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))

		var src string
		names := make([]string, nMaps)
		for i := range names {
			names[i] = fmt.Sprintf("m%d", i)
			src += genUDF(rng, names[i], width)
		}
		keyField := rng.Intn(width)
		aggField := rng.Intn(width)
		src += fmt.Sprintf(`
func reduce agg($g) {
	$first := groupget $g 0
	$or := newrec
	$k := getfield $first %d
	setfield $or %d $k
	$s := agg sum $g %d
	setfield $or %d $s
	emit $or
}`, keyField, keyField, aggField, width)

		prog, err := tac.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}

		f := dataflow.NewFlow()
		attrs := make([]string, width+1)
		for i := 0; i <= width; i++ {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		node := f.Source("S", attrs[:width], dataflow.Hints{Records: nRows, AvgWidthBytes: float64(9 * width)})
		f.DeclareAttr(attrs[width])
		for _, n := range names {
			fn, _ := prog.Lookup(n)
			node = f.Map(n, fn, node, dataflow.Hints{})
		}
		aggFn, _ := prog.Lookup("agg")
		node = f.Reduce("agg", aggFn, []string{attrs[keyField]}, node, dataflow.Hints{KeyCardinality: 13})
		f.SetSink("out", node)
		if err := f.DeriveEffects(false); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		tree, err := optimizer.FromFlow(f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		alts := optimizer.NewEnumerator().Enumerate(tree)

		data := make(record.DataSet, nRows)
		for i := range data {
			r := make(record.Record, width)
			for j := range r {
				r[j] = record.Int(int64(rng.Intn(9) - 4))
			}
			data[i] = r
		}
		e := New(3)
		e.AddSource("S", data)
		est := optimizer.NewEstimator(f)
		po := optimizer.NewPhysicalOptimizer(est, 3)

		var ref record.DataSet
		for i, a := range alts {
			out, _, err := e.Run(po.Optimize(a))
			if err != nil {
				t.Fatalf("trial %d plan %s: %v", trial, a, err)
			}
			if i == 0 {
				ref = out
				continue
			}
			if !out.Equal(ref) {
				t.Fatalf("trial %d: plan %s output differs from %s\nUDFs:\n%s",
					trial, a, alts[0], src)
			}
		}
	}
}
