package optimizer

import (
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
)

// combinerTestProgram: an algebraic sum Reduce (usable as its own
// combiner), a filtering Reduce (emit 0-or-all, not exactly-one), and a
// Reduce that rewrites the grouping key.
var combinerTestProgram = frontend.MustCompile(`
reduce sumV(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}
reduce keyWriter(g) {
	first := g.at(0)
	out := copy(first)
	out[0] = 0
	emit out
}
reduce maybeEmit(g) {
	s := sum(g, 1)
	if s >= 0 {
		first := g.at(0)
		emit first
	}
}
`)

func combinerFlow(t *testing.T, combinerName string) *dataflow.Flow {
	t.Helper()
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"k", "v"}, dataflow.Hints{Records: 100000, AvgWidthBytes: 18})
	udf, ok := combinerTestProgram.Lookup("sumV")
	if !ok {
		t.Fatal("missing sumV")
	}
	red := f.Reduce("R", udf, []string{"k"}, src, dataflow.Hints{KeyCardinality: 50})
	if combinerName != "" {
		comb, ok := combinerTestProgram.Lookup(combinerName)
		if !ok {
			t.Fatalf("missing %s", combinerName)
		}
		red.SetCombiner(comb)
	}
	f.SetSink("out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	return f
}

func optimizeFlow(t *testing.T, f *dataflow.Flow, dop int) *PhysPlan {
	t.Helper()
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return NewPhysicalOptimizer(NewEstimator(f), dop).Optimize(tree)
}

func reduceNode(p *PhysPlan) *PhysPlan {
	if p.Op.Kind == dataflow.KindReduce {
		return p
	}
	for _, in := range p.Inputs {
		if n := reduceNode(in); n != nil {
			return n
		}
	}
	return nil
}

// TestCombinableAnnotation: a shuffled Reduce with a safe combiner is
// annotated Combinable, and the annotation shows up in the plan rendering.
func TestCombinableAnnotation(t *testing.T) {
	plan := optimizeFlow(t, combinerFlow(t, "sumV"), 8)
	red := reduceNode(plan)
	if red == nil {
		t.Fatal("no reduce in plan")
	}
	if red.Ship[0] != ShipPartition {
		t.Fatalf("reduce ships via %s, want partition", red.Ship[0])
	}
	if !red.Combinable {
		t.Fatalf("safe combiner not annotated:\n%s", plan.Indent())
	}
	if got := red.String(); got != "R{partition;"+red.Local.String()+";combine}" {
		t.Errorf("plan rendering %q lacks the ;combine suffix", got)
	}
}

// TestCombinerRejectedWhenUnsafe: combiners that write the grouping key or
// do not emit exactly one record per group are never annotated.
func TestCombinerRejectedWhenUnsafe(t *testing.T) {
	for _, name := range []string{"keyWriter", "maybeEmit"} {
		red := reduceNode(optimizeFlow(t, combinerFlow(t, name), 8))
		if red == nil {
			t.Fatalf("%s: no reduce in plan", name)
		}
		if red.Combinable {
			t.Errorf("%s: unsafe combiner annotated Combinable", name)
		}
	}
	// No combiner declared at all.
	if red := reduceNode(optimizeFlow(t, combinerFlow(t, ""), 8)); red.Combinable {
		t.Error("reduce without a combiner annotated Combinable")
	}
}

// TestCombinerCheaperThanPlainShuffle: with a high-duplication key
// distribution, the combinable plan's cumulative cost undercuts the same
// flow without a combiner — the optimizer has a reason to pick it.
func TestCombinerCheaperThanPlainShuffle(t *testing.T) {
	with := optimizeFlow(t, combinerFlow(t, "sumV"), 8)
	without := optimizeFlow(t, combinerFlow(t, ""), 8)
	if with.Cost.Net >= without.Cost.Net {
		t.Errorf("combined plan nets %.0f bytes, plain plan %.0f — no estimated shuffle reduction",
			with.Cost.Net, without.Cost.Net)
	}
}

// TestCombinerSkippedOnForwardShip: when an existing partitioning already
// co-locates the reduce keys, the shuffle disappears entirely and there is
// nothing to combine — the annotation must not be set on a forward ship.
func TestCombinerSkippedOnForwardShip(t *testing.T) {
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"k", "v"}, dataflow.Hints{Records: 100000, AvgWidthBytes: 18})
	udf, _ := combinerTestProgram.Lookup("sumV")
	r1 := f.Reduce("R1", udf, []string{"k"}, src, dataflow.Hints{KeyCardinality: 50})
	r2 := f.Reduce("R2", udf, []string{"k"}, r1, dataflow.Hints{KeyCardinality: 50})
	r2.SetCombiner(udf)
	f.SetSink("out", r2)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	plan := optimizeFlow(t, f, 8)
	var r2node *PhysPlan
	var walk func(p *PhysPlan)
	walk = func(p *PhysPlan) {
		if p.Op.Name == "R2" {
			r2node = p
		}
		for _, in := range p.Inputs {
			walk(in)
		}
	}
	walk(plan)
	if r2node == nil {
		t.Fatal("R2 missing from plan")
	}
	if r2node.Ship[0] != ShipForward {
		t.Fatalf("R2 ships via %s; expected the interesting-property reuse to forward", r2node.Ship[0])
	}
	if r2node.Combinable {
		t.Error("forward-shipped reduce annotated Combinable")
	}
}
