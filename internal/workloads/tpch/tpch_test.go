package tpch

import (
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/engine"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
)

func TestGenParamsScaling(t *testing.T) {
	g := &GenParams{SF: 2, Seed: 1}
	if g.Lineitems() != 12000 || g.Suppliers() != 200 {
		t.Errorf("scaling wrong: li=%d s=%d", g.Lineitems(), g.Suppliers())
	}
	tiny := &GenParams{SF: 0.0001, Seed: 1}
	if tiny.Suppliers() < 1 {
		t.Error("cardinalities must be at least 1")
	}
}

func TestBuildQ7Validates(t *testing.T) {
	for _, mode := range []Mode{ModeSCA, ModeManual} {
		q, err := BuildQ7(mode, DefaultGen())
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if err := q.Flow.Validate(); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		// Every UDF operator must carry an effect.
		for _, op := range q.Flow.Operators() {
			if op.IsUDFOp() && op.Effect == nil {
				t.Errorf("mode %d: %s has no effect", mode, op)
			}
		}
	}
}

func TestBuildQ15Validates(t *testing.T) {
	for _, mode := range []Mode{ModeSCA, ModeManual} {
		q, err := BuildQ15(mode, DefaultGen())
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if err := q.Flow.Validate(); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := DefaultGen()
	q, _ := BuildQ7(ModeSCA, g)
	d1 := g.Generate(q.Flow)
	d2 := g.Generate(q.Flow)
	for name := range d1 {
		if !d1[name].Equal(d2[name]) {
			t.Errorf("source %s not deterministic", name)
		}
	}
	if len(d1["lineitem"]) != g.Lineitems() {
		t.Errorf("lineitem count = %d", len(d1["lineitem"]))
	}
	if len(d1["nation1"]) != NumNations {
		t.Errorf("nation count = %d", len(d1["nation1"]))
	}
}

func TestGenerateReferentialIntegrity(t *testing.T) {
	g := DefaultGen()
	q, _ := BuildQ7(ModeSCA, g)
	f := q.Flow
	data := g.Generate(f)
	orders := map[int64]bool{}
	for _, r := range data["orders"] {
		orders[r.Field(f.Attr("o_key")).AsInt()] = true
	}
	for _, r := range data["lineitem"] {
		if !orders[r.Field(f.Attr("l_orderkey")).AsInt()] {
			t.Fatal("lineitem references missing order")
		}
		sk := r.Field(f.Attr("l_suppkey")).AsInt()
		if sk < 0 || sk >= int64(g.Suppliers()) {
			t.Fatal("lineitem references missing supplier")
		}
	}
}

// TestQ7PlanSpaceSCAEqualsManual is the Table 1 row for Q7: static code
// analysis recovers 100% of the manually annotated orders.
func TestQ7PlanSpaceSCAEqualsManual(t *testing.T) {
	g := DefaultGen()
	counts := map[Mode]int{}
	for _, mode := range []Mode{ModeSCA, ModeManual} {
		q, err := BuildQ7(mode, g)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := optimizer.FromFlow(q.Flow)
		if err != nil {
			t.Fatal(err)
		}
		counts[mode] = len(optimizer.NewEnumerator().Enumerate(tree))
	}
	if counts[ModeSCA] != counts[ModeManual] {
		t.Errorf("Q7: SCA %d != manual %d", counts[ModeSCA], counts[ModeManual])
	}
	// The Q7 plan space must be large (bushy join orders).
	if counts[ModeSCA] < 100 {
		t.Errorf("Q7 plan space suspiciously small: %d", counts[ModeSCA])
	}
}

// TestQ15PlanSpace is the Table 1 row for Q15, including the
// aggregation-push-up alternative of Figure 3(b).
func TestQ15PlanSpace(t *testing.T) {
	g := DefaultGen()
	for _, mode := range []Mode{ModeSCA, ModeManual} {
		q, err := BuildQ15(mode, g)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := optimizer.FromFlow(q.Flow)
		if err != nil {
			t.Fatal(err)
		}
		alts := optimizer.NewEnumerator().Enumerate(tree)
		if len(alts) != 3 {
			t.Fatalf("mode %d: %d plans, want 3", mode, len(alts))
		}
		var found bool
		for _, a := range alts {
			if a.String() == "out(agg_revenue(join_s_l(supplier, filter_quarter(lineitem))))" {
				found = true
			}
		}
		if !found {
			t.Errorf("mode %d: missing the Figure 3(b) push-up plan", mode)
		}
	}
}

// TestQ7AllPlansEquivalent executes every enumerated Q7 plan on a small
// data set and checks bag equality of the results — the system-level
// safety property (Section 5).
func TestQ7AllPlansEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running soundness sweep")
	}
	g := &GenParams{SF: 0.5, Seed: 11}
	q, _ := BuildQ7(ModeSCA, g)
	tree, err := optimizer.FromFlow(q.Flow)
	if err != nil {
		t.Fatal(err)
	}
	alts := optimizer.NewEnumerator().Enumerate(tree)
	est := optimizer.NewEstimator(q.Flow)
	po := optimizer.NewPhysicalOptimizer(est, 2)
	e := engine.New(2)
	for name, ds := range g.Generate(q.Flow) {
		e.AddSource(name, ds)
	}
	var ref record.DataSet
	for i, a := range alts {
		out, _, err := e.Run(po.Optimize(a))
		if err != nil {
			t.Fatalf("plan %s: %v", a, err)
		}
		if i == 0 {
			ref = out
			continue
		}
		if !out.Equal(ref) {
			t.Fatalf("plan %s output differs", a)
		}
	}
}

// TestQ15ResultCorrect checks the query result against an independent
// in-memory computation of Q15.
func TestQ15ResultCorrect(t *testing.T) {
	g := DefaultGen()
	q, _ := BuildQ15(ModeSCA, g)
	f := q.Flow
	tree, _ := optimizer.FromFlow(f)
	est := optimizer.NewEstimator(f)
	po := optimizer.NewPhysicalOptimizer(est, 4)
	e := engine.New(4)
	data := g.Generate(f)
	for name, ds := range data {
		e.AddSource(name, ds)
	}
	out, _, err := e.Run(po.Optimize(tree))
	if err != nil {
		t.Fatal(err)
	}

	// Reference: revenue per supplier over the quarter window.
	want := map[int64]int64{}
	for _, r := range data["lineitem"] {
		d := r.Field(f.Attr("l_shipdate")).AsInt()
		if d < Q15Date || d > Q15Date2 {
			continue
		}
		want[r.Field(f.Attr("l_suppkey")).AsInt()] += r.Field(f.Attr("l_revenue")).AsInt()
	}
	if len(out) != len(want) {
		t.Fatalf("out %d records, want %d suppliers", len(out), len(want))
	}
	for _, r := range out {
		sk := r.Field(f.Attr("s_key")).AsInt()
		if got := r.Field(f.Attr("total_revenue")).AsInt(); got != want[sk] {
			t.Errorf("supplier %d revenue = %d, want %d", sk, got, want[sk])
		}
	}
}

// TestQ7BestPlanPushesFilterDown: the cost-optimal plan must apply the
// selective shipdate filter before any join.
func TestQ7BestPlanPushesFilterDown(t *testing.T) {
	g := DefaultGen()
	q, _ := BuildQ7(ModeSCA, g)
	tree, _ := optimizer.FromFlow(q.Flow)
	est := optimizer.NewEstimator(q.Flow)
	ranked := optimizer.RankAllNet(tree, est, 8, 0, optimizer.NetProfile{})
	best := ranked[0].Tree

	// Find the filter_shipdate node: its child must be the lineitem source.
	var check func(tr *optimizer.Tree) bool
	var found bool
	check = func(tr *optimizer.Tree) bool {
		if tr.Op.Name == "filter_shipdate" {
			found = true
			return tr.Kids[0].Op.Kind == dataflow.KindSource
		}
		for _, k := range tr.Kids {
			if !check(k) {
				return false
			}
		}
		return true
	}
	if !check(best) || !found {
		t.Errorf("best plan does not scan-filter lineitem first:\n%s", best.Indent())
	}
	// And the worst plan must cost several times the best.
	worst := ranked[len(ranked)-1]
	if worst.Cost < 2*ranked[0].Cost {
		t.Errorf("cost spread too small: best %.0f worst %.0f", ranked[0].Cost, worst.Cost)
	}
}
