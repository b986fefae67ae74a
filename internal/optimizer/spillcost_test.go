package optimizer

import (
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
)

// buildSpillCostFlow returns a wordcount-style Reduce flow, optionally with
// the Reduce declared as its own combiner.
func buildSpillCostFlow(t *testing.T, combinable bool) (*dataflow.Flow, *Tree) {
	t.Helper()
	prog := frontend.MustCompile(`
reduce wc(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}
`)
	udf, _ := prog.Lookup("wc")
	f := dataflow.NewFlow()
	src := f.Source("words", []string{"word", "n"},
		dataflow.Hints{Records: 1e6, AvgWidthBytes: 20})
	red := f.Reduce("wc", udf, []string{"word"}, src,
		dataflow.Hints{KeyCardinality: 100})
	if combinable {
		red.SetCombiner(udf)
	}
	f.SetSink("out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, tree
}

func bestCost(t *testing.T, f *dataflow.Flow, tree *Tree, budget float64) (float64, *PhysPlan) {
	t.Helper()
	po := NewPhysicalOptimizer(NewEstimator(f), 8)
	po.MemoryBudget = budget
	plan := po.Optimize(tree)
	return plan.Cost.Total(), plan
}

// TestSpillCostTerm: a budget below the shuffled volume adds a disk term; a
// budget above it — or none — leaves the plan cost unchanged.
func TestSpillCostTerm(t *testing.T) {
	f, tree := buildSpillCostFlow(t, false)
	unlimited, plan := bestCost(t, f, tree, 0)
	if plan.Cost.Disk == 0 {
		// Source scan carries disk cost; sanity-check the plan shape instead.
		t.Fatalf("expected source scan disk cost in plan:\n%s", plan.Indent())
	}

	// ~1e6 records × ~22 B ≈ 22 MB through the shuffle.
	generous, _ := bestCost(t, f, tree, 1e9)
	if generous != unlimited {
		t.Errorf("a budget above the working set changed the cost: %g vs %g", generous, unlimited)
	}

	tight, tightPlan := bestCost(t, f, tree, 1e6)
	if tight <= unlimited {
		t.Errorf("a tight budget did not add cost: tight %g, unlimited %g", tight, unlimited)
	}
	red := tightPlan
	for red != nil && red.Op.Kind != dataflow.KindReduce {
		if len(red.Inputs) == 0 {
			red = nil
			break
		}
		red = red.Inputs[0]
	}
	if red == nil {
		t.Fatal("no Reduce in plan")
	}
	if red.Cost.Disk <= red.Inputs[0].Cost.Disk {
		t.Errorf("tight-budget Reduce carries no spill disk cost:\n%s", tightPlan.Indent())
	}
}

// TestSpillCostPrefersCombinable: a tight budget widens the combinable
// plan's advantage — the combined stream fits where the raw stream spills —
// which is the steering the issue asks the enumeration to exhibit.
func TestSpillCostPrefersCombinable(t *testing.T) {
	fPlain, tPlain := buildSpillCostFlow(t, false)
	fComb, tComb := buildSpillCostFlow(t, true)

	plainFree, _ := bestCost(t, fPlain, tPlain, 0)
	combFree, combPlan := bestCost(t, fComb, tComb, 0)
	var seek func(p *PhysPlan) *PhysPlan
	seek = func(p *PhysPlan) *PhysPlan {
		if p.Op.Kind == dataflow.KindReduce {
			return p
		}
		for _, in := range p.Inputs {
			if n := seek(in); n != nil {
				return n
			}
		}
		return nil
	}
	if n := seek(combPlan); n == nil || !n.Combinable {
		t.Fatalf("combiner flow did not produce a Combinable plan:\n%s", combPlan.Indent())
	}

	const budget = 1e6
	plainTight, _ := bestCost(t, fPlain, tPlain, budget)
	combTight, _ := bestCost(t, fComb, tComb, budget)

	advantageFree := plainFree - combFree
	advantageTight := plainTight - combTight
	if advantageTight <= advantageFree {
		t.Errorf("tight budget did not widen the combinable advantage: free %g, tight %g",
			advantageFree, advantageTight)
	}
}

// buildJoinCostFlow returns an L ⋈ R flow with the given per-side record
// counts (two 10-byte attributes per side: ~24 estimated bytes/record).
func buildJoinCostFlow(t *testing.T, lRecs, rRecs float64) (*dataflow.Flow, *Tree) {
	t.Helper()
	prog := frontend.MustCompile(`
match jn(l, r) {
	o := concat(l, r)
	emit o
}
`)
	udf, _ := prog.Lookup("jn")
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: lRecs, AvgWidthBytes: 20})
	r := f.Source("R", []string{"rk", "rv"}, dataflow.Hints{Records: rRecs, AvgWidthBytes: 20})
	j := f.Match("J", udf, []string{"lk"}, []string{"rk"}, l, r, dataflow.Hints{KeyCardinality: 1000})
	f.SetSink("out", j)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, tree
}

func findKind(p *PhysPlan, kind dataflow.OpKind) *PhysPlan {
	if p.Op.Kind == kind {
		return p
	}
	for _, in := range p.Inputs {
		if n := findKind(in, kind); n != nil {
			return n
		}
	}
	return nil
}

// TestSpillCostJoinTerm: a budget below a join's shuffled (or broadcast)
// volume adds a disk term to the Match node; a generous budget leaves the
// plan cost unchanged — joins are no longer priced as spill-free.
func TestSpillCostJoinTerm(t *testing.T) {
	f, tree := buildJoinCostFlow(t, 15000, 12000)
	unlimited, _ := bestCost(t, f, tree, 0)
	generous, _ := bestCost(t, f, tree, 1e9)
	if generous != unlimited {
		t.Errorf("a budget above the working set changed the cost: %g vs %g", generous, unlimited)
	}
	tight, tightPlan := bestCost(t, f, tree, 64<<10)
	if tight <= unlimited {
		t.Errorf("a tight budget did not add cost: tight %g, unlimited %g", tight, unlimited)
	}
	match := findKind(tightPlan, dataflow.KindMatch)
	if match == nil {
		t.Fatal("no Match in plan")
	}
	inputDisk := match.Inputs[0].Cost.Disk + match.Inputs[1].Cost.Disk
	if match.Cost.Disk <= inputDisk {
		t.Errorf("tight-budget Match carries no spill disk cost:\n%s", tightPlan.Indent())
	}
}

// TestSpillCostSteersJoinStrategy: the sizes are chosen so the repartition
// join wins on network volume when memory is unlimited, but under a budget
// that the replicated small side still fits — while the shuffled big side
// overflows — the disk term flips enumeration to the broadcast join. This
// is the join-strategy steering the spill-aware term exists for.
func TestSpillCostSteersJoinStrategy(t *testing.T) {
	// DOP 8; ~24 B/record: L ≈ 360 KB, R ≈ 60 KB. Repartition net ≈ 420 KB
	// beats broadcast net ≈ 480 KB unbudgeted; under a 480 KB budget the
	// broadcast build side (60 KB × 8) just fits while the repartition plan
	// spills L (360 KB > 240 KB per-side share).
	f, tree := buildJoinCostFlow(t, 15000, 2500)

	_, freePlan := bestCost(t, f, tree, 0)
	freeMatch := findKind(freePlan, dataflow.KindMatch)
	if freeMatch == nil {
		t.Fatal("no Match in plan")
	}
	for i, s := range freeMatch.Ship {
		if s != ShipPartition {
			t.Fatalf("unbudgeted input %d ships %s, want partition:\n%s", i, s, freePlan.Indent())
		}
	}

	_, tightPlan := bestCost(t, f, tree, 480_000)
	tightMatch := findKind(tightPlan, dataflow.KindMatch)
	if tightMatch == nil {
		t.Fatal("no Match in plan")
	}
	broadcast := false
	for _, s := range tightMatch.Ship {
		if s == ShipBroadcast {
			broadcast = true
		}
	}
	if !broadcast {
		t.Errorf("tight budget did not steer the join to broadcast:\n%s", tightPlan.Indent())
	}
}

// TestSpillCostCrossBroadcastTerm: a Cross's broadcast build side is
// charged the spill term on its replicated volume once it exceeds the
// budget.
func TestSpillCostCrossBroadcastTerm(t *testing.T) {
	prog := frontend.MustCompile(`
cross pair(l, r) {
	o := concat(l, r)
	emit o
}
`)
	udf, _ := prog.Lookup("pair")
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"a"}, dataflow.Hints{Records: 20000, AvgWidthBytes: 10})
	r := f.Source("R", []string{"b"}, dataflow.Hints{Records: 5000, AvgWidthBytes: 10})
	cr := f.Cross("X", udf, l, r, dataflow.Hints{})
	f.SetSink("out", cr)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	unlimited, _ := bestCost(t, f, tree, 0)
	generous, _ := bestCost(t, f, tree, 1e9)
	if generous != unlimited {
		t.Errorf("a budget above the working set changed the cost: %g vs %g", generous, unlimited)
	}
	tight, tightPlan := bestCost(t, f, tree, 32<<10)
	if tight <= unlimited {
		t.Errorf("a tight budget did not charge the Cross broadcast side: tight %g, unlimited %g", tight, unlimited)
	}
	cross := findKind(tightPlan, dataflow.KindCross)
	if cross == nil {
		t.Fatal("no Cross in plan")
	}
	inputDisk := cross.Inputs[0].Cost.Disk + cross.Inputs[1].Cost.Disk
	if cross.Cost.Disk <= inputDisk {
		t.Errorf("tight-budget Cross carries no spill disk cost:\n%s", tightPlan.Indent())
	}
}

// TestSpillCostPasses: the notional multi-pass penalty grows the term once
// the estimated run count exceeds the modeled merge fan-in.
func TestSpillCostPasses(t *testing.T) {
	if got := spillCost(100, 0); got != 0 {
		t.Errorf("no budget must mean no spill cost, got %g", got)
	}
	if got := spillCost(100, 200); got != 0 {
		t.Errorf("fitting volume must cost nothing, got %g", got)
	}
	onePass := spillCost(1000, 100) // 10 runs, 1 pass: 2 × 900
	if onePass != 1800 {
		t.Errorf("one-pass spill cost = %g, want 1800", onePass)
	}
	// mergeFanIn+ runs: two passes.
	vol := float64((mergeFanIn + 10) * 100)
	twoPass := spillCost(vol, 100)
	if want := 2 * (vol - 100) * 2; twoPass != want {
		t.Errorf("two-pass spill cost = %g, want %g", twoPass, want)
	}
}
