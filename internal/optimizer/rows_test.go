package optimizer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/props"
	"blackboxflow/internal/tac"
	"blackboxflow/internal/workloads"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// This file is the row table: the paper's four workloads in both annotation
// modes, the hand-built Section 3, 4, 6 and cost-model examples, and the
// generated flows. A fixed row is checked where its expectation says (at);
// a generated row runs every invariant on the one cell it was drawn with.

// row is a named flow with its expectations.
type row struct {
	name string
	flow *dataflow.Flow
	// at is the cell the row's own expectation is checked at; by default an
	// enumeration under every rule.
	at    config
	check func(t *testing.T, x *cell)
	// golden is the row's label in rankings.golden, if it is pinned there.
	golden string
	// refuse: FromFlow must refuse the flow with an error containing it.
	refuse string
	// own is a generated row's cell: every invariant runs it there.
	own *config
}

type hints = dataflow.Hints

// paper are the four workloads in both annotation modes. Clickstream comes
// manual first, the order rankings.golden pins.
var paper = []string{"q7/sca", "q7/manual", "q15/sca", "q15/manual",
	"clickstream/manual", "clickstream/sca", "textmine/sca", "textmine/manual"}

// workloadRow is a paper workload's row: its plan count under every rule
// (Table 1) is its expectation.
func workloadRow(build func(workloads.Mode) (*dataflow.Flow, error), mode workloads.Mode, plans int, golden string) func(testing.TB) row {
	return func(t testing.TB) row {
		f, err := build(mode)
		if err != nil {
			t.Fatal(err)
		}
		return row{flow: f, golden: golden, check: wantCount(plans)}
	}
}

// flowOf is a built workload's flow: each workload's result is a struct
// that holds only its Flow.
func flowOf[W *tpch.Query | *clickstream.Task | *textmine.Task](w W, err error) (*dataflow.Flow, error) {
	if err != nil {
		return nil, err
	}
	return (*struct{ Flow *dataflow.Flow })(w).Flow, nil
}

func q7(m workloads.Mode) (*dataflow.Flow, error) { return flowOf(tpch.BuildQ7(m, tpch.DefaultGen())) }
func q15(m workloads.Mode) (*dataflow.Flow, error) {
	return flowOf(tpch.BuildQ15(m, tpch.DefaultGen()))
}
func clicks(m workloads.Mode) (*dataflow.Flow, error) {
	return flowOf(clickstream.Build(m, clickstream.DefaultGen()))
}
func text(m workloads.Mode) (*dataflow.Flow, error) {
	return flowOf(textmine.Build(m, textmine.DefaultGen()))
}

// rows are the fixed rows by name.
var rows = map[string]func(testing.TB) row{
	"q7/sca":             workloadRow(q7, workloads.ModeSCA, 442, "q7"),
	"q7/manual":          workloadRow(q7, workloads.ModeManual, 442, ""),
	"q15/sca":            workloadRow(q15, workloads.ModeSCA, 3, "q15"),
	"q15/manual":         workloadRow(q15, workloads.ModeManual, 3, ""),
	"clickstream/manual": workloadRow(clicks, workloads.ModeManual, 4, "clickstream-manual"),
	// SCA's dynamic field access costs clickstream one rotation.
	"clickstream/sca": workloadRow(clicks, workloads.ModeSCA, 3, "clickstream-sca"),
	"textmine/sca":    workloadRow(text, workloads.ModeSCA, 24, "textmine"),
	"textmine/manual": workloadRow(text, workloads.ModeManual, 24, ""),

	// Section 6's worked example: Src → Map1 → Map2 → Map3, where every pair
	// reorders except Map2 (writes field 2) and Map3 (reads it).
	"section6": func(testing.TB) row {
		f := dataflow.NewFlow()
		src := f.Source("Src", []string{"a", "b", "c"}, hints{Records: 100, AvgWidthBytes: 27})
		f.SetSink("Out", chain(f, src, "Map", mapEffect([]int{0}, nil), mapEffect(nil, []int{2}), mapEffect([]int{2}, nil)))
		return row{flow: f, check: wantPlans("Out(Map3(Map2(Map1(Src))))", "Out(Map3(Map1(Map2(Src))))", "Out(Map1(Map3(Map2(Src))))")}
	},
	// Section 3's UDFs through SCA: exactly the f1/f2 swap.
	"section3": func(t testing.TB) row {
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
}
`)
		get := func(n string) *tac.Func { f, _ := prog.Lookup(n); return f }
		f := dataflow.NewFlow()
		src := f.Source("I", []string{"A", "B"}, hints{Records: 1000, AvgWidthBytes: 18})
		o1 := f.Map("f1", get("f1"), src, hints{})
		o2 := f.Map("f2", get("f2"), o1, hints{Selectivity: 0.5})
		f.SetSink("O", f.Map("f3", get("f3"), o2, hints{}))
		derive(t, f)
		return row{flow: f, check: wantPlans("O(f3(f2(f1(I))))", "O(f3(f1(f2(I))))")}
	},
	// A filter over one side's attribute descends into that side only
	// (Theorem 3).
	"join/ra": joinFilterRow("ra", config{}, wantPlans("Out(M(J(R, S)))", "Out(J(M(R), S))")),
	// Without the unary-binary rules the filter stays where it was written.
	"join/ra/no-pushes": joinFilterRow("ra", config{rules: &RuleSet{UnaryUnary: true, Rotations: true}}, wantPlans("Out(M(J(R, S)))")),
	// Sources 1000 each, the join's key cardinality 100 → 10,000, the
	// filter's 0.1 → 1000.
	"join/ra/estimate": joinFilterRow("ra", config{}, func(t *testing.T, x *cell) {
		est, tree := NewEstimator(x.flow), x.tree(t)
		if got := est.Records(tree); got != 1000 {
			t.Errorf("root records = %g, want 1000", got)
		}
		if est.Width(tree) <= 0 || est.Bytes(tree) <= 0 {
			t.Error("width/bytes must be positive")
		}
	}),
	// The pushed-down filter is the cheaper plan.
	"join/ra/ranked": joinFilterRow("ra", config{dop: 4}, func(t *testing.T, x *cell) {
		ranked := x.ranked(t)
		checkOrder(t, x, ranked)
		if len(ranked) != 2 || ranked[0].Tree.String() != "Out(J(M(R), S))" {
			t.Errorf("ranked %d plans, best %s, want 2 and the filter pushed down", len(ranked), ranked[0].Tree)
		}
	}),
	// A filter on the left join key reads rk only: it may descend into the
	// left side, not the right (rk is not an S attribute).
	"join/rk": joinFilterRow("rk", config{}, wantPlans("Out(M(J(R, S)))", "Out(J(M(R), S))")),
	// A Map that writes the join key conflicts with the Match (the f'
	// transformation puts keys in the Match's read set).
	"join/key-writer": func(testing.TB) row {
		f := dataflow.NewFlow()
		r := f.Source("R", []string{"rk", "ra"}, hints{Records: 10, AvgWidthBytes: 18})
		s := f.Source("S", []string{"sk"}, hints{Records: 10, AvgWidthBytes: 9})
		j := f.Match("J", udf("idj"), []string{"rk"}, []string{"sk"}, r, s, hints{})
		m := f.Map("M", udf("id"), j, hints{})
		f.SetSink("Out", m)
		j.SetEffect(concatJoinEffect())
		m.SetEffect(mapEffect(nil, []int{f.Attr("rk")}))
		return row{flow: f, check: wantPlans("Out(M(J(R, S)))")}
	},
	// The Q15 rewrite (Section 4.3.2): a Reduce above a PK-FK Match descends
	// into the FK side when its key covers the match key.
	"invgroup": invGroupRow(dataflow.FKRight, "l_suppkey", "Out(R(J(supplier, lineitem)))", "Out(J(supplier, R(lineitem)))"),
	// Without the FK annotation the rewrite is invalid.
	"invgroup/no-fk": invGroupRow(dataflow.FKNone, "l_suppkey", "Out(R(J(supplier, lineitem)))"),
	// The match key on the FK side must be contained in the reduce key.
	"invgroup/no-cover": invGroupRow(dataflow.FKRight, "l_part", "Out(R(J(supplier, lineitem)))"),
	// The rewrite needs a PK side that cannot duplicate keys: a source
	// qualifies, a join does not (rotations may still fire).
	"pk-unique/source": pkSideRow(false, "Out(R(J(dim, fact)))", "Out(J(dim, R(fact)))"),
	"pk-unique/joined": pkSideRow(true, "Out(R(J(J0(dim, aux), fact)))", "Out(R(J0(J(dim, fact), aux)))"),
	// Lemma 1's rotation on a three-way join chain.
	"rotation": joinChainRow([]string{"st"}, []string{"tk"}, "", config{}, wantPlans("Out(J2(J1(R, S), T))", "Out(J1(R, J2(S, T)))")),
	// The outer join's key lives in the inner join's left subtree: the second
	// rotation form flips the join order of S and T against R.
	"rotation/cross": joinChainRow([]string{"rk"}, []string{"tk"}, "", config{}, wantPlans("Out(J2(J1(R, S), T))", "Out(J1(J2(R, T), S))")),
	// A join key spanning both subtrees of the inner join blocks both forms.
	"rotation/blocked": joinChainRow([]string{"rk", "st"}, []string{"ta", "tb"}, "", config{}, wantPlans("Out(J2(J1(R, S), T))")),
	// Two Reduces reorder only with the all-or-none manual annotation
	// (KGPGroup), never via SCA-derived bounds.
	"reduce-reduce/sca":         reduceReduceRow(false, "Out(R2(R1(S)))"),
	"reduce-reduce/all-or-none": reduceReduceRow(true, "Out(R2(R1(S)))", "Out(R1(R2(S)))"),
	// A filter reorders with a Reduce only on the grouping key (Theorem 2).
	"map-reduce/key":   mapReduceRow("k", "Out(R(M(S)))", "Out(M(R(S)))"),
	"map-reduce/value": mapReduceRow("v", "Out(R(M(S)))"),
	// Below a CoGroup a Map needs confinement and KGP (the tagged-union
	// argument, Section 4.3.2): a filter on the grouping key descends, one
	// on another field of the same side does not.
	"cogroup/key":   coGroupRow("lk", "Out(M(CG(L, R)))", "Out(CG(M(L), R))"),
	"cogroup/value": coGroupRow("lv", "Out(M(CG(L, R)))"),
	// A Map that adds an attribute stays above a Reduce that projects its
	// input to the key and an aggregate: below it, the Reduce would drop
	// the attribute. ROC holds only in the written order.
	"projection/adds": func(testing.TB) row {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"k", "v"}, hints{Records: 100, AvgWidthBytes: 18})
		sum, added := f.DeclareAttr("sum"), f.DeclareAttr("added")
		r := f.Reduce("R", udf("idr"), []string{"k"}, src, hints{})
		f.SetSink("Out", chain(f, r, "M", mapEffect([]int{f.Attr("k")}, []int{added})))
		e := aggregateEffect(f.Attr("v"), sum)
		e.CopiesParam[0], e.Copies = false, props.NewFieldSet(f.Attr("k"))
		r.SetEffect(e)
		return row{flow: f, check: wantPlans("Out(M1(R(S)))")}
	},
	// Theorem 3: a Map confined to one side passes a Cartesian product
	// without any KGP requirement.
	"cross": func(testing.TB) row {
		f := dataflow.NewFlow()
		l := f.Source("L", []string{"la"}, hints{Records: 50, AvgWidthBytes: 9})
		r := f.Source("R", []string{"ra"}, hints{Records: 50, AvgWidthBytes: 9})
		cr := f.Cross("X", udf("idj"), l, r, hints{})
		m := f.Map("M", udf("id"), cr, hints{Selectivity: 0.2})
		f.SetSink("Out", m)
		cr.SetEffect(concatJoinEffect())
		m.SetEffect(filterEffect(f.Attr("ra")))
		return row{flow: f, check: wantPlans("Out(M(X(L, R)))", "Out(X(L, M(R)))")}
	},
	// Four freely reorderable Maps: 4! plans, each expanded once.
	"factorial": factorialRow(config{}, func(t *testing.T, x *cell) {
		e := NewEnumerator()
		if n := len(e.Enumerate(x.tree(t))); n != 24 || e.Stats.Expanded != 24 || e.Stats.MemoHits == 0 {
			t.Errorf("%d plans, %d expanded, %d memo hits; want 24, 24 and some", n, e.Stats.Expanded, e.Stats.MemoHits)
		}
	}),
	// The stats count per distinct sub-flow. A chain over k of the four Maps
	// exists once per k-subset ordering: Σ 4!/(4-k)! = 64 Map-rooted
	// sub-flows, plus the source and 24 sinks. Every Map-rooted sub-flow of
	// depth ≥ 2 swaps its top two Maps once: 64 minus the 4 single-Map
	// chains (per plan it used to be 24 × 3). The ranking keeps one
	// candidate per sub-flow, all unpartitioned.
	"factorial/stats": factorialRow(config{dop: 2}, func(t *testing.T, x *cell) {
		e := NewEnumerator()
		e.Enumerate(x.tree(t))
		want := EnumStats{Expanded: 24, MemoHits: e.Stats.MemoHits, Exchanges: 60, Subflows: 89}
		if e.Stats != want {
			t.Errorf("stats %+v, want %+v", e.Stats, want)
		}
		want.Kept = 89
		ranked := x.ranked(t)
		if ranked[0].Enum == nil || ranked[0].Enum != ranked[23].Enum || *ranked[0].Enum != want {
			t.Errorf("RankedPlan.Enum = %+v, want %+v on every plan", ranked[0].Enum, want)
		}
	}),
	// A flow with more operators than the node key has bits for is an error
	// from FromFlow, not a panic later in the table.
	"past-node-key": func(testing.TB) row {
		f := dataflow.NewFlow()
		prev := f.Source("S", []string{"a"}, hints{Records: 1})
		for i := 1; i < maxOps; i++ {
			prev = f.Map("M", udf("id"), prev, hints{})
			prev.SetEffect(mapEffect(nil, nil))
		}
		f.SetSink("Out", prev)
		return row{flow: f, refuse: "operators"}
	},
	// Two filters with identical hints and effects commute at exactly the
	// same cost: Plan ranks the smaller canonical key first and Best picks
	// it, whichever order the flow was written in.
	"tie/written": tieRow(false),
	"tie/swapped": tieRow(true),

	// Cardinality: an FK join yields the FK side's records.
	"fk-join": func(testing.TB) row {
		f := dataflow.NewFlow()
		s := f.Source("S", []string{"sk"}, hints{Records: 100, AvgWidthBytes: 9})
		l := f.Source("L", []string{"lk", "lv"}, hints{Records: 5000, AvgWidthBytes: 18})
		j := f.Match("J", udf("idj"), []string{"sk"}, []string{"lk"}, s, l, hints{})
		j.FKSide = dataflow.FKRight
		j.SetEffect(concatJoinEffect())
		f.SetSink("Out", j)
		return row{flow: f, check: func(t *testing.T, x *cell) {
			if got := NewEstimator(x.flow).Records(x.tree(t)); got != 5000 {
				t.Errorf("FK join cardinality = %g, want 5000 (FK side)", got)
			}
		}}
	},
	// Section 7.3's Q15 discussion: with the Reduce below the Match on the
	// same key, the Match reuses the Reduce's partitioning (forward).
	"partition-reuse": reuseRow(func(t *testing.T, x *cell) {
		plan := x.phys(t, x.at)
		match := node(t, plan, "J")
		if i := slices.IndexFunc(match.Inputs, func(in *PhysPlan) bool { return in.Op.Name == "R" }); i < 0 || match.Ship[i] != ShipForward {
			t.Errorf("the reduce side does not ship forward (interesting property reuse):\n%s", plan.Indent())
		}
	}),
	// Tracking interesting properties never yields a costlier plan.
	"props-ablation": reuseRow(func(t *testing.T, x *cell) {
		est := NewEstimator(x.flow)
		without := NewPhysicalOptimizer(est, 8)
		without.UseInterestingProps = false
		cw, cwo := NewPhysicalOptimizer(est, 8).Optimize(x.tree(t)).Cost.Total(), without.Optimize(x.tree(t)).Cost.Total()
		if cw > cwo {
			t.Errorf("interesting properties made the plan worse: %g > %g", cw, cwo)
		}
	}),
	// Memoizing sub-flow plans across alternatives (Section 6), within one
	// ranking or over repeated Optimize calls on one optimizer, changes no
	// plan's cost, to the bit.
	"shared-subplans": joinChainRow([]string{"st"}, []string{"tk"}, "st", config{dop: 4}, func(t *testing.T, x *cell) {
		if n := len(NewEnumerator().Enumerate(x.tree(t))); n < 3 {
			t.Fatalf("need a multi-plan space, got %d", n)
		}
		x.checkReference(t, 0)
		x.checkShared(t)
	}),

	// A shuffled Reduce with a safe combiner is annotated Combinable, and
	// the plan renders it.
	"combine/sumV": combineRow("sumV", func(t *testing.T, x *cell) {
		red := node(t, x.phys(t, x.at), "R")
		if red.Ship[0] != ShipPartition || !red.Combinable {
			t.Fatalf("reduce ships %s, combinable %v; want partition, combinable", red.Ship[0], red.Combinable)
		}
		if got := red.String(); got != "R{partition;hash-group;combine}" {
			t.Errorf("plan rendering %q lacks the ;combine suffix", got)
		}
	}),
	// Combiners that write the grouping key or do not emit exactly one
	// record per group are never annotated, nor is a Reduce without one.
	"combine/keyWriter": combineRow("keyWriter", uncombined),
	"combine/maybeEmit": combineRow("maybeEmit", uncombined),
	"combine/none":      combineRow("", uncombined),
	// With many records per key, the combinable plan's estimated shuffle
	// undercuts the same flow's without a combiner.
	"combine/cheaper": combineRow("sumV", func(t *testing.T, x *cell) {
		with, without := x.phys(t, x.at), physOf(t, combineRow("", nil)(t).flow, x.at)
		if with.Cost.Net >= without.Cost.Net {
			t.Errorf("combined plan nets %.0f bytes, plain plan %.0f: no estimated shuffle reduction", with.Cost.Net, without.Cost.Net)
		}
	}),
	// When a partitioning already co-locates the keys, the shuffle and with
	// it the combining disappear.
	"combine/forward": func(t testing.TB) row {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"k", "v"}, hints{Records: 100000, AvgWidthBytes: 18})
		sum := udf("sumV")
		r1 := f.Reduce("R1", sum, []string{"k"}, src, hints{KeyCardinality: 50})
		r2 := f.Reduce("R2", sum, []string{"k"}, r1, hints{KeyCardinality: 50})
		r2.SetCombiner(sum)
		f.SetSink("out", r2)
		derive(t, f)
		return row{flow: f, at: config{dop: 8}, check: func(t *testing.T, x *cell) {
			if r2 := node(t, x.phys(t, x.at), "R2"); r2.Ship[0] != ShipForward || r2.Combinable {
				t.Errorf("R2 ships %s, combinable %v; want forward (interesting-property reuse), not combinable", r2.Ship[0], r2.Combinable)
			}
		}}
	},

	// A budget below the shuffled volume (~1e6 records × ~22 B) adds a disk
	// term at the operator; a budget above it, or none, leaves the cost.
	"spill/reduce": wordcountRow(false, spillTerm("wc")),
	"spill/join":   joinCostRow(15000, 12000, config{dop: 8, budget: 64 << 10}, spillTerm("J")),
	// A Cross's broadcast build side is charged on its replicated volume.
	"spill/cross": func(t testing.TB) row {
		f := dataflow.NewFlow()
		l := f.Source("L", []string{"a"}, hints{Records: 20000, AvgWidthBytes: 10})
		r := f.Source("R", []string{"b"}, hints{Records: 5000, AvgWidthBytes: 10})
		f.SetSink("out", f.Cross("X", udf("pair"), l, r, hints{}))
		derive(t, f)
		return row{flow: f, at: config{dop: 8, budget: 32 << 10}, check: spillTerm("X")}
	},
	// A tight budget widens the combinable plan's advantage: the combined
	// stream fits where the raw stream spills.
	"spill/combinable": wordcountRow(true, func(t *testing.T, x *cell) {
		free, plain := config{dop: 8}, wordcountRow(false, nil)(t).flow
		if n := node(t, x.phys(t, free), "wc"); !n.Combinable {
			t.Fatal("the combiner flow's plan is not Combinable")
		}
		cost := func(f *dataflow.Flow, c config) float64 { return physOf(t, f, c).Cost.Total() }
		if a, b := cost(plain, free)-cost(x.flow, free), cost(plain, x.at)-cost(x.flow, x.at); b <= a {
			t.Errorf("tight budget did not widen the combinable advantage: free %g, tight %g", a, b)
		}
	}),
	// DOP 8, ~24 B/record: L ≈ 360 KB, R ≈ 60 KB. Repartitioning ships
	// ≈ 420 KB, broadcasting ≈ 480 KB, so it wins unbudgeted; under 480 KB
	// the broadcast build side (60 KB × 8) just fits while repartitioning
	// spills L (360 KB > the 240 KB per-side share).
	"spill/steer": joinCostRow(15000, 2500, config{dop: 8, budget: 480_000}, steers(config{dop: 8})),
	// L ≈ R ≈ 24 KB: repartitioning's 48 KB beats broadcasting's 192 KB on
	// bytes, but a 10 ms round trip charges each shuffle barrier 1.25e6
	// reference bytes, two for the co-partitioned join and one for the
	// broadcast, so the measured profile flips the strategy.
	"net/latency": joinCostRow(1000, 1000, config{dop: 8, net: NetProfile{BytesPerSec: ReferenceNetBytesPerSec, LatencySec: 0.010}},
		steers(config{dop: 8, net: NetProfile{BytesPerSec: ReferenceNetBytesPerSec}})),
	// An unmeasured profile ranks exactly as a budget-only optimizer costs
	// each alternative, fresh or reused.
	"net/zero": joinCostRow(15000, 2500, config{dop: 8, budget: 64 << 10}, func(t *testing.T, x *cell) {
		x.checkReference(t, 0)
		x.checkShared(t)
	}),
}

// wantPlans: the enumeration under the cell's rules is exactly these plans.
func wantPlans(want ...string) func(*testing.T, *cell) {
	slices.Sort(want)
	return func(t *testing.T, x *cell) {
		got := x.plans(t)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("enumerated %v, want %v", got, want)
		}
	}
}

// wantCount: the enumeration under the cell's rules has n plans.
func wantCount(n int) func(*testing.T, *cell) {
	return func(t *testing.T, x *cell) {
		if got := len(x.plans(t)); got != n {
			t.Errorf("%d plans, want %d", got, n)
		}
	}
}

// spillTerm: under the row's tight budget op carries a spill disk term
// beyond its inputs' and the plan costs more; a budget above the working
// set costs what no budget does.
func spillTerm(op string) func(*testing.T, *cell) {
	return func(t *testing.T, x *cell) {
		free, generous, tight := x.phys(t, config{dop: x.at.dop}), x.phys(t, config{dop: x.at.dop, budget: 1e9}), x.phys(t, x.at)
		if free.Cost.Disk == 0 {
			t.Fatalf("the source scans carry no disk cost:\n%s", free.Indent())
		}
		if generous.Cost.Total() != free.Cost.Total() {
			t.Errorf("a budget above the working set changed the cost: %g vs %g", generous.Cost.Total(), free.Cost.Total())
		}
		if tight.Cost.Total() <= free.Cost.Total() {
			t.Errorf("a tight budget did not add cost: tight %g, unlimited %g", tight.Cost.Total(), free.Cost.Total())
		}
		n, in := node(t, tight, op), 0.0
		for _, i := range n.Inputs {
			in += i.Cost.Disk
		}
		if n.Cost.Disk <= in {
			t.Errorf("tight-budget %s carries no spill disk cost:\n%s", op, tight.Indent())
		}
	}
}

// steers: at from the join repartitions both inputs, at the row's cell it
// broadcasts one.
func steers(from config) func(*testing.T, *cell) {
	return func(t *testing.T, x *cell) {
		if p := x.phys(t, from); slices.ContainsFunc(node(t, p, "J").Ship, func(s Shipping) bool { return s != ShipPartition }) {
			t.Fatalf("at %s the join does not repartition:\n%s", from, p.Indent())
		}
		if p := x.phys(t, x.at); !slices.Contains(node(t, p, "J").Ship, ShipBroadcast) {
			t.Errorf("at %s the join does not broadcast:\n%s", x.at, p.Indent())
		}
	}
}

// tieRow is Out(F2(F1(S))), or swapped Out(F1(F2(S))): two filters with
// the same hints and effects.
func tieRow(swap bool) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"a", "b"}, hints{Records: 1000, AvgWidthBytes: 18})
		h := hints{Selectivity: 0.5, CPUCostPerCall: 2}
		bottom, top := f.Map("F1", udf("id"), src, h), f.Map("F2", udf("id"), src, h)
		bottom.SetEffect(filterEffect(0))
		top.SetEffect(filterEffect(0))
		if swap {
			bottom, top = top, bottom
		}
		top.Inputs[0] = bottom
		f.SetSink("Out", top)
		return row{flow: f, at: config{dop: 4}, check: func(t *testing.T, x *cell) {
			ranked := x.ranked(t)
			if len(ranked) != 2 || ranked[0].Cost != ranked[1].Cost {
				t.Fatalf("want two alternatives of equal cost, got %d: %v", len(ranked), ranked)
			}
			checkOrder(t, x, ranked)
			if best := x.best(t); best.Tree.Key() != ranked[0].Tree.Key() {
				t.Errorf("Best picked %s, want the smaller key %s", best.Tree.Key(), ranked[0].Tree.Key())
			}
		}}
	}
}

// uncombined: the Reduce is not annotated Combinable.
func uncombined(t *testing.T, x *cell) {
	if node(t, x.phys(t, x.at), "R").Combinable {
		t.Errorf("%s: annotated Combinable", x)
	}
}

// chain appends a Map per effect above in, named prefix1, prefix2, ….
func chain(f *dataflow.Flow, in *dataflow.Operator, prefix string, effects ...*props.Effect) *dataflow.Operator {
	for i, e := range effects {
		in = f.Map(fmt.Sprintf("%s%d", prefix, i+1), udf("id"), in, hints{})
		in.SetEffect(e)
	}
	return in
}

// factorialRow is Out(M4(M3(M2(M1(S))))), each Map reading its own field.
func factorialRow(at config, check func(*testing.T, *cell)) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"a", "b", "c", "d"}, hints{Records: 10, AvgWidthBytes: 36})
		f.SetSink("Out", chain(f, src, "M", mapEffect([]int{0}, nil), mapEffect([]int{1}, nil), mapEffect([]int{2}, nil), mapEffect([]int{3}, nil)))
		return row{flow: f, at: at, check: check}
	}
}

// joinFilterRow is Out(M(J(R, S))), M a filter on filterAttr.
func joinFilterRow(filterAttr string, at config, check func(*testing.T, *cell)) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		r := f.Source("R", []string{"rk", "ra"}, hints{Records: 1000, AvgWidthBytes: 18})
		s := f.Source("S", []string{"sk", "sa"}, hints{Records: 1000, AvgWidthBytes: 18})
		j := f.Match("J", udf("idj"), []string{"rk"}, []string{"sk"}, r, s, hints{KeyCardinality: 100})
		m := f.Map("M", udf("id"), j, hints{Selectivity: 0.1})
		f.SetSink("Out", m)
		j.SetEffect(concatJoinEffect())
		m.SetEffect(filterEffect(f.Attr(filterAttr)))
		return row{flow: f, at: at, check: check}
	}
}

// invGroupRow is Out(R(J(supplier, lineitem))), R aggregating l_rev per
// reduceKey, the join's FK on fk; it enumerates exactly plans.
func invGroupRow(fk int, reduceKey string, plans ...string) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		s := f.Source("supplier", []string{"s_key"}, hints{Records: 100, AvgWidthBytes: 9})
		l := f.Source("lineitem", []string{"l_suppkey", "l_part", "l_rev"}, hints{Records: 1000, AvgWidthBytes: 27})
		j := f.Match("J", udf("idj"), []string{"s_key"}, []string{"l_suppkey"}, s, l, hints{KeyCardinality: 100})
		j.FKSide = fk
		total := f.DeclareAttr("total")
		red := f.Reduce("R", udf("idr"), []string{reduceKey}, j, hints{KeyCardinality: 100})
		f.SetSink("Out", red)
		j.SetEffect(concatJoinEffect())
		red.SetEffect(aggregateEffect(f.Attr("l_rev"), total))
		return row{flow: f, check: wantPlans(plans...)}
	}
}

// pkSideRow is Out(R(J(pk, fact))), the PK side dim or, joined, J0(dim,
// aux); it enumerates exactly plans.
func pkSideRow(joined bool, plans ...string) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		pk := f.Source("dim", []string{"d_key", "d_x"}, hints{Records: 100, AvgWidthBytes: 18})
		l := f.Source("fact", []string{"f_dim", "f_val"}, hints{Records: 1000, AvgWidthBytes: 18})
		total := f.DeclareAttr("total")
		if joined {
			aux := f.Source("aux", []string{"a_key"}, hints{Records: 100, AvgWidthBytes: 9})
			pk = f.Match("J0", udf("idj"), []string{"d_key"}, []string{"a_key"}, pk, aux, hints{})
			pk.SetEffect(concatJoinEffect())
		}
		j := f.Match("J", udf("idj"), []string{"d_key"}, []string{"f_dim"}, pk, l, hints{})
		j.FKSide = dataflow.FKRight
		j.SetEffect(concatJoinEffect())
		red := f.Reduce("R", udf("idr"), []string{"f_dim"}, j, hints{KeyCardinality: 100})
		red.SetEffect(aggregateEffect(f.Attr("f_val"), total))
		f.SetSink("Out", red)
		return row{flow: f, check: wantPlans(plans...)}
	}
}

// joinChainRow is Out(J2(J1(R, S), T)): J1 on rk = sk, J2 on j2Left =
// T's attributes tAttrs, and, if filterAttr is set, a filter on it above.
func joinChainRow(j2Left, tAttrs []string, filterAttr string, at config, check func(*testing.T, *cell)) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		r := f.Source("R", []string{"rk"}, hints{Records: 500, AvgWidthBytes: 9})
		s := f.Source("S", []string{"sk", "st"}, hints{Records: 500, AvgWidthBytes: 18})
		tt := f.Source("T", tAttrs, hints{Records: 500, AvgWidthBytes: float64(9 * len(tAttrs))})
		j1 := f.Match("J1", udf("idj"), []string{"rk"}, []string{"sk"}, r, s, hints{KeyCardinality: 100})
		root := f.Match("J2", udf("idj"), j2Left, tAttrs, j1, tt, hints{KeyCardinality: 100})
		j1.SetEffect(concatJoinEffect())
		root.SetEffect(concatJoinEffect())
		if filterAttr != "" {
			root = f.Map("M", udf("id"), root, hints{Selectivity: 0.3})
			root.SetEffect(filterEffect(f.Attr(filterAttr)))
		}
		f.SetSink("Out", root)
		return row{flow: f, at: at, check: check}
	}
}

// reduceReduceRow is Out(R2(R1(S))), both grouping on k and filtering on
// it; it enumerates exactly plans.
func reduceReduceRow(allOrNone bool, plans ...string) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"k", "a", "b"}, hints{Records: 100, AvgWidthBytes: 27})
		r1 := f.Reduce("R1", udf("idr"), []string{"k"}, src, hints{})
		r2 := f.Reduce("R2", udf("idr"), []string{"k"}, r1, hints{})
		f.SetSink("Out", r2)
		for _, r := range []struct {
			op   *dataflow.Operator
			read string
		}{{r1, "a"}, {r2, "b"}} {
			e := props.NewEffect(1)
			e.Reads = props.NewFieldSet(f.Attr(r.read))
			e.CondReads = props.NewFieldSet(f.Attr("k"))
			e.CopiesParam[0] = true
			e.EmitMin, e.EmitMax = 0, props.Unbounded
			e.AllOrNone = allOrNone
			r.op.SetEffect(e)
		}
		return row{flow: f, check: wantPlans(plans...)}
	}
}

// mapReduceRow is Out(R(M(S))), M a filter on filterAttr and R a sum per
// k; it enumerates exactly plans.
func mapReduceRow(filterAttr string, plans ...string) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"k", "v"}, hints{Records: 100, AvgWidthBytes: 18})
		m := f.Map("M", udf("id"), src, hints{})
		sum := f.DeclareAttr("sum")
		r := f.Reduce("R", udf("idr"), []string{"k"}, m, hints{})
		f.SetSink("Out", r)
		m.SetEffect(filterEffect(f.Attr(filterAttr)))
		r.SetEffect(aggregateEffect(f.Attr("v"), sum))
		return row{flow: f, check: wantPlans(plans...)}
	}
}

// coGroupRow is Out(M(CG(L, R))), M a filter on filterAttr; it enumerates
// exactly plans.
func coGroupRow(filterAttr string, plans ...string) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		l := f.Source("L", []string{"lk", "lv"}, hints{Records: 100, AvgWidthBytes: 18})
		r := f.Source("R", []string{"rk"}, hints{Records: 100, AvgWidthBytes: 9})
		cg := f.CoGroup("CG", udf("idcg"), []string{"lk"}, []string{"rk"}, l, r, hints{KeyCardinality: 10})
		m := f.Map("M", udf("id"), cg, hints{Selectivity: 0.5})
		f.SetSink("Out", m)
		e := props.NewEffect(2)
		e.CopiesParam[0] = true
		e.EmitMin, e.EmitMax = 0, 1
		e.CondReads = props.FieldSet{}
		cg.SetEffect(e)
		m.SetEffect(filterEffect(f.Attr(filterAttr)))
		return row{flow: f, check: wantPlans(plans...)}
	}
}

// reuseRow is Out(J(supplier, R(lineitem))), an FK join on the Reduce's
// key, checked at DOP 8.
func reuseRow(check func(*testing.T, *cell)) func(testing.TB) row {
	return func(testing.TB) row {
		f := dataflow.NewFlow()
		s := f.Source("supplier", []string{"s_key", "s_name"}, hints{Records: 100, AvgWidthBytes: 40})
		l := f.Source("lineitem", []string{"l_suppkey", "l_rev"}, hints{Records: 100000, AvgWidthBytes: 18})
		total := f.DeclareAttr("total")
		red := f.Reduce("R", udf("idr"), []string{"l_suppkey"}, l, hints{KeyCardinality: 100})
		j := f.Match("J", udf("idj"), []string{"s_key"}, []string{"l_suppkey"}, s, red, hints{KeyCardinality: 100})
		j.FKSide = dataflow.FKRight
		f.SetSink("Out", j)
		red.SetEffect(aggregateEffect(f.Attr("l_rev"), total))
		j.SetEffect(concatJoinEffect())
		return row{flow: f, at: config{dop: 8}, check: check}
	}
}

// combineRow is a sum Reduce over 100,000 records and 50 keys, with the
// named combiner, or none, checked at DOP 8.
func combineRow(combiner string, check func(*testing.T, *cell)) func(testing.TB) row {
	return func(t testing.TB) row {
		f := dataflow.NewFlow()
		src := f.Source("S", []string{"k", "v"}, hints{Records: 100000, AvgWidthBytes: 18})
		red := f.Reduce("R", udf("sumV"), []string{"k"}, src, hints{KeyCardinality: 50})
		if combiner != "" {
			red.SetCombiner(udf(combiner))
		}
		f.SetSink("out", red)
		derive(t, f)
		return row{flow: f, at: config{dop: 8}, check: check}
	}
}

// wordcountRow is a wordcount Reduce over 1e6 records and 100 keys,
// combinable or not, checked at DOP 8 under a 1e6-byte budget.
func wordcountRow(combinable bool, check func(*testing.T, *cell)) func(testing.TB) row {
	return func(t testing.TB) row {
		f := dataflow.NewFlow()
		src := f.Source("words", []string{"word", "n"}, hints{Records: 1e6, AvgWidthBytes: 20})
		red := f.Reduce("wc", udf("sumV"), []string{"word"}, src, hints{KeyCardinality: 100})
		if combinable {
			red.SetCombiner(udf("sumV"))
		}
		f.SetSink("out", red)
		derive(t, f)
		return row{flow: f, at: config{dop: 8, budget: 1e6}, check: check}
	}
}

// joinCostRow is L ⋈ R with the given record counts (two 10-byte
// attributes per side: ~24 estimated bytes per record).
func joinCostRow(lRecs, rRecs float64, at config, check func(*testing.T, *cell)) func(testing.TB) row {
	return func(t testing.TB) row {
		f := dataflow.NewFlow()
		l := f.Source("L", []string{"lk", "lv"}, hints{Records: lRecs, AvgWidthBytes: 20})
		r := f.Source("R", []string{"rk", "rv"}, hints{Records: rRecs, AvgWidthBytes: 20})
		f.SetSink("out", f.Match("J", udf("idj"), []string{"lk"}, []string{"rk"}, l, r, hints{KeyCardinality: 1000}))
		derive(t, f)
		return row{flow: f, at: at, check: check}
	}
}

// derive derives the flow's effects by static code analysis.
func derive(t testing.TB, f *dataflow.Flow) {
	if err := f.DeriveEffects(); err != nil {
		t.Fatal(err)
	}
}

// node is the plan node of the operator named name.
func node(t testing.TB, p *PhysPlan, name string) *PhysPlan {
	if p.Op.Name == name {
		return p
	}
	for _, in := range p.Inputs {
		if n := node(nil, in, name); n != nil {
			return n
		}
	}
	if t != nil {
		t.Fatalf("no %s in the plan:\n%s", name, p.Indent())
	}
	return nil
}

// mapEffect builds a manual Map annotation: reads r, writes w (as explicit
// sets), emits exactly one record, implicit copy.
func mapEffect(reads, writes []int) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = props.NewFieldSet(reads...)
	e.CondReads = props.FieldSet{}
	e.Sets = props.NewFieldSet(writes...)
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

// filterEffect builds a manual annotation for a filter Map on the given
// fields.
func filterEffect(condFields ...int) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = props.NewFieldSet(condFields...)
	e.CondReads = props.NewFieldSet(condFields...)
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 0, 1
	return e
}

// concatJoinEffect is a Match UDF that concatenates both inputs.
func concatJoinEffect() *props.Effect {
	e := props.NewEffect(2)
	e.CopiesParam[0] = true
	e.CopiesParam[1] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

// aggregateEffect is a Reduce UDF that copies a group member and appends an
// aggregate of aggField into newField.
func aggregateEffect(aggField, newField int) *props.Effect {
	e := props.NewEffect(1)
	e.Reads = props.NewFieldSet(aggField)
	e.CondReads = props.FieldSet{}
	e.Sets = props.NewFieldSet(newField)
	e.CopiesParam[0] = true
	e.EmitMin, e.EmitMax = 1, 1
	return e
}

// testUDFs: trivially valid bodies for operators whose behaviour manual
// annotations supply; an algebraic sum Reduce (usable as its own combiner),
// a Reduce that rewrites the grouping key and a filtering one (emits 0 or
// 1); and a Cartesian product's pairing.
var testUDFs = frontend.MustCompile(`
map id(ir) {
	emit ir
}
match idj(l, r) {
	o := concat(l, r)
	emit o
}
reduce idr(g) {
	r := g.at(0)
	emit r
}
cogroup idcg(g1, g2) {
	n := g1.size()
	if n != 0 {
		r := g1.at(0)
		emit r
	}
}
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
cross pair(l, r) {
	o := concat(l, r)
	emit o
}
`)

func udf(name string) *tac.Func {
	f, ok := testUDFs.Lookup(name)
	if !ok {
		panic("missing test udf " + name)
	}
	return f
}

// genRow is randomFlow's row for seed, with the cell the seed draws after
// the flow: the rule set (every rule unless seed%3 == 0) and the budget from
// one draw, then the profile and the DOP.
func genRow(seed int64) row {
	rng := rand.New(rand.NewSource(seed))
	f := randomFlow(rng)
	v := rng.Intn(8)
	c := config{rules: AllRules(), budget: []float64{0, 64 << 10}[v&1]}
	if seed%3 == 0 {
		c.rules = ruleSets()[v]
	}
	c.net = []NetProfile{{}, tcpLike}[rng.Intn(2)]
	c.dop = 1 + rng.Intn(8)
	return row{name: fmt.Sprintf("seed=%d", seed), flow: f, own: &c}
}

// fuzzRow is randomFlow's row for seed with the cell the fuzzer drew: a DOP
// in 1–8, a budget in bytes (0 = unlimited), whether the transport is
// measured, and a rule set.
func fuzzRow(seed int64, dop uint8, budget uint32, measured bool, rules uint8) row {
	c := config{dop: 1 + int(dop%8), budget: float64(budget), rules: ruleSets()[rules%8]}
	if measured {
		c.net = tcpLike
	}
	return row{name: fmt.Sprintf("seed=%d", seed), flow: randomFlow(rand.New(rand.NewSource(seed))), own: &c}
}

// fuzzSeeds passes FuzzRankerDifferential's seed corpus to add.
func fuzzSeeds(add func(seed int64, dop uint8, budget uint32, measured bool, rules uint8)) {
	for seed := int64(1); seed <= 8; seed++ {
		add(seed, uint8(seed), uint32(seed%2)*64<<10, seed%3 == 0, uint8(seed))
	}
}

// seeds names the generated rows of seeds 1…n.
func seeds(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("seed=%d", i+1)
	}
	return out
}

// randomFlow builds a small random flow mixing all five second-order
// functions, with random (manual) effects sparse enough that a good share
// of operator pairs commute. The flows need not compute anything sensible:
// enumeration only looks at effects, keys and shapes.
func randomFlow(rng *rand.Rand) *dataflow.Flow {
	f := dataflow.NewFlow()
	type open struct {
		op    *dataflow.Operator
		attrs []string
	}
	var opens []open
	nAttr := 0
	newAttr := func() string {
		nAttr++
		return fmt.Sprintf("a%d", nAttr)
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		attrs := []string{newAttr(), newAttr()}
		if rng.Intn(2) == 0 {
			attrs = append(attrs, newAttr())
		}
		src := f.Source(fmt.Sprintf("S%d", i), attrs, hints{
			Records: float64(10 + rng.Intn(100000)), AvgWidthBytes: float64(9 * len(attrs))})
		opens = append(opens, open{src, attrs})
	}
	pick := func(attrs []string, n int) []string {
		out := make([]string, 0, n)
		for _, i := range rng.Perm(len(attrs))[:n] {
			out = append(out, attrs[i])
		}
		return out
	}
	idx := func(names []string) props.FieldSet {
		var s props.FieldSet
		for _, n := range names {
			s.Add(f.Attr(n))
		}
		return s
	}
	emit := func(e *props.Effect) {
		switch rng.Intn(4) {
		case 0:
			e.EmitMin, e.EmitMax = 0, 1
		case 1:
			e.EmitMin, e.EmitMax = 0, props.Unbounded
		default:
			e.EmitMin, e.EmitMax = 1, 1
		}
	}
	opHints := func() hints {
		return hints{Selectivity: []float64{0, 0.1, 0.5, 1}[rng.Intn(4)],
			KeyCardinality: []float64{0, 10, 1000}[rng.Intn(3)], CPUCostPerCall: float64(rng.Intn(5))}
	}
	unary := 1 + rng.Intn(4)
	for step := 0; unary > 0 || len(opens) > 1; step++ {
		name := fmt.Sprintf("O%d", step)
		if len(opens) > 1 && (unary == 0 || rng.Intn(2) == 0) {
			// Binary operator over two open sub-flows.
			i, j := rng.Intn(len(opens)), rng.Intn(len(opens)-1)
			if j >= i {
				j++
			}
			l, r := opens[i], opens[j]
			e := props.NewEffect(2)
			e.CopiesParam[0], e.CopiesParam[1] = true, true
			emit(e)
			if rng.Intn(3) == 0 {
				e.Reads = idx(pick(l.attrs, 1))
				e.CondReads = e.Reads.Clone()
			}
			var op *dataflow.Operator
			switch rng.Intn(4) {
			case 0:
				op = f.Cross(name, udf("idj"), l.op, r.op, opHints())
			case 1:
				op = f.CoGroup(name, udf("idcg"), pick(l.attrs, 1), pick(r.attrs, 1), l.op, r.op, opHints())
			default:
				op = f.Match(name, udf("idj"), pick(l.attrs, 1), pick(r.attrs, 1), l.op, r.op, opHints())
				op.FKSide = []int{dataflow.FKNone, dataflow.FKLeft, dataflow.FKRight}[rng.Intn(3)]
			}
			op.SetEffect(e)
			merged := open{op, append(append([]string(nil), l.attrs...), r.attrs...)}
			if i < j {
				i, j = j, i
			}
			opens = append(opens[:i], opens[i+1:]...)
			opens = append(opens[:j], opens[j+1:]...)
			opens = append(opens, merged)
			continue
		}
		unary--
		i := rng.Intn(len(opens))
		in := opens[i]
		e := props.NewEffect(1)
		e.Reads = idx(pick(in.attrs, rng.Intn(2)))
		if rng.Intn(2) == 0 {
			e.CondReads = e.Reads.Clone()
		}
		out := in.attrs
		if rng.Intn(3) == 0 { // a Reduce
			key := pick(in.attrs, 1+rng.Intn(min(2, len(in.attrs))))
			op := f.Reduce(name, udf("idr"), key, in.op, opHints())
			e.AllOrNone = rng.Intn(2) == 0
			e.EmitMin, e.EmitMax = 1, 1
			if rng.Intn(2) == 0 {
				// Default-constructor aggregate: keeps the key, adds one
				// attribute, implicitly projects the rest.
				added := newAttr()
				f.DeclareAttr(added)
				e.Copies = idx(key)
				e.Sets = idx([]string{added})
				out = append(append([]string(nil), key...), added)
			} else {
				e.CopiesParam[0] = true
			}
			op.SetEffect(e)
			opens[i] = open{op, out}
			continue
		}
		op := f.Map(name, udf("id"), in.op, opHints())
		e.CopiesParam[0] = true
		emit(e)
		switch rng.Intn(3) {
		case 0: // modifies an existing attribute
			e.Sets = idx(pick(in.attrs, 1))
		case 1: // adds a new one
			added := newAttr()
			f.DeclareAttr(added)
			e.Sets = idx([]string{added})
			out = append(append([]string(nil), in.attrs...), added)
		}
		op.SetEffect(e)
		opens[i] = open{op, out}
	}
	f.SetSink("Out", opens[0].op)
	return f
}

// treeStrings renders plans as Tree.String does.
func treeStrings(alts []*Tree) []string {
	out := make([]string, len(alts))
	for i, a := range alts {
		out[i] = a.String()
	}
	return out
}
