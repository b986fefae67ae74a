package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/props"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// paperFlow is one of the paper's evaluation flows and the size of its plan
// space (Table 1).
type paperFlow struct {
	name  string
	flow  *dataflow.Flow
	plans int
}

// paperFlows builds the four evaluation workloads (clickstream in both
// annotation modes: SCA's dynamic field access costs it one rotation).
func paperFlows(t testing.TB) []paperFlow {
	t.Helper()
	q7, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	q15, err := tpch.BuildQ15(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	clicksManual, err := clickstream.Build(clickstream.ModeManual, clickstream.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	clicksSCA, err := clickstream.Build(clickstream.ModeSCA, clickstream.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	text, err := textmine.Build(textmine.ModeSCA, textmine.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	return []paperFlow{
		{"q7", q7.Flow, 442},
		{"q15", q15.Flow, 3},
		{"clickstream-manual", clicksManual.Flow, 4},
		{"clickstream-sca", clicksSCA.Flow, 3},
		{"textmine", text.Flow, 24},
	}
}

func mustTree(t testing.TB, f *dataflow.Flow) *Tree {
	t.Helper()
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func treeKeys(alts []*Tree) []string {
	out := make([]string, len(alts))
	for i, a := range alts {
		out[i] = a.Key()
	}
	return out
}

// allRuleSets is every ablation of the three rule families.
func allRuleSets() []*RuleSet {
	var out []*RuleSet
	for m := 0; m < 8; m++ {
		out = append(out, &RuleSet{UnaryUnary: m&1 != 0, UnaryBinary: m&2 != 0, Rotations: m&4 != 0})
	}
	return out
}

// checkEnumeratorAgainstReference enumerates f with the production
// enumerator and the frozen reference and requires the same plans in the
// same order, and the same plan-level effort.
func checkEnumeratorAgainstReference(t *testing.T, label string, f *dataflow.Flow, rules *RuleSet) []*Tree {
	t.Helper()
	want, wantStats := refEnumerate(mustTree(t, f), rules)
	e := &Enumerator{Rules: rules}
	got := e.Enumerate(mustTree(t, f))
	gk, wk := treeKeys(got), treeKeys(want)
	if fmt.Sprint(gk) != fmt.Sprint(wk) {
		t.Fatalf("%s %+v: enumerated %d plans, reference %d\n got %v\nwant %v", label, *rules, len(gk), len(wk), gk, wk)
	}
	if e.Stats.Expanded != wantStats.Expanded || e.Stats.MemoHits != wantStats.MemoHits {
		t.Errorf("%s %+v: expanded/memo-hits %d/%d, reference %d/%d", label, *rules,
			e.Stats.Expanded, e.Stats.MemoHits, wantStats.Expanded, wantStats.MemoHits)
	}
	// Hash-consing: the alternatives are a DAG over Stats.Subflows nodes at
	// most, and no two distinct nodes are structurally equal.
	byKey := map[string]*Tree{}
	var walk func(n *Tree)
	walk = func(n *Tree) {
		if prev, ok := byKey[n.Key()]; ok {
			if prev != n {
				t.Fatalf("%s: sub-flow %s exists as two nodes", label, n.Key())
			}
			return
		}
		byKey[n.Key()] = n
		for _, k := range n.Kids {
			walk(k)
		}
	}
	for _, a := range got {
		walk(a)
	}
	if len(byKey) > e.Stats.Subflows {
		t.Errorf("%s: %d distinct sub-flows in the result, Stats.Subflows = %d", label, len(byKey), e.Stats.Subflows)
	}
	return got
}

// TestEnumeratorMatchesReferenceOnPaperWorkloads: identical plan sets on
// the four evaluation workloads under every rule ablation, and the pinned
// Table 1 sizes with all rules on.
func TestEnumeratorMatchesReferenceOnPaperWorkloads(t *testing.T) {
	for _, pf := range paperFlows(t) {
		for _, rules := range allRuleSets() {
			got := checkEnumeratorAgainstReference(t, pf.name, pf.flow, rules)
			if *rules == *AllRules() && len(got) != pf.plans {
				t.Errorf("%s: %d plans, want %d", pf.name, len(got), pf.plans)
			}
		}
	}
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
		src := f.Source(fmt.Sprintf("S%d", i), attrs, dataflow.Hints{
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
	hints := func() dataflow.Hints {
		return dataflow.Hints{Selectivity: []float64{0, 0.1, 0.5, 1}[rng.Intn(4)],
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
				op = f.Cross(name, udf("idj"), l.op, r.op, hints())
			case 1:
				op = f.CoGroup(name, udf("idcg"), pick(l.attrs, 1), pick(r.attrs, 1), l.op, r.op, hints())
			default:
				op = f.Match(name, udf("idj"), pick(l.attrs, 1), pick(r.attrs, 1), l.op, r.op, hints())
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
			op := f.Reduce(name, udf("idr"), key, in.op, hints())
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
		op := f.Map(name, udf("id"), in.op, hints())
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

// TestEnumeratorMatchesReferenceOnRandomFlows: 250 seeded random flows
// under a rule ablation drawn per seed.
func TestEnumeratorMatchesReferenceOnRandomFlows(t *testing.T) {
	rules := allRuleSets()
	multi := 0
	for seed := int64(1); seed <= 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomFlow(rng)
		rs := AllRules()
		if seed%3 == 0 {
			rs = rules[rng.Intn(len(rules))]
		}
		if len(checkEnumeratorAgainstReference(t, fmt.Sprintf("seed %d", seed), f, rs)) > 1 {
			multi++
		}
	}
	if multi < 50 {
		t.Errorf("only %d of 250 random flows had more than one plan: the generator no longer exercises the rules", multi)
	}
}

// tcpLike is a measured-transport profile of the order BENCH_net.json
// records for TCP loopback.
var tcpLike = NetProfile{BytesPerSec: 36e6, LatencySec: 250e-6}

// checkRankerAgainstReference requires RankAllNet and the reference ranker
// to agree on the plan set, on every plan's cost to 1e-9 relative, and on
// the rank-1 plan.
func checkRankerAgainstReference(t *testing.T, label string, f *dataflow.Flow, dop int, budget float64, net NetProfile) {
	t.Helper()
	got := RankAllNet(mustTree(t, f), NewEstimator(f), dop, budget, net)
	want := refRank(mustTree(t, f), f, dop, budget, net)
	if len(got) != len(want) {
		t.Fatalf("%s: ranked %d plans, reference %d", label, len(got), len(want))
	}
	wantCost := map[string]float64{}
	for _, r := range want {
		wantCost[r.Tree.Key()] = r.Cost
	}
	for _, r := range got {
		w, ok := wantCost[r.Tree.Key()]
		if !ok {
			t.Fatalf("%s: plan %s not in the reference ranking", label, r.Tree.Key())
		}
		if math.Abs(r.Cost-w) > 1e-9*math.Max(math.Abs(w), 1) {
			t.Errorf("%s: plan %s costs %v, reference %v", label, r.Tree.Key(), r.Cost, w)
		}
	}
	if g, w := got[0].Tree.Key(), want[0].Tree.Key(); g != w {
		t.Errorf("%s: rank-1 plan %s (%v), reference %s (%v)", label, g, got[0].Cost, w, want[0].Cost)
	}
}

// TestRankerMatchesReference covers the paper workloads under budget
// {0, 64 KiB} × profile {unmeasured, TCP-like}, and a sample of the random
// flows.
func TestRankerMatchesReference(t *testing.T) {
	for _, pf := range paperFlows(t) {
		for _, budget := range []float64{0, 64 << 10} {
			for _, net := range []NetProfile{{}, tcpLike} {
				label := fmt.Sprintf("%s budget=%g net=%+v", pf.name, budget, net)
				checkRankerAgainstReference(t, label, pf.flow, 4, budget, net)
			}
		}
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomFlow(rng)
		budget := []float64{0, 64 << 10}[rng.Intn(2)]
		net := []NetProfile{{}, tcpLike}[rng.Intn(2)]
		checkRankerAgainstReference(t, fmt.Sprintf("seed %d", seed), f, 1+rng.Intn(8), budget, net)
	}
}

// rankingFingerprint is the full observable outcome of a ranking: every
// plan's key and the exact bits of its cost, in rank order.
func rankingFingerprint(ranked []RankedPlan) string {
	s := ""
	for _, r := range ranked {
		s += fmt.Sprintf("%s=%016x;", r.Tree.Key(), math.Float64bits(r.Cost))
	}
	return s
}

// TestRankAllReproducible: rankings are bit-identical from call to call.
// They were not while record widths were summed in map-iteration order:
// near-tied plans traded places between runs.
func TestRankAllReproducible(t *testing.T) {
	for _, pf := range paperFlows(t) {
		var first string
		for i := 0; i < 20; i++ {
			fp := rankingFingerprint(RankAllNet(mustTree(t, pf.flow), NewEstimator(pf.flow), 4, 64<<10, tcpLike))
			if i == 0 {
				first = fp
			} else if fp != first {
				t.Fatalf("%s: run %d ranked differently from run 0", pf.name, i)
			}
		}
	}
}

// TestRankAllSharedFlowConcurrent: jobs submitting the same document share
// one cached *dataflow.Flow; concurrent rankings over it must neither race
// (run under -race) nor disagree.
func TestRankAllSharedFlowConcurrent(t *testing.T) {
	q7, err := tpch.BuildQ7(tpch.ModeSCA, tpch.DefaultGen())
	if err != nil {
		t.Fatal(err)
	}
	want := rankingFingerprint(RankAllNet(mustTree(t, q7.Flow), NewEstimator(q7.Flow), 2, 0, NetProfile{}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tree, err := FromFlow(q7.Flow)
			if err != nil {
				t.Error(err)
				return
			}
			if got := rankingFingerprint(RankAllNet(tree, NewEstimator(q7.Flow), 2, 0, NetProfile{})); got != want {
				t.Error("concurrent ranking over a shared flow differs from the serial one")
			}
		}()
	}
	wg.Wait()
}

// TestEnumStatsCountPerSubflow pins what the stats mean now that
// neighbours are derived once per distinct sub-flow.
func TestEnumStatsCountPerSubflow(t *testing.T) {
	// Src → M1 → M2 → M3 → M4, all commuting: 24 plans. A chain over k of
	// the four Maps exists once per k-subset ordering: Σ 4!/(4-k)! = 64
	// Map-rooted sub-flows, plus the source and 24 sinks.
	f := dataflow.NewFlow()
	prev := f.Source("S", []string{"a", "b", "c", "d"}, dataflow.Hints{Records: 10, AvgWidthBytes: 36})
	for i, n := range []string{"M1", "M2", "M3", "M4"} {
		m := f.Map(n, udf("id"), prev, dataflow.Hints{})
		m.SetEffect(mapEffect([]int{i}, nil))
		prev = m
	}
	f.SetSink("Out", prev)
	e := NewEnumerator()
	if n := len(e.Enumerate(mustTree(t, f))); n != 24 {
		t.Fatalf("%d plans, want 24", n)
	}
	if e.Stats.Subflows != 1+64+24 {
		t.Errorf("Subflows = %d, want 89", e.Stats.Subflows)
	}
	// Every Map-rooted sub-flow of depth ≥ 2 swaps its top two Maps once:
	// 64 minus the 4 single-Map chains. Per plan it used to be 24 × 3.
	if e.Stats.Exchanges != 60 {
		t.Errorf("Exchanges = %d, want 60 (once per distinct sub-flow)", e.Stats.Exchanges)
	}
	ranked := RankAllNet(mustTree(t, f), NewEstimator(f), 2, 0, NetProfile{})
	if ranked[0].Enum == nil || ranked[0].Enum != ranked[23].Enum || *ranked[0].Enum != e.Stats {
		t.Errorf("RankedPlan.Enum = %+v, want the enumeration's stats %+v on every plan", ranked[0].Enum, e.Stats)
	}
}
