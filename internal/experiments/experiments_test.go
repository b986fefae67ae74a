package experiments

import (
	"strings"
	"testing"
	"time"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// TestTable1MatchesPaperShape verifies the central Table 1 claim: SCA
// recovers 100% of the manually annotated orders for Q7, Q15, and text
// mining, and 75% (3 of 4) for the clickstream task.
func TestTable1MatchesPaperShape(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	byTask := map[string]Table1Row{}
	for _, r := range res.Rows {
		byTask[r.Task] = r
	}
	cs := byTask["Clickstream"]
	if cs.Manual != 4 || cs.SCA != 3 {
		t.Errorf("clickstream = %d/%d, want 4/3", cs.Manual, cs.SCA)
	}
	for _, task := range []string{"TPC-H Q7", "TPC-H Q15", "Text Mining"} {
		r := byTask[task]
		if r.Manual != r.SCA {
			t.Errorf("%s: SCA %d != manual %d", task, r.SCA, r.Manual)
		}
		if r.Percent != 100 {
			t.Errorf("%s percent = %v", task, r.Percent)
		}
	}
	tm := byTask["Text Mining"]
	if tm.Manual != 24 {
		t.Errorf("text mining orders = %d, want 24", tm.Manual)
	}
	if !strings.Contains(res.String(), "75%") {
		t.Errorf("rendering missing 75%%:\n%s", res)
	}
}

// TestEnumerationTimes: all four tasks enumerate well under the paper's
// 1654 ms bound.
func TestEnumerationTimes(t *testing.T) {
	rows, err := EnumTimes()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Duration > 1654*time.Millisecond {
			t.Errorf("%s enumeration took %v, paper bound is 1654ms", r.Task, r.Duration)
		}
		if r.Plans < 3 {
			t.Errorf("%s plans = %d", r.Task, r.Plans)
		}
	}
}

// TestFig6SweepShape runs the text-mining sweep on a small corpus and
// checks the paper's qualitative claims: the best-ranked plan is also the
// fastest (or nearly), and the cost spread is large.
func TestFig6SweepShape(t *testing.T) {
	g := &textmine.GenParams{Docs: 120, WordsLo: 30, WordsHi: 90,
		GeneRate: 0.3, DrugRate: 0.4, HumanRate: 0.55, RelRate: 0.5, Seed: 2}
	res, err := Fig6TextMining(g, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPlans != 24 {
		t.Errorf("plans = %d, want 24", res.TotalPlans)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.Rank != 1 || last.Rank != 24 {
		t.Errorf("sweep must include best and worst ranks: %d..%d", first.Rank, last.Rank)
	}
	if last.NormCost < 2 {
		t.Errorf("cost spread too small: %.2f", last.NormCost)
	}
	if last.NormRuntime < 1.5 {
		t.Errorf("runtime spread too small: %.2f", last.NormRuntime)
	}
	// All plans agree on the result cardinality.
	for _, row := range res.Rows {
		if row.OutRecords != first.OutRecords {
			t.Errorf("rank %d records = %d, want %d", row.Rank, row.OutRecords, first.OutRecords)
		}
	}
}

// TestFig7SweepShape: four clickstream plans; the best plan is a strict
// improvement over the implemented flow.
func TestFig7SweepShape(t *testing.T) {
	g := &clickstream.GenParams{Sessions: 800, ClicksPerSess: 8, BuyRate: 0.12,
		LoginRate: 0.3, Users: 100, Seed: 4}
	res, err := Fig7Clickstream(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPlans != 4 {
		t.Errorf("plans = %d, want 4", res.TotalPlans)
	}
	if res.ImplementedRank == 1 {
		t.Error("implemented plan should not be optimal (Figure 7)")
	}
	if res.BestOverImplemented <= 1.0 {
		t.Errorf("best must beat implemented, factor = %.2f", res.BestOverImplemented)
	}
}

// TestFig5SweepSmall runs a reduced Q7 sweep end to end.
func TestFig5SweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running sweep")
	}
	g := &tpch.GenParams{SF: 0.3, Seed: 13}
	res, err := Fig5Q7(g, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPlans < 100 {
		t.Errorf("Q7 plan space = %d, want hundreds", res.TotalPlans)
	}
	for _, row := range res.Rows {
		if row.OutRecords != res.Rows[0].OutRecords {
			t.Errorf("rank %d records differ", row.Rank)
		}
	}
	if s := res.String(); !strings.Contains(s, "rank") {
		t.Errorf("rendering broken: %s", s)
	}
}

// TestModelledNetworkTerm pins the interconnect model the sweeps apply to
// a run's statistics: an operator that shipped B bytes in less than
// B/DefaultNetBandwidth is charged the difference, once; an operator whose
// shipping already took that long, or that shipped nothing, is charged
// nothing.
func TestModelledNetworkTerm(t *testing.T) {
	const wall = 50 * time.Millisecond
	wire := func(bytes int) time.Duration {
		return time.Duration(float64(bytes) / DefaultNetBandwidth * float64(time.Second))
	}
	stats := &engine.RunStats{PerOp: []engine.OpStats{
		{Name: "source"},
		{Name: "fast", ShippedBytes: 1 << 20, ShipTime: 3 * time.Millisecond},
		{Name: "fast too", ShippedBytes: 1 << 19, ShipTime: time.Millisecond},
		{Name: "slower than the wire", ShippedBytes: 1 << 10, ShipTime: time.Second},
		{Name: "forward, fused chain", ShipTime: 5 * time.Millisecond},
	}}
	want := wall + (wire(1<<20) - 3*time.Millisecond) + (wire(1<<19) - time.Millisecond)
	if got := modelled(wall, stats); got != want {
		t.Errorf("modelled = %v, want %v", got, want)
	}
}

// TestModelledForwardOnlyPlan: a plan with no shipping edge — the
// text-mining Map pipeline — has nothing to charge, so its modelled runtime
// is its wall time.
func TestModelledForwardOnlyPlan(t *testing.T) {
	g := &textmine.GenParams{Docs: 40, WordsLo: 20, WordsHi: 40,
		GeneRate: 0.3, DrugRate: 0.4, HumanRate: 0.55, RelRate: 0.5, Seed: 2}
	task, err := textmine.Build(textmine.ModeSCA, g)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(task.Flow)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(4)
	for name, ds := range g.Generate(task.Flow) {
		e.AddSource(name, ds)
	}
	best := optimizer.RankAllNet(tree, optimizer.NewEstimator(task.Flow), 4, 0, optimizer.NetProfile{})[0]
	_, stats, err := e.Run(best.Phys)
	if err != nil {
		t.Fatal(err)
	}
	if n := stats.TotalShippedBytes(); n != 0 {
		t.Fatalf("text-mining plan shipped %d bytes, want a forward-only plan", n)
	}
	const wall = 123 * time.Millisecond
	if got := modelled(wall, stats); got != wall {
		t.Errorf("modelled = %v, want the wall time %v", got, wall)
	}
}

// TestQ15StrategiesNarrative: the Section 7.3 discussion — with the Reduce
// below the Match, the Match must reuse the Reduce's partitioning (forward
// shipping on that side).
func TestQ15StrategiesNarrative(t *testing.T) {
	s, err := Q15Strategies(tpch.DefaultGen(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "forward") {
		t.Errorf("expected partitioning reuse (forward shipping) in:\n%s", s)
	}
	if !strings.Contains(s, "join_s_l(supplier, agg_revenue(filter_quarter(lineitem)))") {
		t.Errorf("missing the implemented Q15 order in:\n%s", s)
	}
}

func TestPickRanks(t *testing.T) {
	got := pickRanks(100, 10)
	if got[0] != 0 || got[len(got)-1] != 99 {
		t.Errorf("picks must include first and last: %v", got)
	}
	if len(got) > 10 {
		t.Errorf("too many picks: %v", got)
	}
	all := pickRanks(3, 10)
	if len(all) != 3 {
		t.Errorf("small spaces must be fully picked: %v", all)
	}
	added := addPick([]int{0, 5}, 3)
	if len(added) != 3 || added[1] != 3 {
		t.Errorf("addPick = %v", added)
	}
	if got := addPick([]int{0, 3}, 3); len(got) != 2 {
		t.Errorf("addPick duplicate = %v", got)
	}
}
