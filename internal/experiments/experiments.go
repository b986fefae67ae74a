// Package experiments reproduces the paper's evaluation (Section 7): the
// rank-sweep experiments behind Figures 5–7 (normalized cost estimate vs.
// normalized execution runtime over plans picked at regular rank
// intervals), the manual-vs-SCA enumeration comparison of Table 1, the
// enumeration-time measurement, and the Q15 physical-strategy narrative.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/engine"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

// SweepRow is one executed plan of a rank sweep. Runtime is the plan's
// modelled runtime on the paper's interconnect (see modelled).
type SweepRow struct {
	Rank        int
	Cost        float64
	NormCost    float64
	Runtime     time.Duration
	NormRuntime float64
	OutRecords  int
	Plan        string
}

// SweepResult is the outcome of a Figure 5/6/7-style experiment.
type SweepResult struct {
	Name       string
	TotalPlans int
	EnumTime   time.Duration
	Rows       []SweepRow
	// ImplementedRank is the cost rank of the originally implemented data
	// flow (1-based; used by the Figure 7 discussion).
	ImplementedRank int
	// BestOverImplemented is runtime(implemented)/runtime(best) when both
	// were executed (Figure 7's "factor of 1.4").
	BestOverImplemented float64
}

// String renders the sweep as the paper's figure data series.
func (r *SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d plans enumerated in %v; implemented plan rank %d\n",
		r.Name, r.TotalPlans, r.EnumTime.Round(time.Millisecond), r.ImplementedRank)
	fmt.Fprintf(&b, "%6s  %12s  %10s  %12s  %10s  %8s\n",
		"rank", "est.cost", "norm.cost", "runtime", "norm.rt", "records")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d  %12.0f  %10.2f  %12s  %10.2f  %8d\n",
			row.Rank, row.Cost, row.NormCost, row.Runtime.Round(time.Microsecond),
			row.NormRuntime, row.OutRecords)
	}
	if r.BestOverImplemented > 0 {
		fmt.Fprintf(&b, "best plan beats implemented by a factor of %.2f\n", r.BestOverImplemented)
	}
	return b.String()
}

// DefaultNetBandwidth is the interconnect bandwidth the sweep experiments
// model (bytes/second). It rebalances shuffle cost against (interpreted)
// UDF cost to match the paper's 1 GbE testbed, where network transfer
// dominates plan runtimes. See DESIGN.md ("Network cost").
const DefaultNetBandwidth = 4 << 20

// modelled returns what a run that took wall would have taken on the
// paper's interconnect: every operator whose shipping finished sooner than
// its shipped bytes cross a DefaultNetBandwidth wire is charged the
// difference, once. The term is arithmetic on the run's own statistics,
// not a delay inside the engine, so it is the same for the same OpStats.
func modelled(wall time.Duration, stats *engine.RunStats) time.Duration {
	for _, op := range stats.PerOp {
		wire := time.Duration(float64(op.ShippedBytes) / DefaultNetBandwidth * float64(time.Second))
		wall += max(0, wire-op.ShipTime)
	}
	return wall
}

// Sweep enumerates and ranks all plans of the flow, executes nPick plans at
// regular rank intervals (always including the best and worst), and
// reports normalized cost vs. runtime — the procedure behind Figures 5–7.
// The original flow's rank is recorded, and its runtime compared to the
// best plan's.
func Sweep(name string, flow *dataflow.Flow, data map[string]record.DataSet, dop, nPick int) (*SweepResult, error) {
	start := time.Now()
	ranked, err := optimizer.Plan(flow, dop, 0, optimizer.NetProfile{})
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Name: name, TotalPlans: len(ranked), EnumTime: time.Since(start)}
	tree, err := optimizer.FromFlow(flow)
	if err != nil {
		return nil, err
	}
	origKey := tree.Key()
	for _, rp := range ranked {
		if rp.Tree.Key() == origKey {
			res.ImplementedRank = rp.Rank
		}
	}

	picks := pickRanks(len(ranked), nPick)
	// Ensure the implemented plan is executed too (for the ratio).
	if res.ImplementedRank > 0 {
		picks = addPick(picks, res.ImplementedRank-1)
	}

	e := engine.New(dop)
	for n, ds := range data {
		e.AddSource(n, ds)
	}

	var bestRuntime, implRuntime time.Duration
	for _, idx := range picks {
		rp := ranked[idx]
		t0 := time.Now()
		out, stats, err := e.Run(rp.Phys)
		if err != nil {
			return nil, fmt.Errorf("experiments: plan rank %d: %w", rp.Rank, err)
		}
		el := modelled(time.Since(t0), stats)
		res.Rows = append(res.Rows, SweepRow{
			Rank:       rp.Rank,
			Cost:       rp.Cost,
			Runtime:    el,
			OutRecords: len(out),
			Plan:       rp.Tree.String(),
		})
		if idx == 0 {
			bestRuntime = el
		}
		if rp.Rank == res.ImplementedRank {
			implRuntime = el
		}
	}
	// Normalize by the best-ranked plan's cost and runtime (as in the
	// paper's figures).
	base := res.Rows[0]
	for i := range res.Rows {
		if base.Cost > 0 {
			res.Rows[i].NormCost = res.Rows[i].Cost / base.Cost
		}
		if base.Runtime > 0 {
			res.Rows[i].NormRuntime = float64(res.Rows[i].Runtime) / float64(base.Runtime)
		}
	}
	if implRuntime > 0 && bestRuntime > 0 {
		res.BestOverImplemented = float64(implRuntime) / float64(bestRuntime)
	}
	return res, nil
}

// pickRanks selects n indices at regular intervals over [0, total), always
// including the first and last.
func pickRanks(total, n int) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	picks := map[int]bool{0: true, total - 1: true}
	for i := 1; i < n-1; i++ {
		picks[i*(total-1)/(n-1)] = true
	}
	out := make([]int, 0, len(picks))
	for i := range picks {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func addPick(picks []int, idx int) []int {
	for _, p := range picks {
		if p == idx {
			return picks
		}
	}
	picks = append(picks, idx)
	sort.Ints(picks)
	return picks
}

// Fig5Q7 reproduces Figure 5: the TPC-H Q7 rank sweep.
func Fig5Q7(g *tpch.GenParams, dop, nPick int) (*SweepResult, error) {
	q, err := tpch.BuildQ7(tpch.ModeSCA, g)
	if err != nil {
		return nil, err
	}
	return Sweep("Figure 5 (TPC-H Q7)", q.Flow, g.Generate(q.Flow), dop, nPick)
}

// Fig6TextMining reproduces Figure 6: the text-mining rank sweep.
func Fig6TextMining(g *textmine.GenParams, dop, nPick int) (*SweepResult, error) {
	task, err := textmine.Build(textmine.ModeSCA, g)
	if err != nil {
		return nil, err
	}
	return Sweep("Figure 6 (text mining)", task.Flow, g.Generate(task.Flow), dop, nPick)
}

// Fig7Clickstream reproduces Figure 7: all four clickstream plans (manual
// annotations, as in the paper's discussion of Figure 4).
func Fig7Clickstream(g *clickstream.GenParams, dop int) (*SweepResult, error) {
	task, err := clickstream.Build(clickstream.ModeManual, g)
	if err != nil {
		return nil, err
	}
	return Sweep("Figure 7 (clickstream)", task.Flow, g.Generate(task.Flow), dop, 4)
}

// Table1Row is one workload's manual-vs-SCA comparison.
type Table1Row struct {
	Task    string
	Manual  int
	SCA     int
	Percent float64
}

// Table1Result is the full Table 1 reproduction.
type Table1Result struct {
	Rows []Table1Row
}

// String renders the table in the paper's layout.
func (t *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s  %28s  %28s\n", "PACT Task",
		"Orders w/ Manual Annotation", "Orders w/ SCA")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s  %28d  %21d (%.0f%%)\n", r.Task, r.Manual, r.SCA, r.Percent)
	}
	return b.String()
}

// Table1 reproduces the paper's Table 1: the number of enumerated orders
// with manually annotated vs. SCA-derived read and write sets, for all four
// evaluation tasks.
func Table1() (*Table1Result, error) {
	res := &Table1Result{}

	count := func(flow *dataflow.Flow) (int, error) {
		tree, err := optimizer.FromFlow(flow)
		if err != nil {
			return 0, err
		}
		return len(optimizer.NewEnumerator().Enumerate(tree)), nil
	}

	// Clickstream.
	cg := clickstream.DefaultGen()
	cm, err := clickstream.Build(clickstream.ModeManual, cg)
	if err != nil {
		return nil, err
	}
	cs, err := clickstream.Build(clickstream.ModeSCA, cg)
	if err != nil {
		return nil, err
	}
	manual, err := count(cm.Flow)
	if err != nil {
		return nil, err
	}
	sca, err := count(cs.Flow)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{"Clickstream", manual, sca, 100 * float64(sca) / float64(manual)})

	// TPC-H Q7.
	tg := tpch.DefaultGen()
	q7m, err := tpch.BuildQ7(tpch.ModeManual, tg)
	if err != nil {
		return nil, err
	}
	q7s, err := tpch.BuildQ7(tpch.ModeSCA, tg)
	if err != nil {
		return nil, err
	}
	manual, err = count(q7m.Flow)
	if err != nil {
		return nil, err
	}
	sca, err = count(q7s.Flow)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{"TPC-H Q7", manual, sca, 100 * float64(sca) / float64(manual)})

	// TPC-H Q15.
	q15m, err := tpch.BuildQ15(tpch.ModeManual, tg)
	if err != nil {
		return nil, err
	}
	q15s, err := tpch.BuildQ15(tpch.ModeSCA, tg)
	if err != nil {
		return nil, err
	}
	manual, err = count(q15m.Flow)
	if err != nil {
		return nil, err
	}
	sca, err = count(q15s.Flow)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{"TPC-H Q15", manual, sca, 100 * float64(sca) / float64(manual)})

	// Text mining.
	xg := textmine.DefaultGen()
	xm, err := textmine.Build(textmine.ModeManual, xg)
	if err != nil {
		return nil, err
	}
	xs, err := textmine.Build(textmine.ModeSCA, xg)
	if err != nil {
		return nil, err
	}
	manual, err = count(xm.Flow)
	if err != nil {
		return nil, err
	}
	sca, err = count(xs.Flow)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Table1Row{"Text Mining", manual, sca, 100 * float64(sca) / float64(manual)})

	return res, nil
}

// EnumTimeRow is one task's enumeration-time measurement.
type EnumTimeRow struct {
	Task     string
	Plans    int
	Duration time.Duration
}

// EnumTimes measures plan enumeration time for every task (the paper
// reports < 1654 ms for all tasks with its naive implementation).
func EnumTimes() ([]EnumTimeRow, error) {
	var rows []EnumTimeRow
	add := func(name string, flow *dataflow.Flow) error {
		tree, err := optimizer.FromFlow(flow)
		if err != nil {
			return err
		}
		start := time.Now()
		alts := optimizer.NewEnumerator().Enumerate(tree)
		rows = append(rows, EnumTimeRow{name, len(alts), time.Since(start)})
		return nil
	}
	cg := clickstream.DefaultGen()
	c, err := clickstream.Build(clickstream.ModeManual, cg)
	if err != nil {
		return nil, err
	}
	if err := add("Clickstream", c.Flow); err != nil {
		return nil, err
	}
	tg := tpch.DefaultGen()
	q7, err := tpch.BuildQ7(tpch.ModeSCA, tg)
	if err != nil {
		return nil, err
	}
	if err := add("TPC-H Q7", q7.Flow); err != nil {
		return nil, err
	}
	q15, err := tpch.BuildQ15(tpch.ModeSCA, tg)
	if err != nil {
		return nil, err
	}
	if err := add("TPC-H Q15", q15.Flow); err != nil {
		return nil, err
	}
	xg := textmine.DefaultGen()
	x, err := textmine.Build(textmine.ModeSCA, xg)
	if err != nil {
		return nil, err
	}
	if err := add("Text Mining", x.Flow); err != nil {
		return nil, err
	}
	return rows, nil
}

// Q15Strategies reproduces the Section 7.3 physical-plan discussion for
// Q15: for each of the two Reduce/Match orders, cheapest first, report the
// shipping and local strategies the physical optimizer picks.
func Q15Strategies(g *tpch.GenParams, dop int) (string, error) {
	q, err := tpch.BuildQ15(tpch.ModeSCA, g)
	if err != nil {
		return "", err
	}
	ranked, err := optimizer.Plan(q.Flow, dop, 0, optimizer.NetProfile{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, rp := range ranked {
		fmt.Fprintf(&b, "plan: %s\ncost: %.0f\n%s\n", rp.Tree, rp.Cost, rp.Phys.Indent())
	}
	return b.String(), nil
}
