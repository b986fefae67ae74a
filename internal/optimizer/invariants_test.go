package optimizer

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"weak"

	"blackboxflow/internal/dataflow"
)

// This file is the optimizer's invariant harness. The paper's contract for
// the optimizer has two parts: enumeration reaches exactly the plans the
// Section 4 conditions allow, and costing may share sub-flows across
// alternatives (Section 6) without changing any plan's cost. A row is a
// named flow with its expectations (rows_test.go); a config is one cell of
// DOP × memory budget × network profile × rule set; an invariant is a check
// over (row, config, search result), registered once with the cells it runs
// a fixed row on. Each test is one suite: the invariants it runs over the
// rows it names. testdata/invariants.golden pins the (invariant, row,
// config) tuples the suites and the fuzz seeds expand to; regenerate it with
// `go test ./internal/optimizer -run TestInvariantsGolden -update`.

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures")

// config is one cell. An enumeration cell (dop 0) reads only the rule set;
// a costing cell ranks under every rule.
type config struct {
	dop    int
	budget float64
	net    NetProfile
	rules  *RuleSet
}

func (c config) String() string {
	if c.dop == 0 {
		return fmt.Sprintf("rules=%+v", *c.rules)
	}
	return fmt.Sprintf("dop=%d budget=%g net=%g/%g", c.dop, c.budget, c.net.BytesPerSec, c.net.LatencySec)
}

// ruleSets is every ablation of the three rule families; bit 0 enables
// UnaryUnary, bit 1 UnaryBinary, bit 2 Rotations.
func ruleSets() []*RuleSet {
	out := make([]*RuleSet, 8)
	for m := range out {
		out[m] = &RuleSet{UnaryUnary: m&1 != 0, UnaryBinary: m&2 != 0, Rotations: m&4 != 0}
	}
	return out
}

// grid is budgets × nets × dops, the DOP varying fastest.
func grid(dops []int, budgets []float64, nets []NetProfile) []config {
	var out []config
	for _, b := range budgets {
		for _, n := range nets {
			for _, d := range dops {
				out = append(out, config{dop: d, budget: b, net: n})
			}
		}
	}
	return out
}

// tcpLike is a measured-transport profile of the order BENCH_net.json
// records for TCP loopback.
var tcpLike = NetProfile{BytesPerSec: 36e6, LatencySec: 250e-6}

var (
	enumCells = func() []config {
		var out []config
		for _, rs := range ruleSets() {
			out = append(out, config{rules: rs})
		}
		return out
	}()
	rankCells   = grid([]int{4}, []float64{0, 64 << 10}, []NetProfile{{}, tcpLike})
	bestCells   = grid([]int{1, 2, 3, 8}, []float64{0, 1 << 10, 256 << 10, 32 << 20}, []NetProfile{{}, {BytesPerSec: 200e6, LatencySec: 100e-6}})
	goldenCells = grid([]int{2, 4}, []float64{0, 64 << 10}, []NetProfile{{}, tcpLike})
	q7Cell      = []config{{dop: 2}}
)

// invariant is a check registered once, with the cells it runs on.
type invariant struct {
	// cells are the cells a fixed row runs on; nil: the row's own (at).
	cells []config
	// gen: generated rows run it on their own cell, so the fuzz does.
	gen bool
	// serial: it measures the process (allocations, the collector), so its
	// suite does not run in parallel with others.
	serial bool
	check  func(t *testing.T, x *cell)
}

var invariants = map[string]invariant{
	// The row's own expectation: its exact plan set or Table 1 count, or
	// the strategy, cost or estimate its example pins.
	"expect": {check: func(t *testing.T, x *cell) {
		if x.check != nil {
			x.check(t, x)
		}
	}},
	// The plan set and the enumeration effort are the frozen reference's,
	// and the alternatives are a DAG of distinct sub-flows.
	"enumerate": {cells: enumCells, gen: true, check: checkEnumerate},
	// Plan ranks the reference's plans (reference_test.go), each within 1e-9
	// of the reference's cost, with the same rank-1 plan. The reference
	// costs every plan on trees that share no nodes, each with a fresh
	// estimator and optimizer, so a memo that leaks between sub-flows shows
	// as a cost or a rank-1 difference.
	"rank": {cells: rankCells, gen: true, check: func(t *testing.T, x *cell) { x.checkReference(t, 1e-9) }},
	// Best is Plan's ranked[0] at four DOPs, four budgets (none, one that
	// spills everything, two between) and the zero and a measured profile.
	"best": {cells: bestCells, gen: true, check: checkBest},
	// Rankings are bit-identical from call to call. They were not while
	// record widths were summed in map-iteration order: near-tied plans
	// traded places between runs. A generated row ranks twice, so the fuzz
	// spends its time on new rows.
	"reproducible": {cells: []config{{dop: 4, budget: 64 << 10, net: tcpLike}}, gen: true, check: func(t *testing.T, x *cell) {
		runs := 20
		if x.own != nil {
			runs = 2
		}
		first := ""
		for i := 0; i < runs; i++ {
			fp := rankingFingerprint(x.ranked(t))
			if i == 0 {
				first = fp
			} else if fp != first {
				t.Fatalf("%s: run %d ranked differently from run 0", x, i)
			}
		}
	}},
	// Every alternative produces the written flow's output attributes.
	"attrs": {cells: enumCells[7:], gen: true, check: func(t *testing.T, x *cell) {
		want := x.tree(t).Attrs()
		for _, a := range x.enumerate(t) {
			if !a.Attrs().Equal(want) {
				t.Errorf("%s: plan %s outputs %v, the flow %v", x, a, a.Attrs(), want)
			}
		}
	}},
	// rankings.golden pins the ranking bit for bit: each line the SHA-256 of
	// rankingFingerprint beside the rank-1 entry. The reference comparison
	// tolerates 1e-9; this does not, so a reordered float sum or a changed
	// tie-break shows here first.
	"rankings": {cells: goldenCells, check: func(t *testing.T, x *cell) {
		ranked := x.ranked(t)
		fp := rankingFingerprint(ranked)
		fmt.Fprintf(&x.h.log, "%s budget=%g net=%g/%g dop=%d plans=%d sha256=%x best=%s\n",
			x.golden, x.c.budget, x.c.net.BytesPerSec, x.c.net.LatencySec, x.c.dop, len(ranked),
			sha256.Sum256([]byte(fp)), fp[:strings.IndexByte(fp, ';')])
	}},
	"retention": {cells: q7Cell, serial: true, check: checkRetention},
	// One Q7 ranking at DOP 2: one node per sub-flow and one plan per
	// sub-flow some alternative's best plan uses (1,859 each), and a few
	// dozen slices of search state. Building a plan per kept candidate, as
	// the ranker once did, made 10,090.
	"rank-allocs": {cells: q7Cell, serial: true, check: func(t *testing.T, x *cell) {
		x.checkAllocs(t, 3845, func() error { _, err := Plan(x.flow, x.c.dop, x.c.budget, x.c.net); return err })
	}},
	// One Q7 best-only search at DOP 2, the optimizer work of a plan-cache
	// miss: the search's slices, the node table's chunks, and one allocation
	// per node of the winner's plan, which carries its copy of the tree node.
	// With a heap node per sub-flow, as a ranking's table makes them, the
	// same search makes 1,999.
	"best-allocs": {cells: q7Cell, serial: true, check: func(t *testing.T, x *cell) {
		x.checkAllocs(t, 150, func() error { _, err := Best(x.flow, x.c.dop, x.c.budget, x.c.net); return err })
	}},
	// An operator's key sets are built once with the flow and shared by every
	// ranking over it, and by the plans partitioned on them. A ranking reads
	// them and leaves them as they were.
	"keysets": {cells: []config{{dop: 2, budget: 1 << 20}}, check: checkKeySets},
	// Jobs submitting the same document share one cached flow: concurrent
	// rankings over it must neither race (run under -race) nor disagree.
	"concurrent": {cells: q7Cell, check: func(t *testing.T, x *cell) {
		want := rankingFingerprint(x.ranked(t))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ranked, err := Plan(x.flow, x.c.dop, x.c.budget, x.c.net)
				if err != nil || rankingFingerprint(ranked) != want {
					t.Errorf("concurrent ranking over a shared flow differs from the serial one (%v)", err)
				}
			}()
		}
		wg.Wait()
	}},
}

// suite is one test: the invariants it runs over the rows it names.
type suite struct {
	inv  []string
	rows []string
	// multi: at least this many rows must enumerate more than one plan, or
	// the generator no longer exercises the rules.
	multi int
	// golden: the invariants' log must equal this fixture.
	golden string
}

var (
	pinned  = []string{"expect"}
	example = []string{"expect", "enumerate"}
	q7Row   = []string{"q7/sca"}
)

var suites = map[string]suite{
	"TestEnumeratorMatchesReferenceOnPaperWorkloads": {inv: example, rows: paper},
	"TestEnumeratorMatchesReferenceOnRandomFlows":    {inv: []string{"enumerate"}, rows: seeds(250), multi: 50},
	"TestRankerMatchesReference":                     {inv: []string{"rank"}, rows: slices.Concat(paper, examples(), seeds(60))},
	"TestBestMatchesPlanFirst":                       {inv: []string{"best"}, rows: slices.Concat(paper, examples())},
	"TestRankAllReproducible":                        {inv: []string{"reproducible"}, rows: paper},
	// Enumerate's order is the reference's, sorted by key, whatever the run.
	"TestEnumerationDeterministic":         {inv: []string{"enumerate", "reproducible"}, rows: []string{"join/ra"}},
	"TestAttrsInvariantAcrossAlternatives": {inv: []string{"attrs"}, rows: slices.Concat(paper, examples())},
	"TestRankingsGolden":                   {inv: []string{"rankings"}, rows: []string{"q7/sca", "q15/sca", "clickstream/manual", "clickstream/sca", "textmine/sca"}, golden: "rankings.golden"},
	"TestRankingRetainsOnlyItsPlan":        {inv: []string{"retention"}, rows: q7Row},
	"TestRankAllQ7Allocs":                  {inv: []string{"rank-allocs"}, rows: q7Row},
	"TestBestQ7Allocs":                     {inv: []string{"best-allocs"}, rows: q7Row},
	"TestRankingLeavesKeySetsUnchanged":    {inv: []string{"keysets"}, rows: paper[:6]}, // text mining has no keyed operator
	"TestRankAllSharedFlowConcurrent":      {inv: []string{"concurrent"}, rows: q7Row},

	"TestSection6Example":                    {inv: example, rows: []string{"section6"}},
	"TestSection3ExampleViaSCA":              {inv: example, rows: []string{"section3"}},
	"TestMapPushBelowMatch":                  {inv: example, rows: []string{"join/ra"}},
	"TestMapOnJoinKeyPushesLeft":             {inv: example, rows: []string{"join/rk"}},
	"TestMapWritingJoinKeyBlocked":           {inv: example, rows: []string{"join/key-writer"}},
	"TestRuleAblation":                       {inv: example, rows: []string{"join/ra/no-pushes"}},
	"TestInvariantGrouping":                  {inv: example, rows: []string{"invgroup"}},
	"TestInvariantGroupingRequiresFK":        {inv: example, rows: []string{"invgroup/no-fk"}},
	"TestInvariantGroupingRequiresKeyCover":  {inv: example, rows: []string{"invgroup/no-cover"}},
	"TestInvariantGroupingPKSideUniqueness":  {inv: example, rows: []string{"pk-unique/source", "pk-unique/joined"}},
	"TestJoinRotation":                       {inv: example, rows: []string{"rotation"}},
	"TestJoinCrossRotation":                  {inv: example, rows: []string{"rotation/cross"}},
	"TestJoinRotationBlockedByAttrUse":       {inv: example, rows: []string{"rotation/blocked"}},
	"TestReduceReduceManualOnly":             {inv: example, rows: []string{"reduce-reduce/sca", "reduce-reduce/all-or-none"}},
	"TestMapReduceKGP":                       {inv: example, rows: []string{"map-reduce/key", "map-reduce/value"}},
	"TestMapPushBelowCoGroup":                {inv: example, rows: []string{"cogroup/key", "cogroup/value"}},
	"TestMapPushBelowCross":                  {inv: example, rows: []string{"cross"}},
	"TestProjectionKeepsAddedAttribute":      {inv: example, rows: []string{"projection/adds"}},
	"TestFactorialPlanSpace":                 {inv: example, rows: []string{"factorial"}},
	"TestEnumStatsCountPerSubflow":           {inv: pinned, rows: []string{"factorial/stats"}},
	"TestFromFlowRefusesFlowsPastTheNodeKey": {inv: pinned, rows: []string{"past-node-key"}},
	"TestBestTieGoesToSmallerKey":            {inv: pinned, rows: []string{"tie/written", "tie/swapped"}},
	"TestEstimatorBasics":                    {inv: pinned, rows: []string{"join/ra/estimate"}},
	"TestEstimatorFKJoin":                    {inv: pinned, rows: []string{"fk-join"}},
	"TestRankAllOrdering":                    {inv: pinned, rows: []string{"join/ra/ranked"}},
	"TestPhysicalPartitioningReuse":          {inv: pinned, rows: []string{"partition-reuse"}},
	"TestInterestingPropsAblation":           {inv: pinned, rows: []string{"props-ablation"}},
	"TestSharedSubplansConsistent":           {inv: pinned, rows: []string{"shared-subplans"}},
	"TestCombinableAnnotation":               {inv: pinned, rows: []string{"combine/sumV"}},
	"TestCombinerRejectedWhenUnsafe":         {inv: pinned, rows: []string{"combine/keyWriter", "combine/maybeEmit", "combine/none"}},
	"TestCombinerCheaperThanPlainShuffle":    {inv: pinned, rows: []string{"combine/cheaper"}},
	"TestCombinerSkippedOnForwardShip":       {inv: pinned, rows: []string{"combine/forward"}},
	"TestSpillCostTerm":                      {inv: pinned, rows: []string{"spill/reduce"}},
	"TestSpillCostJoinTerm":                  {inv: pinned, rows: []string{"spill/join"}},
	"TestSpillCostCrossBroadcastTerm":        {inv: pinned, rows: []string{"spill/cross"}},
	"TestSpillCostPrefersCombinable":         {inv: pinned, rows: []string{"spill/combinable"}},
	"TestSpillCostSteersJoinStrategy":        {inv: pinned, rows: []string{"spill/steer"}},
	"TestNetProfileLatencySteersJoin":        {inv: pinned, rows: []string{"net/latency"}},
	"TestRankAllNetZeroProfileMatchesBudget": {inv: pinned, rows: []string{"net/zero"}},
}

// examples are the fixed rows other than the paper workloads that FromFlow
// accepts, by name.
func examples() []string {
	var out []string
	for _, name := range slices.Sorted(maps.Keys(rows)) {
		if !slices.Contains(paper, name) && name != "past-node-key" {
			out = append(out, name)
		}
	}
	return out
}

func TestEnumeratorMatchesReferenceOnPaperWorkloads(t *testing.T) { runSuite(t) }
func TestRankerMatchesReference(t *testing.T)                     { runSuite(t) }
func TestBestMatchesPlanFirst(t *testing.T)                       { runSuite(t) }
func TestRankAllReproducible(t *testing.T)                        { runSuite(t) }
func TestEnumerationDeterministic(t *testing.T)                   { runSuite(t) }
func TestAttrsInvariantAcrossAlternatives(t *testing.T)           { runSuite(t) }
func TestRankingsGolden(t *testing.T)                             { runSuite(t) }
func TestRankingRetainsOnlyItsPlan(t *testing.T)                  { runSuite(t) }
func TestRankAllQ7Allocs(t *testing.T)                            { runSuite(t) }
func TestBestQ7Allocs(t *testing.T)                               { runSuite(t) }
func TestRankingLeavesKeySetsUnchanged(t *testing.T)              { runSuite(t) }
func TestRankAllSharedFlowConcurrent(t *testing.T)                { runSuite(t) }
func TestSection6Example(t *testing.T)                            { runSuite(t) }
func TestSection3ExampleViaSCA(t *testing.T)                      { runSuite(t) }
func TestMapPushBelowMatch(t *testing.T)                          { runSuite(t) }
func TestMapOnJoinKeyPushesLeft(t *testing.T)                     { runSuite(t) }
func TestMapWritingJoinKeyBlocked(t *testing.T)                   { runSuite(t) }
func TestRuleAblation(t *testing.T)                               { runSuite(t) }
func TestInvariantGrouping(t *testing.T)                          { runSuite(t) }
func TestInvariantGroupingRequiresFK(t *testing.T)                { runSuite(t) }
func TestInvariantGroupingRequiresKeyCover(t *testing.T)          { runSuite(t) }
func TestInvariantGroupingPKSideUniqueness(t *testing.T)          { runSuite(t) }
func TestJoinRotation(t *testing.T)                               { runSuite(t) }
func TestJoinCrossRotation(t *testing.T)                          { runSuite(t) }
func TestJoinRotationBlockedByAttrUse(t *testing.T)               { runSuite(t) }
func TestReduceReduceManualOnly(t *testing.T)                     { runSuite(t) }
func TestMapReduceKGP(t *testing.T)                               { runSuite(t) }
func TestMapPushBelowCoGroup(t *testing.T)                        { runSuite(t) }
func TestMapPushBelowCross(t *testing.T)                          { runSuite(t) }
func TestProjectionKeepsAddedAttribute(t *testing.T)              { runSuite(t) }
func TestFactorialPlanSpace(t *testing.T)                         { runSuite(t) }
func TestEnumStatsCountPerSubflow(t *testing.T)                   { runSuite(t) }
func TestFromFlowRefusesFlowsPastTheNodeKey(t *testing.T)         { runSuite(t) }
func TestBestTieGoesToSmallerKey(t *testing.T)                    { runSuite(t) }
func TestEstimatorBasics(t *testing.T)                            { runSuite(t) }
func TestEstimatorFKJoin(t *testing.T)                            { runSuite(t) }
func TestRankAllOrdering(t *testing.T)                            { runSuite(t) }
func TestPhysicalPartitioningReuse(t *testing.T)                  { runSuite(t) }
func TestInterestingPropsAblation(t *testing.T)                   { runSuite(t) }
func TestSharedSubplansConsistent(t *testing.T)                   { runSuite(t) }
func TestCombinableAnnotation(t *testing.T)                       { runSuite(t) }
func TestCombinerRejectedWhenUnsafe(t *testing.T)                 { runSuite(t) }
func TestCombinerCheaperThanPlainShuffle(t *testing.T)            { runSuite(t) }
func TestCombinerSkippedOnForwardShip(t *testing.T)               { runSuite(t) }
func TestSpillCostTerm(t *testing.T)                              { runSuite(t) }
func TestSpillCostJoinTerm(t *testing.T)                          { runSuite(t) }
func TestSpillCostCrossBroadcastTerm(t *testing.T)                { runSuite(t) }
func TestSpillCostPrefersCombinable(t *testing.T)                 { runSuite(t) }
func TestSpillCostSteersJoinStrategy(t *testing.T)                { runSuite(t) }
func TestNetProfileLatencySteersJoin(t *testing.T)                { runSuite(t) }
func TestRankAllNetZeroProfileMatchesBudget(t *testing.T)         { runSuite(t) }

// FuzzRankerDifferential is the table's row generator: the fuzzer picks
// the randomFlow seed and the row's cell (a DOP in 1–8, a memory budget in
// bytes, 0 = unlimited, whether the transport is measured, and a rule set),
// and the row runs every invariant registered for generated rows.
func FuzzRankerDifferential(f *testing.F) {
	fuzzSeeds(func(seed int64, dop uint8, budget uint32, measured bool, rules uint8) {
		f.Add(seed, dop, budget, measured, rules)
	})
	f.Fuzz(func(t *testing.T, seed int64, dop uint8, budget uint32, measured bool, rules uint8) {
		h := &harness{}
		r := fuzzRow(seed, dop, budget, measured, rules)
		for _, name := range generated() {
			h.runInvariant(t, name, &r)
		}
	})
}

// generated are the invariants generated rows run, by name.
func generated() []string {
	var out []string
	for _, name := range slices.Sorted(maps.Keys(invariants)) {
		if invariants[name].gen {
			out = append(out, name)
		}
	}
	return out
}

// harness runs one suite. In dry mode it only lists its tuples.
type harness struct {
	dry    bool
	tuples []string
	log    strings.Builder
	multi  int // rows whose enumeration found more than one plan
}

// runSuite runs the suite the calling test is named for.
func runSuite(t *testing.T) {
	s, ok := suites[t.Name()]
	if !ok {
		t.Fatalf("no suite named %s", t.Name())
	}
	if !slices.ContainsFunc(s.inv, func(name string) bool { return invariants[name].serial }) {
		t.Parallel()
	}
	h := &harness{}
	h.run(t, s)
	if h.multi < s.multi {
		t.Errorf("only %d of %d rows had more than one plan: the generator no longer exercises the rules", h.multi, len(s.rows))
	}
	if s.golden != "" {
		compareGolden(t, s.golden, h.log.String())
	}
}

func (h *harness) run(t *testing.T, s suite) {
	for _, name := range s.rows {
		r := buildRow(t, name)
		for _, inv := range s.inv {
			h.runInvariant(t, inv, &r)
		}
	}
}

// built holds the rows built so far, by name. A flow is read-only once
// built, as when the plan cache shares one between jobs, so suites share
// their rows.
var built sync.Map

// buildRow loads the named row, building it on first use, and checks on
// every call that FromFlow takes its flow or refuses it as the row expects.
func buildRow(t *testing.T, name string) row {
	v, ok := built.Load(name)
	if !ok {
		v, _ = built.LoadOrStore(name, newRow(t, name))
	}
	r := v.(row)
	_, err := FromFlow(r.flow)
	switch {
	case r.refuse != "" && (err == nil || !strings.Contains(err.Error(), r.refuse)):
		t.Fatalf("row %s: FromFlow over %d operators: %v, want an error about %s", name, len(r.flow.Operators()), err, r.refuse)
	case r.refuse == "" && err != nil:
		t.Fatalf("row %s: %v", name, err)
	}
	return r
}

// newRow builds the named row: a fixed one, or seed=N's generated one.
func newRow(t *testing.T, name string) row {
	var r row
	if build, ok := rows[name]; ok {
		r = build(t)
		r.name = name
	} else {
		var seed int64
		if _, err := fmt.Sscanf(name, "seed=%d", &seed); err != nil {
			t.Fatalf("no row named %s", name)
		}
		r = genRow(seed)
	}
	if r.at.dop == 0 && r.at.rules == nil {
		r.at.rules = AllRules()
	}
	return r
}

// runInvariant runs the named invariant over the row's cells: the
// invariant's for a fixed row, the row's own for a generated one.
func (h *harness) runInvariant(t *testing.T, name string, r *row) {
	inv := invariants[name]
	cells := inv.cells
	switch {
	case r.own != nil && cells != nil && cells[0].dop == 0:
		cells = []config{{rules: r.own.rules}}
	case r.own != nil:
		cells = []config{{dop: r.own.dop, budget: r.own.budget, net: r.own.net}}
	case cells == nil:
		cells = []config{r.at}
	}
	for _, c := range cells {
		h.tuples = append(h.tuples, fmt.Sprintf("%s %s %s", name, r.name, c))
		if !h.dry {
			inv.check(t, &cell{row: r, c: c, h: h})
		}
	}
}

// cell is one (row, config) an invariant runs on.
type cell struct {
	*row
	c config
	h *harness
}

func (x *cell) String() string { return x.name + " " + x.c.String() }

// tree is a fresh tree of the row's flow.
func (x *cell) tree(t testing.TB) *Tree {
	tree, err := FromFlow(x.flow)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// enumerate is the enumeration under the cell's rules.
func (x *cell) enumerate(t testing.TB) []*Tree {
	return (&Enumerator{Rules: x.c.rules}).Enumerate(x.tree(t))
}

// plans renders the enumeration under the cell's rules.
func (x *cell) plans(t testing.TB) []string { return treeStrings(x.enumerate(t)) }

// ranked is Plan at the cell.
func (x *cell) ranked(t testing.TB) []RankedPlan {
	ranked, err := Plan(x.flow, x.c.dop, x.c.budget, x.c.net)
	if err != nil {
		t.Fatal(err)
	}
	return ranked
}

// best is Best at the cell.
func (x *cell) best(t testing.TB) RankedPlan {
	w, err := Best(x.flow, x.c.dop, x.c.budget, x.c.net)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// phys is the physical optimizer's plan for the flow as written at c.
func (x *cell) phys(t testing.TB, c config) *PhysPlan { return physOf(t, x.flow, c) }

func physOf(t testing.TB, f *dataflow.Flow, c config) *PhysPlan {
	tree, err := FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return newRanker(NewEstimator(f), c.dop, c.budget, c.net).Optimize(tree)
}

// rankingFingerprint is the full observable outcome of a ranking: every
// plan's key and the exact bits of its cost, in rank order.
func rankingFingerprint(ranked []RankedPlan) string {
	var b strings.Builder
	for _, r := range ranked {
		fmt.Fprintf(&b, "%s=%016x;", r.Tree.Key(), math.Float64bits(r.Cost))
	}
	return b.String()
}

// checkOrder: ranks run 1, 2, … over ascending costs, equal costs by
// ascending key.
func checkOrder(t *testing.T, x *cell, ranked []RankedPlan) {
	for i, r := range ranked {
		if r.Rank != i+1 {
			t.Fatalf("%s: plan %d has rank %d", x, i, r.Rank)
		}
		if i > 0 {
			p := ranked[i-1]
			if p.Cost > r.Cost || p.Cost == r.Cost && p.Tree.Key() >= r.Tree.Key() {
				t.Fatalf("%s: rank %d (%s, %v) sorts after rank %d (%s, %v)", x, i+1, r.Tree.Key(), r.Cost, i, p.Tree.Key(), p.Cost)
			}
		}
	}
}

// checkReference requires Plan and the reference ranker to agree on the
// plan set, on every plan's cost to tol relative, and on the rank-1 plan.
func (x *cell) checkReference(t *testing.T, tol float64) {
	got := x.ranked(t)
	want := refRank(x.tree(t), x.flow, x.c.dop, x.c.budget, x.c.net)
	checkOrder(t, x, got)
	if len(got) != len(want) {
		t.Fatalf("%s: ranked %d plans, reference %d", x, len(got), len(want))
	}
	wantCost := map[string]float64{}
	for _, r := range want {
		wantCost[r.Tree.Key()] = r.Cost
	}
	for _, r := range got {
		w, ok := wantCost[r.Tree.Key()]
		if !ok {
			t.Fatalf("%s: plan %s not in the reference ranking", x, r.Tree.Key())
		}
		if math.Abs(r.Cost-w) > tol*math.Max(math.Abs(w), 1) {
			t.Errorf("%s: plan %s costs %v, reference %v", x, r.Tree.Key(), r.Cost, w)
		}
	}
	if g, w := got[0].Tree.Key(), want[0].Tree.Key(); g != w {
		t.Errorf("%s: rank-1 plan %s (%v), reference %s (%v)", x, g, got[0].Cost, w, want[0].Cost)
	}
}

// checkShared: one optimizer that Optimize is called on again and again,
// as the engine's and the workloads' tests call it, interns each outside
// tree into a table that already holds the earlier ones and reuses its
// memos. It must cost every alternative exactly as a fresh optimizer does.
func (x *cell) checkShared(t *testing.T) {
	est := NewEstimator(x.flow)
	shared := newRanker(est, x.c.dop, x.c.budget, x.c.net)
	for _, a := range NewEnumerator().Enumerate(x.tree(t)) {
		cs := shared.Optimize(a).Cost.Total()
		cf := newRanker(est, x.c.dop, x.c.budget, x.c.net).Optimize(a).Cost.Total()
		if math.Float64bits(cs) != math.Float64bits(cf) {
			t.Errorf("%s: plan %s costs %v on the shared optimizer, %v on a fresh one", x, a, cs, cf)
		}
	}
}

func checkEnumerate(t *testing.T, x *cell) {
	want, wantStats := refEnumerate(x.tree(t), x.c.rules)
	e := &Enumerator{Rules: x.c.rules}
	got := e.Enumerate(x.tree(t))
	if len(got) > 1 {
		x.h.multi++
	}
	gk, wk := treeKeys(got), treeKeys(want)
	if !slices.Equal(gk, wk) {
		t.Fatalf("%s: enumerated %d plans, reference %d\n got %v\nwant %v", x, len(gk), len(wk), gk, wk)
	}
	if e.Stats.Expanded != wantStats.Expanded || e.Stats.MemoHits != wantStats.MemoHits {
		t.Errorf("%s: expanded/memo-hits %d/%d, reference %d/%d", x, e.Stats.Expanded, e.Stats.MemoHits, wantStats.Expanded, wantStats.MemoHits)
	}
	// Hash-consing: the alternatives are a DAG over Stats.Subflows nodes at
	// most, and no two distinct nodes are structurally equal.
	byKey := map[string]*Tree{}
	var walk func(n *Tree)
	walk = func(n *Tree) {
		if prev, ok := byKey[n.Key()]; ok {
			if prev != n {
				t.Fatalf("%s: sub-flow %s exists as two nodes", x, n.Key())
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
		t.Errorf("%s: %d distinct sub-flows in the result, Stats.Subflows = %d", x, len(byKey), e.Stats.Subflows)
	}
}

func treeKeys(alts []*Tree) []string {
	out := make([]string, len(alts))
	for i, a := range alts {
		out[i] = a.Key()
	}
	return out
}

// checkBest: Best is Plan's ranked[0], with the tree key, every plan node
// and its estimates, the cost bits and the enumeration stats identical, and
// ranked[0] is the smallest key among the cheapest plans.
func checkBest(t *testing.T, x *cell) {
	ranked, best := x.ranked(t), x.best(t)
	want := ranked[0]
	switch {
	case best.Tree.Key() != want.Tree.Key():
		t.Errorf("%s: Best picked %s, Plan ranks %s first", x, best.Tree.Key(), want.Tree.Key())
	case best.Phys.Indent() != want.Phys.Indent():
		t.Errorf("%s: physical plans differ:\n%s\nwant\n%s", x, best.Phys.Indent(), want.Phys.Indent())
	case math.Float64bits(best.Cost) != math.Float64bits(want.Cost) ||
		math.Float64bits(best.Phys.Cost.Total()) != math.Float64bits(want.Phys.Cost.Total()):
		t.Errorf("%s: cost %v, want %v", x, best.Cost, want.Cost)
	case *best.Enum != *want.Enum || best.Enum.Expanded != len(ranked):
		t.Errorf("%s: stats %+v, want %+v over %d plans", x, *best.Enum, *want.Enum, len(ranked))
	case best.Rank != 1:
		t.Errorf("%s: rank %d, want 1", x, best.Rank)
	}
	for _, r := range ranked[1:] {
		if r.Cost == want.Cost && r.Tree.Key() < want.Tree.Key() {
			t.Errorf("%s: a tie went to %s over the smaller key %s", x, want.Tree.Key(), r.Tree.Key())
		}
	}
}

// checkAllocs pins f's allocations within 10% of want.
func (x *cell) checkAllocs(t *testing.T, want float64, f func() error) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	runtime.GC() // start the collector's workers outside the count
	allocs := testing.AllocsPerRun(5, func() {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	})
	if max := want * 1.1; allocs > max {
		t.Errorf("%s: %.0f allocations, want at most %.0f", x, allocs, max)
	}
}

// checkRetention: the node table and every per-node memo die with the
// search. A caller that keeps only the best physical plan, from either view
// of the search (the plan cache keeps 256 of Best's), retains that plan's
// own nodes: not the table, not the estimator's or the optimizer's memo
// storage, not the candidate store its plans were built from, and not the
// other alternatives. A table handle on a node that were a pointer would pin
// the whole enumeration through the kept plan. Best's search carves its
// nodes from chunks, so its plan must hold none of them: not one node of
// the table may outlive it.
func checkRetention(t *testing.T, x *cell) {
	for _, view := range []string{"rank-all", "best"} {
		t.Run(view, func(t *testing.T) {
			est := NewEstimator(x.flow)
			po := newRanker(est, x.c.dop, x.c.budget, x.c.net) // what RankAllNet and Best build
			held := map[string]func() bool{}
			var best *PhysPlan
			if view == "best" {
				best = po.winner(x.tree(t)).Phys
				// Every node of the enumeration, the alternatives' roots among
				// them: a live one would pin its chunk.
				held["node chunk"] = anyLive(est.tab.nodes)
			} else {
				ranked := po.rankAll(x.tree(t))
				best = ranked[0].Phys
				// Every alternative's root but the best's: a carved table
				// would place some of them beside the best plan's nodes.
				others := make([]*Tree, len(ranked)-1)
				for i, rp := range ranked[1:] {
					others[i] = rp.Tree
				}
				held["rest of the ranking"] = anyLive(others)
			}
			want := best.Indent()
			held["node table"] = isLive(weak.Make(est.tab))
			held["estimator memo"] = isLive(weak.Make(&est.est[0]))
			held["optimizer memo"] = isLive(weak.Make(&po.memo[0]))
			held["candidate store"] = isLive(weak.Make(&po.kept[0]))
			held["partitioning table"] = isLive(weak.Make(&po.parts[0]))
			held["built-plan index"] = isLive(weak.Make(&po.phys[0]))
			est, po = nil, nil
			runtime.GC()
			runtime.GC()
			for what, live := range held {
				if live() {
					t.Errorf("the %s outlives the search: the kept plan retains it", what)
				}
			}
			if best.Indent() != want {
				t.Error("the kept plan changed")
			}
		})
	}
}

func isLive[T any](p weak.Pointer[T]) func() bool {
	return func() bool { return p.Value() != nil }
}

// anyLive reports, once the caller dropped them, whether any of ts lives.
func anyLive(ts []*Tree) func() bool {
	ps := make([]weak.Pointer[Tree], len(ts))
	for i, n := range ts {
		ps[i] = weak.Make(n)
	}
	return func() bool {
		return slices.ContainsFunc(ps, func(p weak.Pointer[Tree]) bool { return p.Value() != nil })
	}
}

func checkKeySets(t *testing.T, x *cell) {
	type keySet struct {
		op    *dataflow.Operator
		i     int
		words []uint64 // the shared storage
		want  string
	}
	var sets []keySet
	for _, op := range x.flow.Operators() {
		for i := range op.Keys {
			ks := op.KeySet(i)
			if ks.Empty() || &ks[0] != &op.KeySet(i)[0] {
				t.Fatalf("%s key set %d is %v, built anew on each call", op.Name, i, ks)
			}
			sets = append(sets, keySet{op, i, ks, ks.String()})
		}
	}
	if len(sets) == 0 {
		t.Fatalf("%s has no keyed operators", x.name)
	}
	x.ranked(t)
	for _, s := range sets {
		if got := s.op.KeySet(s.i); got.String() != s.want || &got[0] != &s.words[0] {
			t.Errorf("%s key set %d is %v after a ranking, was %s", s.op.Name, s.i, got, s.want)
		}
	}
}

// TestInvariantsGolden pins the (invariant, row, config) tuples the suites
// and the fuzz seeds expand to, so a change that drops a row or a cell
// fails here. A line that disappears on regeneration is coverage lost.
func TestInvariantsGolden(t *testing.T) {
	t.Parallel()
	h := &harness{dry: true}
	for _, name := range slices.Sorted(maps.Keys(suites)) {
		h.run(t, suites[name])
	}
	fuzzSeeds(func(seed int64, dop uint8, budget uint32, measured bool, rules uint8) {
		r := fuzzRow(seed, dop, budget, measured, rules)
		for _, name := range generated() {
			h.runInvariant(t, name, &r)
		}
	})
	slices.Sort(h.tuples)
	compareGolden(t, "invariants.golden", strings.Join(slices.Compact(h.tuples), "\n")+"\n")
}

// compareGolden requires got to equal testdata/name, which -update rewrites.
func compareGolden(t *testing.T, name, got string) {
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, %s has %d: regenerate it with -update and read the diff for lost cells", len(gl), path, len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("%s diverges from the fixture\n got %s\nwant %s", path, gl[i], wl[i])
		}
	}
}

// TestEnumeratorMatchesReferenceOnRandomFlows is declared last: parallel
// tests resume latest first, and its seed 241 alone enumerates for a
// second, so it starts while the others share the second CPU.
func TestEnumeratorMatchesReferenceOnRandomFlows(t *testing.T) { runSuite(t) }
