package engine

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/transport"
)

// This file is the differential harness. The engine's contract is that a
// plan's output does not depend on how it runs: every run of a row — at any
// DOP, under any memory budget, on any transport, with a fault injected or
// not — must produce the bytes of the reference executor (reference_test.go)
// on the same plan, with the same exact counters, and every alternative the
// optimizer enumerates must produce the same bag (the paper's Section 5
// safety argument). A row is a flow with its data and canaries; a config set
// picks the cells of DOP × budget × transport × plan × fault a test runs its
// rows under. Each differential test is one entry of the suites table
// (rows_test.go), and testdata/harness.golden pins the (test, row, config)
// tuples the table expands to.

var update = flag.Bool("update", false, "rewrite testdata/harness.golden")

// differentialDOPs are the degrees of parallelism most rows run at: 1 the
// degenerate single partition, 2 the minimal shuffle, 8 more partitions than
// test cores, 17 a prime no hash distribution aligns with batch boundaries.
var differentialDOPs = []int{1, 2, 8, 17}

// flowDef is a flow in the surface language: PactScript and the FlowDef
// wiring its UDFs, as a job document carries them.
type flowDef struct {
	script string
	def    dataflow.FlowDef
}

// build compiles the script and builds the flow with its effects derived.
func (fd flowDef) build(t testing.TB) (*dataflow.Flow, *optimizer.Tree) {
	t.Helper()
	prog, err := frontend.Compile(fd.script)
	if err != nil {
		t.Fatalf("%v\n%s", err, fd.script)
	}
	f, err := fd.def.Build(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, tree
}

// plan is the physical optimizer's plan for the flow as written at dop.
func (fd flowDef) plan(t testing.TB, dop int) *optimizer.PhysPlan {
	f, tree := fd.build(t)
	return optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop).Optimize(tree)
}

// row is one flow with its data and canaries.
type row struct {
	name    string
	flow    *dataflow.Flow // with tree; nil when plan builds the row's plan by hand
	tree    *optimizer.Tree
	plan    func() *optimizer.PhysPlan
	sources map[string]record.DataSet
	// variants run the chosen plan under each adjustment instead of as is;
	// like alternatives, they must all produce the same bag.
	variants []variant
	tight    func(dop int) int // the tight memory budget
	budgets  []string          // the budgets the row runs under, if not the set's
	// bag: records are not functions of their key, so behind a shuffle
	// their order within a key group is not fixed and outputs at DOP > 1
	// compare as bags.
	bag bool
	// op is the operator the row exercises: the set's spill canary counts
	// spills there, and an injected fault must be attributed to it.
	op string
	// seed is what the row was drawn from; a seeded fault derives from it.
	seed int64
	// spill: every run under the tight budget spills. combine: every run of
	// a combining plan ships fewer bytes than the reference.
	spill, combine bool
	check          func(t *testing.T, label string, out record.DataSet, stats *RunStats)
}

type variant struct {
	name  string
	apply func(t *testing.T, p *optimizer.PhysPlan)
}

// flowRow builds a row over a flow.
func flowRow(t testing.TB, name string, fd flowDef, sources map[string]record.DataSet) row {
	f, tree := fd.build(t)
	return row{name: name, flow: f, tree: tree, sources: sources}
}

// perPartition is a tight budget of b bytes per partition.
func perPartition(b int) func(int) int { return func(dop int) int { return b * dop } }

// fixed is a tight budget of b bytes whatever the DOP.
func fixed(b int) func(int) int { return func(int) int { return b } }

// configs is a config set: the cells of DOP × budget × transport × plan ×
// fault the rows of a test run under.
type configs struct {
	dops       []int
	budgets    []string // "none", "tight"; default none
	transports []string // "channel", "tcp" (every target remote), "mixed"; default channel
	// plans: "first" (the first enumerated alternative), "alts" (every
	// alternative), or by default the chosen plan — the physical plan of
	// the flow as written, or its variants.
	plans string
	// fault: "disk" or "conn" injects one fault per run; points > 0 sweeps
	// that many fault points per fault kind over one run's operations, 0
	// draws one seeded fault.
	fault  string
	points int
	// rowSub, dopSub: run each row, each DOP, as a subtest.
	rowSub, dopSub bool
	some           canary // what some run of the set must show
}

// canary names what at least one run of a set must show.
type canary uint8

const (
	sawSpill     canary = 1 << iota // a spill at a row's op (any op if unnamed)
	sawCombine                      // a combiner call
	sawBroadcast                    // a broadcast record checked intact
	sawFault                        // an injected fault surfacing as an error
	sawAlts                         // more plans than rows
)

// suite is one test's rows and config set.
type suite struct {
	set  configs
	rows func(t *testing.T) []row
}

// harness runs one suite. In dry mode it only lists its tuples.
type harness struct {
	configs
	test     string
	dry      bool
	tuples   []string
	spillDir string
	tps      map[string]*canaryTransport // by transport name
	addrs    []string
	seen     canary
	nPlans   int
}

// runSuite runs the suite the calling test is named for.
func runSuite(t *testing.T) {
	s, ok := suites[t.Name()]
	if !ok {
		t.Fatalf("no suite named %s", t.Name())
	}
	// Suites run in parallel with each other, after the package's other
	// tests; a fault sweep counts the process's goroutines, so it does not.
	if s.set.fault == "" {
		t.Parallel()
	}
	h := newHarness(t, s.set, t.Name())
	rows := s.rows(t)
	h.run(t, rows)
	if h.nPlans > len(rows)*len(h.dops) {
		h.seen |= sawAlts
	}
	if missing := h.some &^ h.seen; missing != 0 {
		t.Fatalf("no run of the set showed canary %05b (bits: alternatives, fault, broadcast, combine, spill): an axis exercises nothing", missing)
	}
}

// newHarness readies a harness for the set: a spill directory, and the
// set's transports, to two shuffle workers for the TCP ones.
func newHarness(t *testing.T, set configs, test string) *harness {
	h := &harness{configs: set.withDefaults(), test: test, spillDir: t.TempDir()}
	h.tps = map[string]*canaryTransport{"channel": {Transport: transport.Channel{}}}
	for _, name := range h.configs.transports {
		if name == "channel" {
			continue
		}
		if h.addrs == nil {
			h.addrs = startWorkerAddrs(t, 2)
		}
		tp := h.tcp(t, name, nil)
		t.Cleanup(func() { tp.Close() })
		h.tps[name] = &canaryTransport{Transport: tp}
	}
	return h
}

func (c configs) withDefaults() configs {
	if c.budgets == nil {
		c.budgets = []string{"none"}
	}
	if c.transports == nil {
		c.transports = []string{"channel"}
	}
	return c
}

// tcp opens a TCP transport to the harness's workers: every target remote,
// or ("mixed") two local slots per placement rotation.
func (h *harness) tcp(t *testing.T, name string, d transport.Dialer) *transport.TCP {
	tp, err := transport.NewTCP(transport.TCPConfig{Workers: h.addrs, LocalSlots: map[string]int{"mixed": 2}[name], Dialer: d})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func (h *harness) run(t *testing.T, rows []row) {
	for _, r := range rows {
		h.sub(t, h.rowSub, r.name, func(t *testing.T) {
			snap := snapshotSources(r.sources)
			for _, dop := range h.dops {
				h.sub(t, h.dopSub, fmt.Sprintf("dop=%d", dop), func(t *testing.T) { h.dop(t, r, dop, snap) })
			}
		})
	}
}

// sub runs f as a subtest named name when asked to (and not dry), else
// inline.
func (h *harness) sub(t *testing.T, asked bool, name string, f func(t *testing.T)) {
	if asked && !h.dry {
		t.Run(name, f)
	} else {
		f(t)
	}
}

// namedPlan is one physical plan of a row at one DOP.
type namedPlan struct {
	name string
	phys *optimizer.PhysPlan
}

// rowPlans returns the row's plans at dop under the set's plan axis (in dry
// mode only their names).
func (h *harness) rowPlans(t *testing.T, r row, dop int) []namedPlan {
	if h.configs.plans != "" {
		po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(r.flow), dop)
		alts := optimizer.NewEnumerator().Enumerate(r.tree)
		n := len(alts)
		if h.configs.plans == "first" {
			alts = alts[:1]
		}
		out := make([]namedPlan, len(alts))
		for i, a := range alts {
			if out[i].name = fmt.Sprintf("alt%d/%d", i, n); !h.dry {
				out[i].phys = po.Optimize(a)
			}
		}
		return out
	}
	vs := r.variants
	if vs == nil {
		vs = []variant{{"chosen", func(*testing.T, *optimizer.PhysPlan) {}}}
	}
	out := make([]namedPlan, len(vs))
	for i, v := range vs {
		if out[i].name = v.name; !h.dry {
			out[i].phys = r.chosen(dop)
			v.apply(t, out[i].phys)
		}
	}
	return out
}

// chosen is the row's plan at dop: the physical optimizer's plan for the
// flow as written, or the hand-built one.
func (r row) chosen(dop int) *optimizer.PhysPlan {
	if r.flow == nil {
		return r.plan()
	}
	return optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(r.flow), dop).Optimize(r.tree)
}

// dop runs every plan of the row at dop under every budget and transport of
// the set: one reference run per plan, then one pipeline run (or one fault
// sweep) per cell.
func (h *harness) dop(t *testing.T, r row, dop int, snap sourceSnapshot) {
	plans := h.rowPlans(t, r, dop)
	h.nPlans += len(plans)
	budgets := h.budgets
	if r.budgets != nil {
		budgets = r.budgets
	}
	var firstRef record.DataSet
	for pi, p := range plans {
		c := cell{r: r, plan: p, dop: dop, snap: snap}
		c.e = New(dop)
		c.e.SpillDir = h.spillDir
		for name, ds := range r.sources {
			c.e.AddSource(name, ds)
		}
		if !h.dry {
			// The reference is fully resident: a budget does not reach it.
			if r.tight != nil {
				c.e.MemoryBudget = r.tight(dop)
			}
			c.ref, c.refStats = mustRefRun(t, c.e, p.phys, fmt.Sprintf("%s %s dop=%d", r.name, p.name, dop))
			switch {
			case c.refStats.TotalSpillRuns() != 0:
				t.Fatalf("%s %s dop=%d: the reference executor spilled %d runs under a budget", r.name, p.name, dop, c.refStats.TotalSpillRuns())
			case pi == 0:
				firstRef = c.ref
			case h.configs.plans == "" && h.fixedOrder(c):
				// Variants differ in stage strategies only, and every
				// strategy emits the canonical order.
				requireByteIdentical(t, c.ref, firstRef, fmt.Sprintf("%s dop=%d: plan %s vs plan %s", r.name, dop, p.name, plans[0].name))
			case !sameBag(c.ref, firstRef):
				// Errorf, not Fatalf: every row and plan a broken rewrite
				// or key comparison breaks is named in one run.
				t.Errorf("%s dop=%d: plan %s computes a different bag than plan %s", r.name, dop, p.name, plans[0].name)
				continue
			}
		}
		shipped := map[string]int{}
		for _, tp := range h.configs.transports {
			for _, b := range budgets {
				c.transport = tp
				c.label = fmt.Sprintf("%s dop=%d plan=%s budget=%s transport=%s fault=%s", r.name, dop, p.name, b, tp, h.faultName())
				h.tuples = append(h.tuples, h.test+" "+c.label)
				if h.dry {
					continue
				}
				c.e.MemoryBudget = 0
				if b == "tight" {
					c.e.MemoryBudget = r.tight(dop)
				}
				var stats *RunStats
				if h.fault == "" {
					c.e.Transport = h.transport(tp, p.phys)
					stats = h.checkRun(t, c)
				} else {
					stats = h.faults(t, c)
				}
				if got, ok := shipped[b]; ok && got != stats.TotalShippedBytes() {
					t.Fatalf("%s: shipped %d bytes, %s shipped %d: byte accounting must not depend on the transport", c.label, stats.TotalShippedBytes(), h.configs.transports[0], got)
				}
				shipped[b] = stats.TotalShippedBytes()
			}
		}
	}
}

// transport returns the named transport, wrapped in the broadcast canary
// when the plan has a broadcast edge.
func (h *harness) transport(name string, p *optimizer.PhysPlan) transport.Transport {
	if planShips(p, optimizer.ShipBroadcast) {
		return h.tps[name]
	}
	return h.tps[name].Transport
}

// planShips reports whether any edge of the plan ships by s.
func planShips(p *optimizer.PhysPlan, s optimizer.Shipping) bool {
	for i, in := range p.Inputs {
		if (i < len(p.Ship) && p.Ship[i] == s) || planShips(in, s) {
			return true
		}
	}
	return false
}

// faultName names the set's fault axis in tuples and labels.
func (h *harness) faultName() string {
	switch {
	case h.fault == "":
		return "none"
	case h.points == 0:
		return h.fault + "/seeded"
	}
	return fmt.Sprintf("%s/sweep%d", h.fault, h.points)
}

// cell is one row's plan at one DOP, budget and transport, with its
// reference run.
type cell struct {
	r         row
	plan      namedPlan
	dop       int
	transport string
	label     string
	e         *Engine
	snap      sourceSnapshot
	ref       record.DataSet
	refStats  *RunStats
}

// checkRun runs the cell on its engine as configured and checks the run
// against the reference and the canaries.
func (h *harness) checkRun(t *testing.T, c cell) *RunStats {
	t.Helper()
	tp, _ := c.e.Transport.(*canaryTransport)
	if tp != nil {
		tp.start()
	}
	out, stats, err := runWithWatchdog(t, c.e, c.plan.phys, c.label)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	h.requireOutput(t, c, out)
	requireSameCounters(t, stats, c.refStats, c.label)
	requireSourcesIntact(t, c.e, c.snap, c.label)
	assertNoSpillFiles(t, h.spillDir)
	if tp != nil {
		bad, checked := tp.broken()
		if len(bad) > 0 {
			t.Fatalf("%s: %d broadcast records written by the run, e.g. %v", c.label, len(bad), bad[0])
		}
		if checked > 0 {
			h.seen |= sawBroadcast
		}
	}
	runs := stats.TotalSpillRuns()
	if c.e.MemoryBudget == 0 && runs != 0 {
		t.Fatalf("%s: spilled %d runs without a budget", c.label, runs)
	}
	if c.r.spill && c.e.MemoryBudget > 0 && (runs == 0 || stats.TotalSpilledBytes() == 0) {
		t.Fatalf("%s: %d spill runs, %d bytes under the tight budget: the working set should overflow", c.label, runs, stats.TotalSpilledBytes())
	}
	for _, st := range stats.PerOp {
		if st.SpillRuns > 0 && (c.r.op == "" || st.Name == c.r.op) {
			h.seen |= sawSpill
		}
	}
	// A plan that combines makes combiner calls, unless it ships nothing.
	combining := planCombines(c.plan.phys)
	if calls := stats.TotalCombinerCalls(); combining != (calls > 0) && stats.TotalShippedBytes() > 0 {
		t.Fatalf("%s: %d combiner calls from a plan that combines=%v", c.label, calls, combining)
	} else if calls > 0 {
		h.seen |= sawCombine
	}
	if c.r.combine && combining && stats.TotalShippedBytes() >= c.refStats.TotalShippedBytes() {
		t.Fatalf("%s: combining shipped %d bytes, the uncombined reference %d", c.label, stats.TotalShippedBytes(), c.refStats.TotalShippedBytes())
	}
	if c.r.check != nil {
		c.r.check(t, c.label, out, stats)
	}
	return stats
}

// requireOutput compares a run's output with the reference's: byte for byte
// where the plan fixes the order, as a bag otherwise.
func (h *harness) requireOutput(t *testing.T, c cell, out record.DataSet) {
	t.Helper()
	if h.fixedOrder(c) {
		requireByteIdentical(t, out, c.ref, c.label)
	} else if !sameBag(out, c.ref) {
		t.Fatalf("%s: output bag differs from the reference executor's", c.label)
	}
}

// fixedOrder reports whether the cell's output order is a function of its
// plan and data: the plan orders it, and the row's records are functions of
// their key or no shipped edge at DOP > 1 reorders a key group.
func (h *harness) fixedOrder(c cell) bool {
	shipped := planShips(c.plan.phys, optimizer.ShipPartition) || planShips(c.plan.phys, optimizer.ShipBroadcast)
	return ordered(c.plan.phys) && !(c.r.bag && c.dop > 1 && shipped)
}

// ordered reports whether p's output order is fixed by the plan and data: a
// grouping or join emits the canonical order whatever its inputs' arrival
// order, a Map, Sink or Cross keeps its inputs' order, and a shipped edge
// scrambles it.
func ordered(p *optimizer.PhysPlan) bool {
	switch p.Op.Kind {
	case dataflow.KindReduce, dataflow.KindMatch, dataflow.KindCoGroup:
		return true
	}
	for i, in := range p.Inputs {
		if !ordered(in) || (i < len(p.Ship) && p.Ship[i] != optimizer.ShipForward) {
			return false
		}
	}
	return true
}

// planCombines reports whether a node of p combines before its shuffle.
func planCombines(p *optimizer.PhysPlan) bool {
	return p.Combinable || slices.ContainsFunc(p.Inputs, planCombines)
}

// findOp returns the plan node of the operator named name.
func findOp(p *optimizer.PhysPlan, name string) *optimizer.PhysPlan {
	if p.Op.Name == name {
		return p
	}
	for _, in := range p.Inputs {
		if n := findOp(in, name); n != nil {
			return n
		}
	}
	return nil
}

// faults runs the cell's fault sweep: a counting run measures the fault
// surface — spill-path filesystem operations, or worker connection reads and
// writes — then each schedule injects one fault. A run either fails with the
// injected error, attributed to the row's operator, or produces the
// reference's output; either way no spill file or goroutine outlives it, and
// a fault-free rerun after each fault kind is byte-identical.
func (h *harness) faults(t *testing.T, c cell) *RunStats {
	before := runtime.NumGoroutine()
	seed := chaosSeed(t)
	var nOps int64
	var tcp *transport.TCP
	// arm installs the schedule injecting a fault of the kind at operation
	// at (at 0 none, only counting; below 0 one drawn from the row's seed).
	arm := func(at int64, kind int) injector {
		if h.fault == "disk" {
			inj := faultfs.NewInjector(faultfs.OS{}, at, faultfs.Kind(kind))
			if at < 0 {
				inj = faultfs.Seeded(faultfs.OS{}, c.r.seed+1000*(seed-1), nOps)
			}
			inj.Delay = time.Millisecond
			c.e.FS = inj
			return inj
		}
		if tcp != nil {
			tcp.Close()
		}
		d := &transport.FaultDialer{At: at, Kind: transport.ConnFault(kind), Delay: time.Millisecond}
		tcp = h.tcp(t, c.transport, d)
		c.e.Transport = tcp
		return d
	}
	kinds, minOps := int(faultfs.Latency)+1, int64(1)
	c.e.Transport = h.transport(c.transport, c.plan.phys)
	prefix := "engine: " + c.r.op + ": "
	if h.fault == "conn" {
		kinds, minOps = int(transport.ConnStall)+1, 8
		// A dropped connection fails the edge into the row's operator.
		if planShips(findOp(c.plan.phys, c.r.op), optimizer.ShipBroadcast) {
			prefix += "broadcast: "
		} else {
			prefix += "shuffle: "
		}
	}
	counter := arm(0, 0)
	stats := h.checkRun(t, c)
	if nOps = counter.Ops(); nOps < minOps {
		t.Fatalf("%s: the counting run made %d %s operations", c.label, nOps, h.fault)
	}
	faulted := 0
	// try runs one schedule and then, on its last of a kind, a fault-free
	// rerun: the engine stays usable.
	try := func(at int64, kind int, last bool) {
		var name string
		var canFail bool
		inj := arm(at, kind)
		switch inj := inj.(type) {
		case *faultfs.Injector:
			name, canFail = inj.Kind.String(), inj.Kind != faultfs.Latency
		case *transport.FaultDialer:
			name, canFail = inj.Kind.String(), inj.Kind == transport.ConnDrop
		}
		fc := c
		fc.label = fmt.Sprintf("%s kind=%s at=%d", c.label, name, at)
		out, _, err := runWithWatchdog(t, c.e, c.plan.phys, fc.label)
		var attributed *opError
		switch {
		case err == nil:
			h.requireOutput(t, fc, out)
		case !inj.Fired():
			t.Fatalf("%s: error %v without the fault firing", fc.label, err)
		case !canFail:
			t.Fatalf("%s: a %s fault surfaced an error: %v", fc.label, name, err)
		case h.fault == "disk" && !faultfs.IsInjected(err):
			t.Fatalf("%s: error %v does not wrap the injected fault", fc.label, err)
		case c.r.op != "" && (!errors.As(err, &attributed) || !strings.HasPrefix(err.Error(), prefix)):
			t.Fatalf("%s: error %v is not attributed as %q", fc.label, err, prefix)
		default:
			faulted++
			h.seen |= sawFault
		}
		assertNoSpillFiles(t, h.spillDir)
		if last {
			arm(0, 0)
			fc.label += " rerun"
			h.checkRun(t, fc)
		}
	}
	if h.points == 0 {
		try(-1, 0, true)
	} else {
		stride := max(nOps/int64(h.points), 1)
		for kind := 0; kind < kinds; kind++ {
			for at := 1 + seed%stride; at <= nOps; at += stride {
				try(at, kind, at+stride > nOps)
			}
		}
		if faulted == 0 {
			t.Fatalf("%s: no fault in the sweep surfaced an error: the injector is not reaching the run", c.label)
		}
	}
	c.e.FS = nil
	if tcp != nil {
		tcp.Close()
	}
	waitGoroutines(t, before)
	return stats
}

// injector is a fault schedule: a faultfs.Injector or a
// transport.FaultDialer.
type injector interface {
	Fired() bool
	Ops() int64
}

// chaosSeed returns the fault sweeps' seed: FAULTFS_SEED when set (the CI
// chaos job runs a small seed matrix), else 1. It shifts which fault points
// a sweep covers and which fault a seeded schedule draws, so any failure
// replays exactly under the same seed.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	v := os.Getenv("FAULTFS_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad FAULTFS_SEED %q: %v", v, err)
	}
	return seed
}

// runWithWatchdog executes the plan and fails the test if the run does not
// terminate.
func runWithWatchdog(t *testing.T, e *Engine, plan *optimizer.PhysPlan, label string) (record.DataSet, *RunStats, error) {
	t.Helper()
	type result struct {
		out   record.DataSet
		stats *RunStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		out, stats, err := e.RunContext(context.Background(), plan)
		done <- result{out, stats, err}
	}()
	select {
	case r := <-done:
		return r.out, r.stats, r.err
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: run hung past the watchdog", label)
		return nil, nil, nil
	}
}

// requireByteIdentical fails unless the two data sets hold the same records
// in the same order, encoded byte for byte — Int(1) and Float(1) differ.
func requireByteIdentical(t *testing.T, got, want record.DataSet, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%s: record %d is %v, want %v", label, i, got[i], want[i])
	}
}

// firstDiff returns the index of the first record two data sets of one
// length encode differently, or -1.
func firstDiff(got, want record.DataSet) int {
	var a, b []byte
	for i := range want {
		if a, b = got[i].AppendEncoded(a[:0]), want[i].AppendEncoded(b[:0]); !bytes.Equal(a, b) {
			return i
		}
	}
	return -1
}

// sameBag reports whether two data sets hold the same records in any order;
// most compare byte for byte, which is cheaper to see.
func sameBag(a, b record.DataSet) bool {
	return len(a) == len(b) && (firstDiff(a, b) < 0 || a.Equal(b))
}

// requireSameCounters requires the pipeline's per-operator statistics to
// match the reference executor's entry for entry: same operators in the
// same (plan post-order) positions, same records in and out, same UDF
// calls. Shipped bytes must match wherever the pipeline did not combine —
// a combiner exists to ship fewer. The reference neither combines nor
// spills, so those counters have no counterpart to compare.
func requireSameCounters(t *testing.T, got, ref *RunStats, label string) {
	t.Helper()
	if len(got.PerOp) != len(ref.PerOp) {
		t.Fatalf("%s: pipeline reports %d operators, reference %d", label, len(got.PerOp), len(ref.PerOp))
	}
	for i, r := range ref.PerOp {
		g := got.PerOp[i]
		if g.Name != r.Name || g.InRecords != r.InRecords || g.OutRecords != r.OutRecords || g.UDFCalls != r.UDFCalls {
			t.Fatalf("%s: PerOp[%d] is %s in=%d out=%d calls=%d, reference %s in=%d out=%d calls=%d",
				label, i, g.Name, g.InRecords, g.OutRecords, g.UDFCalls, r.Name, r.InRecords, r.OutRecords, r.UDFCalls)
		}
		if g.CombinerCalls == 0 && g.ShippedBytes != r.ShippedBytes {
			t.Fatalf("%s: %s shipped %d bytes, reference %d", label, g.Name, g.ShippedBytes, r.ShippedBytes)
		}
	}
}

// sourceSnapshot is a deep copy of a row's sources, each record's room up
// to its capacity included.
type sourceSnapshot map[string]record.DataSet

func snapshotSources(sources map[string]record.DataSet) sourceSnapshot {
	s := sourceSnapshot{}
	for name, ds := range sources {
		c := make(record.DataSet, len(ds))
		for i, r := range ds {
			c[i] = make(record.Record, len(r), cap(r))
			copy(c[i][:cap(r)], r[:cap(r)])
		}
		s[name] = c
	}
	return s
}

// requireSourcesIntact is the source canary: no run may write a source row,
// within its length or past it.
func requireSourcesIntact(t *testing.T, e *Engine, want sourceSnapshot, label string) {
	t.Helper()
	for name, ds := range e.Sources {
		for i, r := range ds {
			if !intact(r, want[name][i]) {
				t.Fatalf("%s: source %s record %d is %v, was %v", label, name, i, r[:cap(r)], want[name][i][:cap(want[name][i])])
			}
		}
	}
}

// intact reports whether r still has was's length, capacity and Values.
func intact(r, was record.Record) bool {
	return len(r) == len(was) && cap(r) == cap(was) && slices.Equal(r[:cap(r)], was[:cap(was)])
}

// canaryTransport is the broadcast canary: it wraps a transport and keeps a
// deep copy, room included, of every record a session sends, as of its
// first send. A record sent to two targets is a broadcast input, which every
// partition reads, so no run may write it; broken lists those that changed.
type canaryTransport struct {
	transport.Transport
	mu   sync.Mutex
	sent map[*record.Value]canaryRecord // by the record's storage
}

type canaryRecord struct {
	rec, was  record.Record
	target    int  // the first target it was sent to
	broadcast bool // sent to a second target too
}

type canaryShuffle struct {
	transport.Shuffle
	c *canaryTransport
}

func (c *canaryTransport) OpenShuffle(ctx context.Context, spec transport.Spec) (transport.Shuffle, error) {
	sh, err := c.Transport.OpenShuffle(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &canaryShuffle{sh, c}, nil
}

func (s *canaryShuffle) Send(target int, b *record.Batch) error {
	c := s.c
	c.mu.Lock()
	for _, r := range b.Records() {
		if cap(r) == 0 {
			continue
		}
		sr, ok := c.sent[unsafe.SliceData(r)]
		switch {
		case !ok:
			was := make(record.Record, len(r), cap(r))
			copy(was[:cap(r)], r[:cap(r)])
			c.sent[unsafe.SliceData(r)] = canaryRecord{rec: r, was: was, target: target}
		case !sr.broadcast && sr.target != target:
			sr.broadcast = true
			c.sent[unsafe.SliceData(r)] = sr
		}
	}
	c.mu.Unlock()
	return s.Shuffle.Send(target, b)
}

// start forgets the last run's records.
func (c *canaryTransport) start() {
	c.sent = map[*record.Value]canaryRecord{}
}

// broken returns the broadcast records the last run wrote, and how many it
// checked.
func (c *canaryTransport) broken() (bad []record.Record, checked int) {
	for _, sr := range c.sent {
		if !sr.broadcast {
			continue
		}
		checked++
		if !intact(sr.rec, sr.was) {
			bad = append(bad, sr.was)
		}
	}
	return bad, checked
}

// TestHarnessGolden pins the (test, row, config) tuples the suites table
// expands to, so a change that drops a row or a config cell fails here.
// Regenerate with `go test ./internal/engine -run TestHarnessGolden -update`.
func TestHarnessGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(suites)) {
		s := suites[name]
		h := &harness{configs: s.set.withDefaults(), test: name, dry: true}
		h.run(t, s.rows(t))
		for _, tu := range h.tuples {
			b.WriteString(tu + "\n")
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "harness.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("the suites expand to %d tuples, %s pins %d others: regenerate it with -update and read the diff for lost cells",
			strings.Count(got, "\n"), path, strings.Count(string(want), "\n"))
	}
}
