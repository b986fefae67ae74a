package engine

import (
	"context"
	"fmt"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// buildJoinFlow constructs L(lk,lv) ⋈ R(rk,rv) on lk=rk with a concat UDF.
func buildJoinFlow(t *testing.T, lRecs, rRecs, keyCard float64) (*dataflow.Flow, *optimizer.Tree) {
	t.Helper()
	prog := tac.MustParse(`
func binary jn($l, $r) {
	$o := concat $l $r
	emit $o
}
`)
	udf, _ := prog.Lookup("jn")
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: lRecs, AvgWidthBytes: 20})
	r := f.Source("R", []string{"rk", "rv"}, dataflow.Hints{Records: rRecs, AvgWidthBytes: 20})
	j := f.Match("J", udf, []string{"lk"}, []string{"rk"}, l, r, dataflow.Hints{KeyCardinality: keyCard})
	f.SetSink("Out", j)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, tree
}

// joinTestData builds the two sides of a join whose byte-level output is
// scheduler-independent: every record is fully determined by its key, so
// the within-key arrival order (which varies with sender interleaving at
// DOP > 1) permutes identical records only. Left keys are [0, lKeys),
// right keys [rLo, rLo+rKeys) — the overlap is the matching key range.
func joinTestData(lN, lKeys, rN, rKeys, rLo int) (record.DataSet, record.DataSet) {
	lData := make(record.DataSet, lN)
	for i := range lData {
		k := int64(i % lKeys)
		lData[i] = record.Record{record.Int(k), record.Int(k*7 + 1)}
	}
	rData := make(record.DataSet, rN)
	for i := range rData {
		k := int64(i%rKeys + rLo)
		rData[i] = record.Record{record.Null, record.Null, record.Int(k), record.Int(k*3 + 2)}
	}
	return lData, rData
}

// findMatchNode returns the first Match node in the physical plan.
func findMatchNode(p *optimizer.PhysPlan) *optimizer.PhysPlan {
	if p.Op.Kind == dataflow.KindMatch {
		return p
	}
	for _, in := range p.Inputs {
		if n := findMatchNode(in); n != nil {
			return n
		}
	}
	return nil
}

// TestSpillJoinEquivalence pins the tentpole contract for joins: a Match
// whose shuffled sides overflow MemoryBudget completes with SpillRuns > 0
// and produces output byte-identical to the unlimited-budget run, at DOP
// {1, 2, 8, 17}, with identical per-operator record counts, UDF calls, and
// shipped bytes — for both the merge-join plan (which uses the external
// merge directly) and the hash-join plan (which falls back to it).
func TestSpillJoinEquivalence(t *testing.T) {
	const (
		lN, lKeys     = 12000, 300
		rN, rKeys     = 6000, 400
		rLo           = 200
		matchingPairs = 100 * (lN / lKeys) * (rN / rKeys) // 100 overlapping keys
	)
	lData, rData := joinTestData(lN, lKeys, rN, rKeys, rLo)
	f, tree := buildJoinFlow(t, lN, rN, 500)

	for _, local := range []optimizer.Local{optimizer.LocalMergeJoin, optimizer.LocalHashJoin} {
		t.Run(local.String(), func(t *testing.T) {
			for _, dop := range []int{1, 2, 8, 17} {
				t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
					po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop)
					phys := po.Optimize(tree)
					match := findMatchNode(phys)
					if match == nil {
						t.Fatal("no Match node in plan")
					}
					// Force the repartition strategy (at low DOP the optimizer
					// may prefer broadcasting the small side, which does not
					// shuffle and therefore never spills).
					match.Ship = []optimizer.Shipping{optimizer.ShipPartition, optimizer.ShipPartition}
					match.Local = local

					e := New(dop)
					e.AddSource("L", lData)
					e.AddSource("R", rData)
					e.SpillDir = t.TempDir()
					refOut, refStats, err := e.Run(phys)
					if err != nil {
						t.Fatal(err)
					}
					if len(refOut) != matchingPairs {
						t.Fatalf("unlimited run emitted %d records, want %d", len(refOut), matchingPairs)
					}
					if refStats.TotalSpillRuns() != 0 {
						t.Fatalf("unlimited run spilled %d runs", refStats.TotalSpillRuns())
					}

					// ~26 B/record × 18k records ≈ 460 KB through the two
					// shuffles; a 32 KB budget forces runs on both sides.
					e.MemoryBudget = 32 << 10
					spillOut, spillStats, err := e.Run(phys)
					if err != nil {
						t.Fatal(err)
					}
					requireByteIdentical(t, spillOut, refOut, "budgeted join output")
					if spillStats.TotalSpillRuns() == 0 {
						t.Fatal("budgeted join run wrote no spill runs")
					}

					s, r := statsByName(spillStats)["J"], statsByName(refStats)["J"]
					if s.InRecords != r.InRecords || s.OutRecords != r.OutRecords || s.UDFCalls != r.UDFCalls {
						t.Errorf("spilled stats in=%d out=%d calls=%d, unlimited in=%d out=%d calls=%d",
							s.InRecords, s.OutRecords, s.UDFCalls, r.InRecords, r.OutRecords, r.UDFCalls)
					}
					if s.ShippedBytes != r.ShippedBytes {
						t.Errorf("spilling changed shipped bytes: %d vs %d", s.ShippedBytes, r.ShippedBytes)
					}
				})
			}
		})
	}
}

// TestJoinStrategiesByteIdentical pins the canonical join order across
// local strategies: hash join and merge join emit not just the same bag
// but the same byte sequence (ascending key, left-major within a key) —
// the invariant that lets a budgeted hash-join plan fall back to the
// external merge join without changing its output.
func TestJoinStrategiesByteIdentical(t *testing.T) {
	lData, rData := joinTestData(2000, 50, 1500, 60, 20)
	f, tree := buildJoinFlow(t, 2000, 1500, 80)
	po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 4)
	phys := po.Optimize(tree)
	match := findMatchNode(phys)
	if match == nil {
		t.Fatal("no Match node in plan")
	}

	e := New(4)
	e.AddSource("L", lData)
	e.AddSource("R", rData)

	match.Local = optimizer.LocalMergeJoin
	mergeOut, _, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []int{0, 1} {
		match.Local = optimizer.LocalHashJoin
		match.BuildSide = build
		hashOut, _, err := e.Run(phys)
		if err != nil {
			t.Fatal(err)
		}
		requireByteIdentical(t, hashOut, mergeOut, fmt.Sprintf("hash join (build=%d) vs merge join", build))
	}
}

// TestBroadcastShipNoAliasing is the mutation canary for the broadcast
// shipping fix: each partition must own its slice of record headers, so a
// local strategy that reorders one partition in place (as the merge join's
// in-place sort does) cannot be observed by its siblings.
func TestBroadcastShipNoAliasing(t *testing.T) {
	e := New(3)
	var in Partitioned = Partitioned{{
		{record.Int(3)}, {record.Int(1)}, {record.Int(2)},
	}}
	ed := edge{ship: optimizer.ShipBroadcast, data: in}
	bytes, err := e.shuffle(context.Background(), e.TraceParent, &ed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := ed.data
	if len(out) != 3 {
		t.Fatalf("broadcast produced %d partitions, want 3", len(out))
	}
	if want := 3 * record.DataSet(in[0]).TotalSize(); bytes != want {
		t.Errorf("broadcast shipped %d bytes, want %d", bytes, want)
	}
	// Reorder partition 0 in place; every other partition (and the input)
	// must keep the original order.
	sortByKey(out[0], []int{0})
	wantOrig := []int64{3, 1, 2}
	for p := 1; p < 3; p++ {
		for i, want := range wantOrig {
			if got := out[p][i].Field(0).AsInt(); got != want {
				t.Fatalf("partition %d record %d = %d after sibling sort, want %d (aliased slices)", p, i, got, want)
			}
		}
	}
	for i, want := range wantOrig {
		if got := in[0][i].Field(0).AsInt(); got != want {
			t.Fatalf("input record %d = %d after sibling sort, want %d (aliased slices)", i, got, want)
		}
	}
}

// TestSpillTinyBudgetRunCountBounded is the regression test for the
// budget-share underflow: MemoryBudget=1 divides to a zero per-partition
// share, which — unfloored — spilled every arriving batch as its own
// sorted run. With the share floored at one batch's worth, every run
// covers at least two arriving batches, so the run count is bounded by
// half the batch arrivals instead of equal to them.
func TestSpillTinyBudgetRunCountBounded(t *testing.T) {
	const (
		n    = 20000
		keys = 50
		dop  = 8
	)
	data := wordcountData(n, keys)
	f, tree := buildWordcountFlow(t, n, keys)
	po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop)
	phys := po.Optimize(tree)

	e := New(dop)
	e.AddSource("words", data)
	e.SpillDir = t.TempDir()
	ref, _, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}

	e.MemoryBudget = 1
	out, stats, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	requireByteIdentical(t, out, ref, "tiny-budget output")
	if stats.TotalSpillRuns() == 0 {
		t.Fatal("tiny budget wrote no spill runs")
	}
	// Each of the 8 senders flushes one (sub-batch-size) tail batch per
	// target: 64 arrivals. Unfloored, each became its own run (64); floored,
	// a run covers at least two arrivals.
	if maxRuns := dop * dop / 2; stats.TotalSpillRuns() > maxRuns {
		t.Errorf("tiny budget wrote %d runs, want <= %d (budget floor not applied)",
			stats.TotalSpillRuns(), maxRuns)
	}
}
