package engine

import (
	"math/rand"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// paperProgram is the Section 3 example: f1 = |B|, f2 = filter A>=0,
// f3 = A+B over fields A=0, B=1.
var paperProgram = frontend.MustCompile(`
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

func getUDF(t *testing.T, p *tac.Program, name string) *tac.Func {
	t.Helper()
	f, ok := p.Lookup(name)
	if !ok {
		t.Fatalf("missing UDF %s", name)
	}
	return f
}

// buildPaperFlow constructs I -> f1 -> f2 -> f3 -> O with SCA effects.
func buildPaperFlow(t *testing.T) (*dataflow.Flow, *optimizer.Tree) {
	t.Helper()
	f := dataflow.NewFlow()
	src := f.Source("I", []string{"A", "B"}, dataflow.Hints{Records: 100, AvgWidthBytes: 18})
	o1 := f.Map("f1", getUDF(t, paperProgram, "f1"), src, dataflow.Hints{})
	o2 := f.Map("f2", getUDF(t, paperProgram, "f2"), o1, dataflow.Hints{Selectivity: 0.5})
	o3 := f.Map("f3", getUDF(t, paperProgram, "f3"), o2, dataflow.Hints{})
	f.SetSink("O", o3)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, tree
}

func runPlan(t *testing.T, e *Engine, f *dataflow.Flow, tree *optimizer.Tree) record.DataSet {
	t.Helper()
	est := optimizer.NewEstimator(f)
	po := optimizer.NewPhysicalOptimizer(est, e.DOP)
	phys := po.Optimize(tree)
	out, _, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPaperPipelineExecution(t *testing.T) {
	f, tree := buildPaperFlow(t)
	e := New(4)
	e.AddSource("I", record.DataSet{
		{record.Int(2), record.Int(-3)},
		{record.Int(-2), record.Int(-3)},
	})
	out := runPlan(t, e, f, tree)
	want := record.DataSet{{record.Int(5), record.Int(3)}}
	if !out.Equal(want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}

// TestAllAlternativesEquivalent is the core soundness property of the whole
// system: every plan the optimizer enumerates must produce the same output
// bag as the original (the paper's definition of SCA safety, Section 5).
func TestAllAlternativesEquivalent(t *testing.T) {
	f, tree := buildPaperFlow(t)
	rng := rand.New(rand.NewSource(7))
	data := make(record.DataSet, 200)
	for i := range data {
		data[i] = record.Record{record.Int(int64(rng.Intn(21) - 10)), record.Int(int64(rng.Intn(21) - 10))}
	}
	e := New(4)
	e.AddSource("I", data)

	alts := optimizer.NewEnumerator().Enumerate(tree)
	if len(alts) < 2 {
		t.Fatalf("expected multiple alternatives, got %d", len(alts))
	}
	ref := runPlan(t, e, f, alts[0])
	for _, a := range alts[1:] {
		out := runPlan(t, e, f, a)
		if !out.Equal(ref) {
			t.Errorf("plan %s output differs from %s", a, alts[0])
		}
	}
}

// TestJoinExecutionStrategies: hash join and merge join produce identical
// results, and broadcast vs partition shipping does not change the output.
func TestJoinExecutionStrategies(t *testing.T) {
	prog := frontend.MustCompile(`
match join(l, r) {
	o := concat(l, r)
	emit o
}
`)
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: 50, AvgWidthBytes: 18})
	r := f.Source("R", []string{"rk", "rv"}, dataflow.Hints{Records: 50, AvgWidthBytes: 18})
	j := f.Match("J", getUDF(t, prog, "join"), []string{"lk"}, []string{"rk"}, l, r, dataflow.Hints{KeyCardinality: 10})
	f.SetSink("Out", j)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}

	var lData, rData record.DataSet
	for i := 0; i < 50; i++ {
		lData = append(lData, record.Record{record.Int(int64(i % 10)), record.Int(int64(i))})
		rData = append(rData, record.Record{record.Null, record.Null, record.Int(int64(i % 10)), record.Int(int64(100 + i))})
	}

	e := New(4)
	e.AddSource("L", lData)
	e.AddSource("R", rData)

	est := optimizer.NewEstimator(f)
	po := optimizer.NewPhysicalOptimizer(est, 4)
	base := po.Optimize(tree)
	want, _, err := e.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// 50x50 with 10 keys, 5 records per key per side: 10 * 5 * 5 = 250.
	if len(want) != 250 {
		t.Fatalf("join produced %d records, want 250", len(want))
	}

	// Force each strategy combination through handcrafted physical plans.
	mk := func(ship [2]optimizer.Shipping, local optimizer.Local, build int) *optimizer.PhysPlan {
		lSrc := &optimizer.PhysPlan{Op: l, Local: optimizer.LocalScan}
		rSrc := &optimizer.PhysPlan{Op: r, Local: optimizer.LocalScan}
		jn := &optimizer.PhysPlan{
			Op: j, Inputs: []*optimizer.PhysPlan{lSrc, rSrc},
			Ship: ship[:], Local: local, BuildSide: build,
		}
		return &optimizer.PhysPlan{
			Op: f.Sink, Inputs: []*optimizer.PhysPlan{jn},
			Ship: []optimizer.Shipping{optimizer.ShipForward}, Local: optimizer.LocalPipe,
		}
	}
	cases := []struct {
		name string
		plan *optimizer.PhysPlan
	}{
		{"partition+hash", mk([2]optimizer.Shipping{optimizer.ShipPartition, optimizer.ShipPartition}, optimizer.LocalHashJoin, 0)},
		{"partition+hash-build-right", mk([2]optimizer.Shipping{optimizer.ShipPartition, optimizer.ShipPartition}, optimizer.LocalHashJoin, 1)},
		{"partition+merge", mk([2]optimizer.Shipping{optimizer.ShipPartition, optimizer.ShipPartition}, optimizer.LocalMergeJoin, 0)},
		{"broadcast-left+hash", mk([2]optimizer.Shipping{optimizer.ShipBroadcast, optimizer.ShipForward}, optimizer.LocalHashJoin, 0)},
		{"broadcast-right+hash", mk([2]optimizer.Shipping{optimizer.ShipForward, optimizer.ShipBroadcast}, optimizer.LocalHashJoin, 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, _, err := e.Run(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s: %d records, want %d (bag mismatch)", c.name, len(got), len(want))
			}
		})
	}
}

func TestReduceExecution(t *testing.T) {
	prog := frontend.MustCompile(`
reduce sum(g) {
	first := g.at(0)
	out := copy(first)
	out[2] = sum(g, 1)
	emit out
}
`)
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"k", "v"}, dataflow.Hints{Records: 100, AvgWidthBytes: 18})
	f.DeclareAttr("sum")
	red := f.Reduce("R", getUDF(t, prog, "sum"), []string{"k"}, src, dataflow.Hints{KeyCardinality: 5})
	f.SetSink("Out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, _ := optimizer.FromFlow(f)

	var data record.DataSet
	wantSums := map[int64]int64{}
	for i := 0; i < 100; i++ {
		k, v := int64(i%5), int64(i)
		data = append(data, record.Record{record.Int(k), record.Int(v)})
		wantSums[k] += v
	}
	e := New(4)
	e.AddSource("S", data)
	out := runPlan(t, e, f, tree)
	if len(out) != 5 {
		t.Fatalf("reduce produced %d groups, want 5", len(out))
	}
	for _, r := range out {
		k := r.Field(0).AsInt()
		if got := r.Field(2).AsInt(); got != wantSums[k] {
			t.Errorf("sum(k=%d) = %d, want %d", k, got, wantSums[k])
		}
	}
}

func TestReduceHashVsSortGrouping(t *testing.T) {
	prog := frontend.MustCompile(`
reduce count(g) {
	first := g.at(0)
	out := copy(first)
	out[2] = count(g, 0)
	emit out
}
`)
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"k", "v"}, dataflow.Hints{Records: 60, AvgWidthBytes: 18})
	f.DeclareAttr("n")
	red := f.Reduce("R", getUDF(t, prog, "count"), []string{"k"}, src, dataflow.Hints{KeyCardinality: 6})
	f.SetSink("Out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}

	var data record.DataSet
	for i := 0; i < 60; i++ {
		data = append(data, record.Record{record.Int(int64(i % 6)), record.Int(int64(i))})
	}
	e := New(3)
	e.AddSource("S", data)

	mk := func(local optimizer.Local) *optimizer.PhysPlan {
		srcP := &optimizer.PhysPlan{Op: src, Local: optimizer.LocalScan}
		rp := &optimizer.PhysPlan{
			Op: red, Inputs: []*optimizer.PhysPlan{srcP},
			Ship: []optimizer.Shipping{optimizer.ShipPartition}, Local: local,
		}
		return &optimizer.PhysPlan{
			Op: f.Sink, Inputs: []*optimizer.PhysPlan{rp},
			Ship: []optimizer.Shipping{optimizer.ShipForward}, Local: optimizer.LocalPipe,
		}
	}
	a, _, err := e.Run(mk(optimizer.LocalSortGroup))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.Run(mk(optimizer.LocalHashGroup))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("sort and hash grouping must agree")
	}
	if len(a) != 6 {
		t.Errorf("got %d groups, want 6", len(a))
	}
	for _, r := range a {
		if r.Field(2).AsInt() != 10 {
			t.Errorf("group %v count = %d, want 10", r.Field(0), r.Field(2).AsInt())
		}
	}
}

func TestCrossExecution(t *testing.T) {
	prog := frontend.MustCompile(`
cross pair(l, r) {
	o := concat(l, r)
	emit o
}
`)
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"a"}, dataflow.Hints{Records: 5, AvgWidthBytes: 9})
	r := f.Source("R", []string{"b"}, dataflow.Hints{Records: 7, AvgWidthBytes: 9})
	cr := f.Cross("X", getUDF(t, prog, "pair"), l, r, dataflow.Hints{})
	f.SetSink("Out", cr)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, _ := optimizer.FromFlow(f)

	var lData, rData record.DataSet
	for i := 0; i < 5; i++ {
		lData = append(lData, record.Record{record.Int(int64(i))})
	}
	for i := 0; i < 7; i++ {
		rData = append(rData, record.Record{record.Null, record.Int(int64(i))})
	}
	e := New(4)
	e.AddSource("L", lData)
	e.AddSource("R", rData)
	out := runPlan(t, e, f, tree)
	if len(out) != 35 {
		t.Fatalf("cross produced %d records, want 35", len(out))
	}
}

func TestCoGroupExecution(t *testing.T) {
	prog := frontend.MustCompile(`
cogroup cg(g1, g2) {
	n1 := g1.size()
	if n1 != 0 {
		r := g1.at(0)
		out := copy(r)
		n2 := g2.size()
		out[3] = n2
		emit out
	}
}
`)
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: 20, AvgWidthBytes: 18})
	r := f.Source("R", []string{"rk"}, dataflow.Hints{Records: 9, AvgWidthBytes: 9})
	f.DeclareAttr("matches")
	cg := f.CoGroup("CG", getUDF(t, prog, "cg"), []string{"lk"}, []string{"rk"}, l, r, dataflow.Hints{KeyCardinality: 5})
	f.SetSink("Out", cg)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, _ := optimizer.FromFlow(f)

	var lData, rData record.DataSet
	for i := 0; i < 20; i++ {
		lData = append(lData, record.Record{record.Int(int64(i % 5)), record.Int(int64(i))})
	}
	// Keys 0..2 appear 3 times each in R; keys 3, 4 never.
	for i := 0; i < 9; i++ {
		rData = append(rData, record.Record{record.Null, record.Null, record.Int(int64(i % 3))})
	}
	e := New(4)
	e.AddSource("L", lData)
	e.AddSource("R", rData)
	out := runPlan(t, e, f, tree)
	// One record per left key group (5 keys, 4 records each -> 5 outputs;
	// the UDF emits one per group with a non-empty left side).
	if len(out) != 5 {
		t.Fatalf("cogroup produced %d records, want 5\n%v", len(out), out)
	}
	for _, rec := range out {
		k := rec.Field(0).AsInt()
		want := int64(0)
		if k < 3 {
			want = 3
		}
		if got := rec.Field(3).AsInt(); got != want {
			t.Errorf("key %d matches = %d, want %d", k, got, want)
		}
	}
}

func TestRunStatsAccounting(t *testing.T) {
	f, tree := buildPaperFlow(t)
	e := New(2)
	data := record.DataSet{
		{record.Int(1), record.Int(2)},
		{record.Int(-1), record.Int(2)},
		{record.Int(3), record.Int(-4)},
	}
	e.AddSource("I", data)
	est := optimizer.NewEstimator(f)
	po := optimizer.NewPhysicalOptimizer(est, 2)
	phys := po.Optimize(tree)
	out, stats, err := e.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	calls := stats.TotalUDFCalls()
	// f1: 3 calls; f2: 3 calls; f3: 2 calls (one record filtered).
	if calls != 8 {
		t.Errorf("UDF calls = %d, want 8\n%s", calls, stats)
	}
	// All-Map pipeline with forward shipping: no network traffic.
	if stats.TotalShippedBytes() != 0 {
		t.Errorf("shipped = %d, want 0", stats.TotalShippedBytes())
	}
}

func TestMissingSourceData(t *testing.T) {
	f, tree := buildPaperFlow(t)
	e := New(2)
	est := optimizer.NewEstimator(f)
	po := optimizer.NewPhysicalOptimizer(est, 2)
	_, _, err := e.Run(po.Optimize(tree))
	if err == nil {
		t.Fatal("expected error for missing source data")
	}
}

func TestShuffleBytesAccounted(t *testing.T) {
	prog := frontend.MustCompile(`
reduce first(g) {
	r := g.at(0)
	emit r
}
`)
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"k"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
	red := f.Reduce("R", getUDF(t, prog, "first"), []string{"k"}, src, dataflow.Hints{KeyCardinality: 10})
	f.SetSink("Out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, _ := optimizer.FromFlow(f)

	var data record.DataSet
	for i := 0; i < 100; i++ {
		data = append(data, record.Record{record.Int(int64(i % 10))})
	}
	e := New(4)
	e.AddSource("S", data)
	est := optimizer.NewEstimator(f)
	po := optimizer.NewPhysicalOptimizer(est, 4)
	_, stats, err := e.Run(po.Optimize(tree))
	if err != nil {
		t.Fatal(err)
	}
	want := data.TotalSize()
	if got := stats.TotalShippedBytes(); got != want {
		t.Errorf("shuffle bytes = %d, want %d", got, want)
	}
}

func TestPartitionedHelpers(t *testing.T) {
	p := Partitioned{
		{{record.Int(1)}},
		{{record.Int(2)}, {record.Int(3)}},
		nil,
	}
	if p.Records() != 3 {
		t.Errorf("Records = %d", p.Records())
	}
	if len(p.Flatten()) != 3 {
		t.Errorf("Flatten = %v", p.Flatten())
	}
}

func TestDOPOne(t *testing.T) {
	f, tree := buildPaperFlow(t)
	e := New(1)
	e.AddSource("I", record.DataSet{{record.Int(1), record.Int(1)}})
	out := runPlan(t, e, f, tree)
	want := record.DataSet{{record.Int(2), record.Int(1)}}
	if !out.Equal(want) {
		t.Fatalf("out = %v, want %v", out, want)
	}
}
