package sampling

import (
	"math"
	"testing"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
	"blackboxflow/internal/workloads/tpch"
)

var prog = frontend.MustCompile(`
map halve(ir) {
	a := ir[0]
	m := a % 2
	if m == 0 {
		emit ir
	}
}
reduce count(g) {
	r := g.at(0)
	out := copy(r)
	n := count(g, 1)
	out[1] = null
	out[2] = n
	emit out
}
match jn(l, r) {
	o := concat(l, r)
	emit o
}
`)

func udf(name string) *tac.Func {
	f, ok := prog.Lookup(name)
	if !ok {
		panic(name)
	}
	return f
}

func TestDeriveHintsSelectivity(t *testing.T) {
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"k", "v"}, dataflow.Hints{Records: 10000, AvgWidthBytes: 18})
	m := f.Map("halve", udf("halve"), src, dataflow.Hints{})
	f.DeclareAttr("n")
	red := f.Reduce("count", udf("count"), []string{"k"}, m, dataflow.Hints{})
	f.SetSink("out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}

	var data record.DataSet
	for i := 0; i < 10000; i++ {
		data = append(data, record.Record{record.Int(int64(i)), record.Int(int64(i % 50))})
	}

	ms, err := DeriveHints(f, map[string]record.DataSet{"S": data}, Options{SampleSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}

	// The halve filter keeps every other record.
	if got := m.Hints.Selectivity; math.Abs(got-0.5) > 0.1 {
		t.Errorf("filter selectivity = %g, want ≈ 0.5", got)
	}
	if m.Hints.CPUCostPerCall <= 0 {
		t.Error("CPU cost hint not set")
	}
	// The reduce sees ~10000 distinct keys (k is unique); scaled estimate
	// should be in the thousands.
	if got := red.Hints.KeyCardinality; got < 2000 {
		t.Errorf("key cardinality = %g, want thousands", got)
	}
}

func TestDeriveHintsKeepExisting(t *testing.T) {
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"k"}, dataflow.Hints{Records: 100, AvgWidthBytes: 9})
	m := f.Map("halve", udf("halve"), src, dataflow.Hints{Selectivity: 0.9})
	f.SetSink("out", m)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	var data record.DataSet
	for i := 0; i < 100; i++ {
		data = append(data, record.Record{record.Int(int64(i))})
	}
	if _, err := DeriveHints(f, map[string]record.DataSet{"S": data}, Options{KeepExisting: true}); err != nil {
		t.Fatal(err)
	}
	if m.Hints.Selectivity != 0.9 {
		t.Errorf("existing hint overwritten: %g", m.Hints.Selectivity)
	}
	if _, err := DeriveHints(f, map[string]record.DataSet{"S": data}, Options{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Hints.Selectivity-0.5) > 0.1 {
		t.Errorf("hint not refreshed: %g", m.Hints.Selectivity)
	}
}

func TestDeriveHintsJoin(t *testing.T) {
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"lk"}, dataflow.Hints{Records: 1000, AvgWidthBytes: 9})
	r := f.Source("R", []string{"rk", "rv"}, dataflow.Hints{Records: 100, AvgWidthBytes: 18})
	j := f.Match("J", udf("jn"), []string{"lk"}, []string{"rk"}, l, r, dataflow.Hints{})
	f.SetSink("out", j)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	var lData, rData record.DataSet
	for i := 0; i < 1000; i++ {
		lData = append(lData, record.Record{record.Int(int64(i % 100))})
	}
	for i := 0; i < 100; i++ {
		rData = append(rData, record.Record{record.Null, record.Int(int64(i)), record.Int(int64(i))})
	}
	ms, err := DeriveHints(f, map[string]record.DataSet{"L": lData, "R": rData}, Options{SampleSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	var jm *Measurement
	for i := range ms {
		if ms[i].Op.Name == "J" {
			jm = &ms[i]
		}
	}
	if jm == nil || jm.Calls == 0 {
		t.Fatal("join not profiled")
	}
	if j.Hints.KeyCardinality <= 0 {
		t.Error("join key cardinality not estimated")
	}
}

// TestSampledHintsImproveQ15Estimates: the profiled hints should give the
// optimizer cardinality estimates of the right order for the Q15 flow.
func TestSampledHintsImproveQ15Estimates(t *testing.T) {
	g := tpch.DefaultGen()
	q, err := tpch.BuildQ15(tpch.ModeSCA, g)
	if err != nil {
		t.Fatal(err)
	}
	data := g.Generate(q.Flow)

	// Erase the hand-tuned hints, keeping only source cardinalities.
	for _, op := range q.Flow.Operators() {
		if op.IsUDFOp() {
			op.Hints = dataflow.Hints{}
		}
	}
	if _, err := DeriveHints(q.Flow, data, Options{SampleSize: 2000}); err != nil {
		t.Fatal(err)
	}

	tree, err := optimizer.FromFlow(q.Flow)
	if err != nil {
		t.Fatal(err)
	}
	est := optimizer.NewEstimator(q.Flow)
	got := est.Records(tree)
	// Ground truth: one output row per supplier with quarter lineitems.
	want := 0.0
	seen := map[int64]bool{}
	fl := q.Flow
	for _, r := range data["lineitem"] {
		d := r.Field(fl.Attr("l_shipdate")).AsInt()
		if d >= tpch.Q15Date && d <= tpch.Q15Date2 {
			if sk := r.Field(fl.Attr("l_suppkey")).AsInt(); !seen[sk] {
				seen[sk] = true
				want++
			}
		}
	}
	if got < want/3 || got > want*3 {
		t.Errorf("estimated %g output records, ground truth %g (want within 3x)", got, want)
	}
}

func TestSampleStride(t *testing.T) {
	var d record.DataSet
	for i := 0; i < 1000; i++ {
		d = append(d, record.Record{record.Int(int64(i))})
	}
	s := sample(d, 100)
	if len(s) != 100 {
		t.Fatalf("sample size %d", len(s))
	}
	// Spans the range rather than taking a prefix.
	var above int
	for _, r := range s {
		if r.Field(0).AsInt() >= 500 {
			above++
		}
	}
	if above < 20 {
		t.Errorf("sample does not span the data: %d/100 above the midpoint", above)
	}
	// Deterministic.
	s2 := sample(d, 100)
	for i := range s {
		if !s[i].Equal(s2[i]) {
			t.Fatal("sampling must be deterministic")
		}
	}
	small := sample(d[:5], 100)
	if len(small) != 5 {
		t.Errorf("small data must be returned whole")
	}
}

func TestMissingSource(t *testing.T) {
	f := dataflow.NewFlow()
	src := f.Source("S", []string{"k"}, dataflow.Hints{})
	m := f.Map("halve", udf("halve"), src, dataflow.Hints{})
	f.SetSink("out", m)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	if _, err := DeriveHints(f, nil, Options{}); err == nil {
		t.Fatal("expected missing-source error")
	}
}
