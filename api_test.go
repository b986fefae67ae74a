package blackboxflow_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"blackboxflow"
)

// TestFacadeEndToEnd drives the whole public API: compile PactScript,
// build a flow, analyze, enumerate, optimize, execute.
func TestFacadeEndToEnd(t *testing.T) {
	prog, err := blackboxflow.CompileUDFs(`
map clean(ir) {
	v := ir[1]
	out := copy(ir)
	out[1] = abs(v)
	emit out
}
map keepPositive(ir) {
	if ir[0] > 0 {
		emit ir
	}
}
reduce total(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = null
	out[2] = sum(g, 1)
	emit out
}
`)
	if err != nil {
		t.Fatal(err)
	}

	flow := blackboxflow.NewFlow()
	src := flow.Source("in", []string{"k", "v"}, blackboxflow.Hints{Records: 1000, AvgWidthBytes: 18})
	flow.DeclareAttr("total")
	c := flow.Map("clean", prog.Funcs["clean"], src, blackboxflow.Hints{})
	k := flow.Map("keepPositive", prog.Funcs["keepPositive"], c, blackboxflow.Hints{Selectivity: 0.5})
	r := flow.Reduce("total", prog.Funcs["total"], []string{"k"}, k, blackboxflow.Hints{KeyCardinality: 10})
	flow.SetSink("out", r)

	if err := flow.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}

	alts, err := blackboxflow.Enumerate(flow)
	if err != nil {
		t.Fatal(err)
	}
	// clean (reads/writes v) and keepPositive (reads k) commute; the
	// filter's condition field k is the grouping key, so it may also pass
	// the Reduce (Theorem 2), while clean (writes v, which total reads)
	// may not.
	if len(alts) != 3 {
		var got []string
		for _, a := range alts {
			got = append(got, a.String())
		}
		t.Fatalf("plans = %d %v, want 3", len(alts), got)
	}

	var data blackboxflow.DataSet
	wantTotals := map[int64]int64{}
	for i := 0; i < 1000; i++ {
		key := int64(i%20 - 10) // keys -10..9
		v := int64(i%7 - 3)
		data = append(data, blackboxflow.Record{blackboxflow.Int(key), blackboxflow.Int(v)})
		if key > 0 {
			av := v
			if av < 0 {
				av = -av
			}
			wantTotals[key] += av
		}
	}

	phys, err := blackboxflow.Optimize(flow, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := blackboxflow.NewEngine(4)
	eng.AddSource("in", data)
	out, stats, err := eng.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(wantTotals) {
		t.Fatalf("out = %d groups, want %d", len(out), len(wantTotals))
	}
	for _, rec := range out {
		key := rec.Field(0).AsInt()
		if got := rec.Field(2).AsInt(); got != wantTotals[key] {
			t.Errorf("total(%d) = %d, want %d", key, got, wantTotals[key])
		}
	}
	if stats.TotalUDFCalls() == 0 {
		t.Error("stats must record UDF calls")
	}
}

// TestFacadeAnalyze checks the standalone analysis entry point.
func TestFacadeAnalyze(t *testing.T) {
	prog := blackboxflow.MustCompileUDFs(`
map f(ir) {
	a := ir[2]
	if a >= 10 {
		emit ir
	}
}
`)
	e, err := blackboxflow.AnalyzeUDF(prog.Funcs["f"])
	if err != nil {
		t.Fatal(err)
	}
	if !e.Reads.Has(2) || !e.EmitsAtMostOne() {
		t.Errorf("effect = %s", e)
	}
}

// TestFacadeCompileToTAC exposes the compiled form as TAC text.
func TestFacadeCompileToTAC(t *testing.T) {
	prog, err := blackboxflow.CompileUDFs(`
map f(ir) {
	emit ir
}
`)
	if err != nil {
		t.Fatal(err)
	}
	text := prog.String()
	if !strings.Contains(text, "emit $ir") {
		t.Errorf("generated TAC = %q", text)
	}
}

// TestFacadeValueHelpers sanity-checks the re-exported constructors.
func TestFacadeValueHelpers(t *testing.T) {
	r := blackboxflow.Record{
		blackboxflow.Int(1),
		blackboxflow.Float(2.5),
		blackboxflow.String("x"),
		blackboxflow.Bool(true),
		blackboxflow.Null,
	}
	if r.Field(0).AsInt() != 1 || r.Field(1).AsFloat() != 2.5 ||
		r.Field(2).AsString() != "x" || !r.Field(3).AsBool() || !r.Field(4).IsNull() {
		t.Errorf("value helpers broken: %v", r)
	}
}

// TestSchedulerFacade drives the job-service surface of the facade: parse a
// JSON job document, submit it to a public Scheduler alongside a
// programmatic JobSpec, wait for both, and read the admission metrics.
func TestSchedulerFacade(t *testing.T) {
	sched := blackboxflow.NewScheduler(blackboxflow.SchedulerConfig{
		GlobalBudget:  1 << 20,
		MaxConcurrent: 2,
		DOP:           2,
	})

	spec, err := blackboxflow.ParseJobDocument([]byte(`{
	  "name": "doc-job",
	  "script": "reduce count(g) { first := g.at(0) out := copy(first) out[1] = count(g, 0) emit out }",
	  "flow": {
	    "sources": [{"name": "words", "attrs": ["word", "n"]}],
	    "ops": [{"kind": "reduce", "udf": "count", "inputs": ["words"], "keys": [["word"]], "key_cardinality": 2}],
	    "sink": "count"
	  },
	  "data": {"words": [["x", null], ["y", null], ["x", null]]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	docJob, err := sched.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	prog := blackboxflow.MustCompileUDFs(`
reduce total(g) {
	first := g.at(0)
	out := copy(first)
	out[1] = sum(g, 1)
	emit out
}`)
	flow := blackboxflow.NewFlow()
	src := flow.Source("in", []string{"k", "v"}, blackboxflow.Hints{Records: 100, AvgWidthBytes: 18})
	red := flow.Reduce("total", prog.Funcs["total"], []string{"k"}, src, blackboxflow.Hints{KeyCardinality: 10})
	flow.SetSink("out", red)
	if err := flow.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	data := make(blackboxflow.DataSet, 100)
	for i := range data {
		data[i] = blackboxflow.Record{blackboxflow.Int(int64(i % 10)), blackboxflow.Int(int64(i))}
	}
	progJob, err := sched.Submit(blackboxflow.JobSpec{
		Name:    "prog-job",
		Flow:    flow,
		Sources: map[string]blackboxflow.DataSet{"in": data},
	})
	if err != nil {
		t.Fatal(err)
	}

	docOut, _, err := docJob.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(docOut) != 2 {
		t.Errorf("doc job emitted %d groups, want 2", len(docOut))
	}
	progOut, stats, err := progJob.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(progOut) != 10 {
		t.Errorf("programmatic job emitted %d groups, want 10", len(progOut))
	}
	if stats.TotalUDFCalls() == 0 {
		t.Error("job stats recorded no UDF calls")
	}
	if st := progJob.State(); st != blackboxflow.JobSucceeded {
		t.Errorf("state = %v, want succeeded", st)
	}

	m := sched.Metrics()
	if m.Submitted != 2 || m.Succeeded != 2 {
		t.Errorf("metrics = %+v", m)
	}
	if err := sched.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Submit(spec); err == nil || !errors.Is(err, blackboxflow.ErrSchedulerClosed) {
		t.Errorf("submit after shutdown: err = %v, want ErrSchedulerClosed", err)
	}
}
