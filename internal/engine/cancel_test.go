package engine

import (
	"context"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
)

// buildGroupingJob returns a Source→Reduce plan over n records with keyCard
// distinct keys, plus its input data — the workhorse for cancellation and
// spill-cleanup tests.
func buildGroupingJob(t *testing.T, n, keyCard int) (*optimizer.PhysPlan, record.DataSet) {
	t.Helper()
	plan := groupingPlan(t, sumScript("tally"), "tally", n, keyCard)
	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{record.Int(int64(i % keyCard)), record.Int(int64(i))}
	}
	return plan, data
}

// groupingPlan is the optimizer's best plan at DOP 4 for in(k, v) → udf(k),
// a Reduce of the script, over n records with keyCard keys.
func groupingPlan(t *testing.T, script, udf string, n, keyCard int) *optimizer.PhysPlan {
	f, _ := flowDef{script, dataflow.FlowDef{
		Sources: sources(dataflow.SourceDef{Name: "in", Attrs: attrs("k v"), Records: float64(n), AvgWidthByte: 20}),
		Ops:     ops(dataflow.OpDef{Kind: "reduce", UDF: udf, Inputs: attrs("in"), Keys: [][]string{{"k"}}, KeyCardinality: float64(keyCard)}),
		Sink:    udf,
	}}.build(t)
	ranked, err := optimizer.Plan(f, 4, 0, optimizer.NetProfile{})
	if err != nil {
		t.Fatal(err)
	}
	return ranked[0].Phys
}

// TestRunContextCancelBeforeStart: a context cancelled before RunContext is
// called must fail immediately without touching the plan.
func TestRunContextCancelBeforeStart(t *testing.T) {
	plan, data := buildGroupingJob(t, 100, 10)
	e := New(2)
	e.AddSource("in", data)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _, err := e.RunContext(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled run returned a non-nil output")
	}
}

// TestRunContextCompletesEqualToRun: an uncancelled RunContext must be
// byte-identical to plain Run.
func TestRunContextCompletesEqualToRun(t *testing.T) {
	plan, data := buildGroupingJob(t, 5000, 100)
	e := New(4)
	e.AddSource("in", data)
	want, _, err := e.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.RunContext(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	requireByteIdentical(t, got, want, "RunContext vs Run")
}

// TestRunContextDeadline: a deadline that expires mid-run surfaces
// context.DeadlineExceeded promptly and leaves no stuck goroutines.
func TestRunContextDeadline(t *testing.T) {
	plan, data := buildGroupingJob(t, 200000, 50000)
	e := New(4)
	e.AddSource("in", data)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := e.RunContext(ctx, plan)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v to return", elapsed)
	}
	waitGoroutines(t, before)
}

// TestRunContextCancelCause: cancelling with a cause surfaces that cause
// (the error the job scheduler uses to mark evictions).
func TestRunContextCancelCause(t *testing.T) {
	plan, data := buildGroupingJob(t, 200000, 50000)
	e := New(4)
	e.AddSource("in", data)
	boom := errors.New("evicted by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	time.AfterFunc(2*time.Millisecond, func() { cancel(boom) })
	_, _, err := e.RunContext(ctx, plan)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
}

// TestCancelMidSpillRemovesFiles cancels a memory-budgeted run as soon as
// the first spill run hits the disk and asserts that every file under
// SpillDir is removed before RunContext returns — the half of the spill
// temp-file guarantee that only exists with cancellation.
func TestCancelMidSpillRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	plan, data := buildGroupingJob(t, 100000, 30000)
	e := New(4).WithMemoryBudget(8 << 10)
	e.SpillDir = dir
	e.AddSource("in", data)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Watch the spill directory and pull the trigger on the first file.
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if ents, err := os.ReadDir(dir); err == nil && len(ents) > 0 {
				cancel()
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	_, _, err := e.RunContext(ctx, plan)
	<-stop
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (run finished before a spill file appeared?)", err)
	}
	assertNoSpillFiles(t, dir)
	waitGoroutines(t, before)

	// The engine must be reusable after a cancelled run.
	out, stats, err := e.RunContext(context.Background(), plan)
	if err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
	if stats.TotalSpillRuns() == 0 {
		t.Fatal("rerun did not spill; the cancellation test exercised nothing")
	}
	if len(out) != 30000 {
		t.Fatalf("rerun produced %d groups, want 30000", len(out))
	}
	assertNoSpillFiles(t, dir)
}

// TestErrorMidSpillRemovesFiles is the regression test for the error half
// of the guarantee: a job whose Reduce UDF fails after its shuffle has
// already spilled sorted runs must not leave files under SpillDir.
func TestErrorMidSpillRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	const n = 20000
	plan := groupingPlan(t, `
reduce bad(g) {
	r := g.at(0)
	x := sum(g, 1)
	y := x / 0
	emit r
}`, "bad", n, n)
	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{record.Int(int64(i)), record.Int(int64(i % 7))}
	}
	e := New(4).WithMemoryBudget(8 << 10)
	e.SpillDir = dir
	e.AddSource("in", data)
	if _, _, err := e.Run(plan); err == nil {
		t.Fatal("run with a failing UDF succeeded")
	}
	assertNoSpillFiles(t, dir)
}

// assertNoSpillFiles fails the test if dir still holds any entries.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("%d spill files leaked: %v", len(ents), names)
	}
}

// waitGoroutines waits for the goroutine count to drop back to (near) the
// pre-run level; a count that stays elevated means the run leaked senders
// or collectors.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
