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
	"blackboxflow/internal/tac"
)

// buildGroupingJob returns a Source→Reduce plan over n records with keyCard
// distinct keys, plus its input data — the workhorse for cancellation and
// spill-cleanup tests.
func buildGroupingJob(t *testing.T, n, keyCard int) (*optimizer.PhysPlan, record.DataSet) {
	t.Helper()
	prog := tac.MustParse(`
func reduce tally($g) {
	$r := groupget $g 0
	$s := agg sum $g 1
	$out := copyrec $r
	setfield $out 1 $s
	emit $out
}`)
	f := dataflow.NewFlow()
	src := f.Source("in", []string{"k", "v"}, dataflow.Hints{Records: float64(n), AvgWidthBytes: 20})
	red := f.Reduce("tally", prog.Funcs["tally"], []string{"k"}, src,
		dataflow.Hints{KeyCardinality: float64(keyCard)})
	f.SetSink("out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	plan := optimizer.RankAllNet(tree, optimizer.NewEstimator(f), 4, 0, optimizer.NetProfile{})[0].Phys

	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{record.Int(int64(i % keyCard)), record.Int(int64(i))}
	}
	return plan, data
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
	if len(got) != len(want) {
		t.Fatalf("RunContext returned %d records, Run %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Compare(want[i]) != 0 {
			t.Fatalf("record %d differs: %v vs %v", i, got[i], want[i])
		}
	}
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
	prog := tac.MustParse(`
func reduce bad($g) {
	$r := groupget $g 0
	$x := agg sum $g 1
	$y := $x / 0
	emit $r
}`)
	const n = 20000
	f := dataflow.NewFlow()
	src := f.Source("in", []string{"k", "v"}, dataflow.Hints{Records: n, AvgWidthBytes: 20})
	red := f.Reduce("bad", prog.Funcs["bad"], []string{"k"}, src, dataflow.Hints{KeyCardinality: n})
	f.SetSink("out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	tree, err := optimizer.FromFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	plan := optimizer.RankAllNet(tree, optimizer.NewEstimator(f), 4, 0, optimizer.NetProfile{})[0].Phys

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
