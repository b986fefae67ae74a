package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

var testProg = tac.MustParse(`
func reduce tally($g) {
	$r := groupget $g 0
	$s := agg sum $g 1
	$out := copyrec $r
	setfield $out 1 $s
	emit $out
}

func binary pair($l, $r) {
	$out := concat $l $r
	emit $out
}`)

// groupSpec builds a grouping job over n records with keyCard distinct
// keys, seeded so distinct jobs carry distinct data.
func groupSpec(t *testing.T, seed int64, n, keyCard int) Spec {
	t.Helper()
	f := dataflow.NewFlow()
	src := f.Source("in", []string{"k", "v"}, dataflow.Hints{Records: float64(n), AvgWidthBytes: 20})
	red := f.Reduce("tally", testProg.Funcs["tally"], []string{"k"}, src,
		dataflow.Hints{KeyCardinality: float64(keyCard)})
	f.SetSink("out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	data := make(record.DataSet, n)
	for i := range data {
		data[i] = record.Record{record.Int(int64(rng.Intn(keyCard))), record.Int(int64(rng.Intn(1000)))}
	}
	return Spec{
		Name:    fmt.Sprintf("group-%d", seed),
		Flow:    f,
		Sources: map[string]record.DataSet{"in": data},
	}
}

// joinSpec builds a Match job joining two seeded inputs on their first
// field.
func joinSpec(t *testing.T, seed int64, n, keyCard int) Spec {
	t.Helper()
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: float64(n), AvgWidthBytes: 20})
	r := f.Source("R", []string{"rk", "rv"}, dataflow.Hints{Records: float64(n), AvgWidthBytes: 20})
	m := f.Match("pair", testProg.Funcs["pair"], []string{"lk"}, []string{"rk"}, l, r,
		dataflow.Hints{KeyCardinality: float64(keyCard)})
	f.SetSink("out", m)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	// Records span the global attribute space: R's fields live at global
	// indices 2,3, padded with nulls for L's attrs. Payloads are
	// key-determined (the repo's convention for byte-comparing runs):
	// arrival order within an equal-key group depends on goroutine
	// scheduling, so only key-determined values make two runs of the same
	// join byte-identical.
	rng := rand.New(rand.NewSource(seed))
	mk := func(pad int) record.DataSet {
		ds := make(record.DataSet, n)
		for i := range ds {
			k := int64(rng.Intn(keyCard))
			rec := make(record.Record, pad+2)
			rec[pad] = record.Int(k)
			rec[pad+1] = record.Int(k*31 + seed%97)
			ds[i] = rec
		}
		return ds
	}
	return Spec{
		Name:    fmt.Sprintf("join-%d", seed),
		Flow:    f,
		Sources: map[string]record.DataSet{"L": mk(0), "R": mk(2)},
	}
}

func mustEqual(t *testing.T, got, want record.DataSet, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Compare(want[i]) != 0 {
			t.Fatalf("%s: record %d differs: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestAdmissionControl is the subsystem's acceptance test: with a global
// budget sized for k concurrent jobs, submitting 3k mixed grouping/join
// jobs must (a) never exceed k running or the global budget in grants, (b)
// produce byte-identical results to a serial scheduler run of the same
// specs, and (c) actually exercise the spill path (grants are deliberately
// tight).
func TestAdmissionControl(t *testing.T) {
	const (
		k       = 3
		jobs    = 3 * k
		perJob  = 64 << 10
		global  = k * perJob
		n       = 6000
		keyCard = 4000
	)
	specs := make([]Spec, jobs)
	for i := range specs {
		if i%2 == 0 {
			specs[i] = groupSpec(t, int64(100+i), n, keyCard)
		} else {
			specs[i] = joinSpec(t, int64(200+i), n/2, keyCard/2)
		}
		specs[i].MemoryBudget = perJob
	}

	// Serial reference: same grants, one at a time.
	serial := New(Config{GlobalBudget: global, MaxConcurrent: 1, MaxQueue: -1, DOP: 4})
	want := make([]record.DataSet, jobs)
	spilled := false
	for i, spec := range specs {
		j, err := serial.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("serial job %d: %v", i, err)
		}
		want[i] = out
		if stats.TotalSpillRuns() > 0 {
			spilled = true
		}
	}
	if !spilled {
		t.Fatal("no serial job spilled; grants are not tight enough to prove anything")
	}

	// Concurrent run: more engine slots than the budget can fill, so the
	// budget is the binding constraint.
	dir := t.TempDir()
	s := New(Config{GlobalBudget: global, MaxConcurrent: 2 * k, MaxQueue: -1, DOP: 4, SpillDir: dir})
	before := runtime.NumGoroutine()
	handles := make([]*Job, jobs)
	for i, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = j
	}
	for i, j := range handles {
		out, _, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("concurrent job %d: %v", i, err)
		}
		mustEqual(t, out, want[i], fmt.Sprintf("job %d (%s)", i, j.Name()))
	}

	m := s.Metrics()
	if m.PeakGrantedBudget > global {
		t.Errorf("peak granted budget %d exceeded the global budget %d", m.PeakGrantedBudget, global)
	}
	if m.PeakRunning > k {
		t.Errorf("%d jobs ran concurrently; the budget admits only %d", m.PeakRunning, k)
	}
	if m.Succeeded != jobs {
		t.Errorf("succeeded = %d, want %d", m.Succeeded, jobs)
	}
	if m.GrantedBudget != 0 || m.Running != 0 || m.Queued != 0 {
		t.Errorf("scheduler not idle after drain: %+v", m)
	}
	assertEmptyDir(t, dir)
	waitGoroutines(t, before)
}

// TestCancelQueuedAndRunning cancels one queued and one in-flight job and
// checks both return promptly, later jobs still run, and no goroutines or
// spill files leak.
func TestCancelQueuedAndRunning(t *testing.T) {
	dir := t.TempDir()
	const perJob = 32 << 10
	s := New(Config{GlobalBudget: perJob, MaxConcurrent: 4, MaxQueue: -1, DOP: 4, SpillDir: dir})
	before := runtime.NumGoroutine()

	// Big enough that the running job is still going when we cancel it.
	running, err := s.Submit(withBudget(groupSpec(t, 1, 400000, 200000), perJob))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(withBudget(groupSpec(t, 2, 1000, 500), perJob))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s.Submit(withBudget(groupSpec(t, 3, 1000, 500), perJob))
	if err != nil {
		t.Fatal(err)
	}

	if st := queued.State(); st != StateQueued {
		t.Fatalf("second job state = %v, want queued (budget admits one)", st)
	}
	queued.Cancel()
	if _, _, err := queued.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("queued cancel err = %v, want ErrCancelled", err)
	}
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job state = %v after cancel", st)
	}

	start := time.Now()
	running.Cancel()
	if _, _, err := running.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Fatalf("running cancel err = %v, want ErrCancelled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("running job took %v to cancel", elapsed)
	}

	// The slot freed by the cancels must admit the follower.
	if out, _, err := follower.Wait(context.Background()); err != nil {
		t.Fatalf("follower: %v", err)
	} else if len(out) == 0 {
		t.Fatal("follower produced no groups")
	}

	m := s.Metrics()
	if m.Cancelled != 2 {
		t.Errorf("cancelled counter = %d, want 2", m.Cancelled)
	}
	assertEmptyDir(t, dir)
	waitGoroutines(t, before)
}

func withBudget(s Spec, b int) Spec {
	s.MemoryBudget = b
	return s
}

// TestDeadline: a job whose deadline expires mid-run fails with
// DeadlineExceeded and frees its grant.
func TestDeadline(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, DOP: 4})
	spec := groupSpec(t, 7, 400000, 200000)
	spec.Deadline = 2 * time.Millisecond
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if st := j.State(); st != StateFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	if m := s.Metrics(); m.Failed != 1 || m.GrantedBudget != 0 {
		t.Errorf("metrics after deadline: %+v", m)
	}
}

// TestQueueFull: submissions beyond MaxQueue are rejected fast.
func TestQueueFull(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 1, DOP: 2})
	// Occupy the engine slot long enough to fill the queue behind it.
	blocker, err := s.Submit(groupSpec(t, 11, 400000, 200000))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		blocker.Cancel()
		blocker.Wait(context.Background())
	}()
	if _, err := s.Submit(groupSpec(t, 12, 100, 10)); err != nil {
		t.Fatalf("first queued submit failed: %v", err)
	}
	if _, err := s.Submit(groupSpec(t, 13, 100, 10)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if m := s.Metrics(); m.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", m.Rejected)
	}
}

// TestShutdownDrains: Shutdown refuses new work but finishes everything
// already accepted.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, DOP: 2})
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(groupSpec(t, int64(20+i), 2000, 500))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if _, _, err := j.Result(); err != nil {
			t.Errorf("job %d after drain: %v", i, err)
		}
	}
	if _, err := s.Submit(groupSpec(t, 99, 100, 10)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown submit err = %v, want ErrClosed", err)
	}
}

// TestShutdownTimeoutCancels: when the drain deadline passes, the
// remaining jobs are cancelled rather than awaited.
func TestShutdownTimeoutCancels(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, DOP: 4})
	slow, err := s.Submit(groupSpec(t, 31, 400000, 200000))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(groupSpec(t, 32, 1000, 100))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	for _, j := range []*Job{slow, queued} {
		if st := j.State(); st != StateCancelled {
			t.Errorf("job %d state = %v, want cancelled", j.ID, st)
		}
	}
}

// TestFIFOOrder: a single-slot scheduler must run jobs in submission order.
func TestFIFOOrder(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, DOP: 2})
	const n = 6
	var mu sync.Mutex
	var order []int
	var jobs []*Job
	for i := 0; i < n; i++ {
		j, err := s.Submit(groupSpec(t, int64(40+i), 1000, 200))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		i := i
		go func() {
			j.Wait(context.Background())
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}()
	}
	for _, j := range jobs {
		j.Wait(context.Background())
	}
	// Completion observers race each other, but job i must finish before
	// job i+1 *starts*; assert via the jobs' own timestamps.
	for i := 1; i < n; i++ {
		if jobs[i].started.Before(jobs[i-1].finished) {
			t.Fatalf("job %d started %v before job %d finished %v",
				i, jobs[i].started, i-1, jobs[i-1].finished)
		}
	}
}

// TestConcurrentSubmissionsRace hammers the scheduler from many goroutines
// — under `go test -race` this is the verification that concurrently
// running jobs share no mutable state.
func TestConcurrentSubmissionsRace(t *testing.T) {
	s := New(Config{GlobalBudget: 256 << 10, MaxConcurrent: 4, MaxQueue: -1, DOP: 4, SpillDir: t.TempDir()})
	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var spec Spec
			if i%2 == 0 {
				spec = groupSpec(t, int64(1000+i), 3000, 1000)
			} else {
				spec = joinSpec(t, int64(2000+i), 1500, 500)
			}
			j, err := s.Submit(spec)
			if err != nil {
				errs[i] = err
				return
			}
			out, stats, err := j.Wait(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			if len(out) == 0 || stats == nil {
				errs[i] = fmt.Errorf("job %d: empty result", i)
				return
			}
			// Each job's stats sink must describe this job's flow alone.
			for _, op := range stats.PerOp {
				if op.Name != "in" && op.Name != "L" && op.Name != "R" &&
					op.Name != "tally" && op.Name != "pair" && op.Name != "out" {
					errs[i] = fmt.Errorf("job %d: foreign operator %q in stats", i, op.Name)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

func assertEmptyDir(t *testing.T, dir string) {
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
		t.Fatalf("%d entries leaked under %s: %v", len(ents), dir, names)
	}
}

// waitGoroutines waits for the goroutine count to settle back near the
// pre-test level.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d before, %d now", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
