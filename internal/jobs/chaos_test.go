package jobs

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/record"
)

// This file is the scheduler half of the chaos equivalence suite: seeded
// single-fault schedules fired into the per-job spill directories and the
// engines' spill files of running jobs. The invariants mirror the engine
// suite's — a faulted job reaches a terminal failed state (never hangs),
// its error wraps the injected fault, the scheduler's granted budget
// returns to zero, the scheduler immediately runs the next job fault-free
// and byte-identical to baseline, and no per-job spill directory outlives
// its job. See DESIGN.md ("Failure
// model").

// chaosSeed returns the suite's seed: FAULTFS_SEED when set, else 1.
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

// spillingGroupSpec is groupSpec sized and budgeted so the job's shuffle
// receivers overflow and spill.
func spillingGroupSpec(t *testing.T, seed int64) Spec {
	t.Helper()
	spec := groupSpec(t, seed, 6000, 300)
	spec.MemoryBudget = 96 * 4 // a share of a few dozen bytes per partition
	return spec
}

// waitTerminal waits for the job with a watchdog; a job that never reaches
// a terminal state is the hang the chaos invariants forbid.
func waitTerminal(t *testing.T, j *Job, label string) (record.DataSet, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, _, err := j.Wait(ctx)
	if errors.Is(err, context.DeadlineExceeded) && !j.State().Terminal() {
		t.Fatalf("%s: job hung past the watchdog in state %v", label, j.State())
	}
	return out, err
}

// assertDrainedScheduler checks the post-job accounting invariants: all
// granted budget returned, nothing running, and no per-job spill directory
// left under the scheduler's spill parent.
func assertDrainedScheduler(t *testing.T, s *Scheduler, spillParent, label string) {
	t.Helper()
	m := s.Metrics()
	if m.GrantedBudget != 0 {
		t.Fatalf("%s: %d bytes of budget still granted after all jobs finished", label, m.GrantedBudget)
	}
	if m.Running != 0 {
		t.Fatalf("%s: %d jobs still counted running", label, m.Running)
	}
	ents, err := os.ReadDir(spillParent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("%s: per-job spill state leaked: %v", label, names)
	}
}

// TestFaultSchedulerReleasesOnDiskError is the regression test for the
// scheduler's error path: a job killed by an injected disk fault — whether
// the per-job spill directory creation or a spill write fails — must
// release its budget grant and its running slot, and leave the
// scheduler able to run the next job normally. (The cancel path had this
// guarantee from PR 5; this pins the disk-error path.)
func TestFaultSchedulerReleasesOnDiskError(t *testing.T) {
	// Baseline output from an injector-free scheduler.
	spillParent := t.TempDir()
	clean := New(Config{MaxConcurrent: 1, DOP: 4, SpillDir: spillParent})
	j, err := clean.Submit(spillingGroupSpec(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := waitTerminal(t, j, "baseline")
	if err != nil {
		t.Fatal(err)
	}

	// at=1 fails the per-job MkdirTemp; at=3 fails the first spill-file
	// create or write inside the engine.
	for _, at := range []int64{1, 3} {
		label := "fault at op " + strconv.FormatInt(at, 10)
		dir := t.TempDir()
		inj := faultfs.NewInjector(faultfs.OS{}, at, faultfs.ENOSPC)
		s := New(Config{MaxConcurrent: 1, DOP: 4, SpillDir: dir, FS: inj})

		j, err := s.Submit(spillingGroupSpec(t, 42))
		if err != nil {
			t.Fatal(err)
		}
		_, err = waitTerminal(t, j, label)
		if err == nil {
			t.Fatalf("%s: job succeeded; the fault never reached it", label)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("%s: job error %v does not wrap the injected ENOSPC", label, err)
		}
		if j.State() != StateFailed {
			t.Fatalf("%s: state %v, want failed", label, j.State())
		}
		assertDrainedScheduler(t, s, dir, label)

		// The faulted job is gone and the injector is spent: the same spec
		// must now run to completion with baseline output.
		j2, err := s.Submit(spillingGroupSpec(t, 42))
		if err != nil {
			t.Fatalf("%s: submit after faulted job: %v", label, err)
		}
		out, err := waitTerminal(t, j2, label+"/rerun")
		if err != nil {
			t.Fatalf("%s: rerun after the faulted job failed: %v", label, err)
		}
		mustEqual(t, out, baseline, label+"/rerun")
		assertDrainedScheduler(t, s, dir, label+"/rerun")
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatalf("%s: shutdown: %v", label, err)
		}
	}
}

// failingChainSpec is groupSpec with two Maps in the flow, the second of
// which divides by zero on its first record and cannot move past the
// Reduce: the optimizer fuses it into the Reduce's shuffle senders, so the
// failure happens inside a fused chain.
func failingChainSpec(t *testing.T, seed int64) Spec {
	t.Helper()
	prog := frontend.MustCompile(`
map pass(ir) {
	emit ir
}
map boom(ir) {
	v := ir[1]
	x := v / 0
	emit ir
}`)
	spec := groupSpec(t, seed, 2000, 50)
	f := dataflow.NewFlow()
	src := f.Source("in", []string{"k", "v"}, dataflow.Hints{Records: 2000, AvgWidthBytes: 20})
	m1 := f.Map("pass", prog.Funcs["pass"], src, dataflow.Hints{})
	m2 := f.Map("boom", prog.Funcs["boom"], m1, dataflow.Hints{})
	red := f.Reduce("tally", testProg.Funcs["tally"], []string{"k"}, m2, dataflow.Hints{KeyCardinality: 50})
	f.SetSink("out", red)
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	spec.Flow = f
	return spec
}

// TestFaultTraceAttribution pins the observability half of the failure
// model: a job killed by an injected disk fault — or by a UDF error inside
// a fused Map chain, which used to leave no operator span at all — must
// leave a finalized trace: root span closed and carrying the job's error,
// the failure attributed to a span below the root (the operator and phase
// that absorbed it), every span closed, and no span of the failed job may
// show up in the next job's trace, nor the next job's in its.
func TestFaultTraceAttribution(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		// at=3 fails the first spill-file create or write inside the engine.
		fs     faultfs.FS
		failed func(*testing.T, int64) Spec
		// failedOps are operators whose spans must carry the failure.
		failedOps []string
	}{
		{"disk fault", faultfs.NewInjector(faultfs.OS{}, 3, faultfs.ENOSPC), spillingGroupSpec, []string{"tally"}},
		{"fused chain UDF error", nil, failingChainSpec, []string{"boom", "tally"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{MaxConcurrent: 1, DOP: 4, SpillDir: dir, FS: tc.fs})

			j, err := s.Submit(tc.failed(t, 42))
			if err != nil {
				t.Fatal(err)
			}
			_, jerr := waitTerminal(t, j, "failed job")
			if jerr == nil {
				t.Fatal("job succeeded; the fault never reached it")
			}

			tr := j.Trace()
			root := tr.Spans()[0]
			if root.End.IsZero() {
				t.Fatal("failed job's root span left open")
			}
			if root.Err != jerr.Error() {
				t.Fatalf("root span error %q, want the job error %q", root.Err, jerr.Error())
			}
			failedOps := map[string]bool{}
			for _, sp := range tr.Spans()[1:] {
				if sp.Err != "" && sp.Kind == obs.KindOp {
					failedOps[sp.Name] = true
				}
				if sp.End.IsZero() {
					t.Fatalf("span %q (%s) left open on the failed job", sp.Name, sp.Kind)
				}
			}
			for _, name := range tc.failedOps {
				if !failedOps[name] {
					t.Fatalf("operator %s has no failed span; trace:\n%s", name, traceJSON(tr))
				}
			}
			frozen := tr.Len()

			// The next job gets its own trace and the failed job's stays
			// frozen — no spans leak from one job to the other.
			j2, err := s.Submit(spillingGroupSpec(t, 42))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := waitTerminal(t, j2, "rerun"); err != nil {
				t.Fatalf("rerun after the failed job failed: %v", err)
			}
			if tr.Len() != frozen {
				t.Fatalf("failed job's trace grew from %d to %d spans while another job ran", frozen, tr.Len())
			}
			tr2 := j2.Trace()
			if tr2 == tr {
				t.Fatal("rerun shares the failed job's trace")
			}
			if tr2.Spans()[0].Err != "" {
				t.Fatalf("clean rerun's root span carries an error: %q", tr2.Spans()[0].Err)
			}
			ops := 0
			for _, sp := range tr2.Spans() {
				if sp.Kind == obs.KindOp {
					ops++
				}
			}
			if ops == 0 {
				t.Fatalf("rerun's trace has no operator spans; trace:\n%s", traceJSON(tr2))
			}
		})
	}
}

// TestChaosSchedulerSingleFaultSweep sweeps seeded single-fault schedules
// across a scheduler-driven spilling job: every fault point must leave the
// job terminal (failed with the injected error, or succeeded with baseline
// output), the budget fully returned, the spill parent empty, and the
// scheduler able to run the next job fault-free and byte-identical.
func TestChaosSchedulerSingleFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is not a -short test")
	}
	seed := chaosSeed(t)
	before := runtime.NumGoroutine()

	spillParent := t.TempDir()
	clean := New(Config{MaxConcurrent: 1, DOP: 4, SpillDir: spillParent})
	j, err := clean.Submit(spillingGroupSpec(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	baseline, berr := waitTerminal(t, j, "baseline")
	if berr != nil {
		t.Fatal(berr)
	}
	if stats := func() int { _, s, _ := j.Result(); return s.TotalSpillRuns() }(); stats == 0 {
		t.Fatal("baseline job wrote no spill runs — the sweep would exercise nothing")
	}

	// Count the job's fault surface (spill dir + engine spill files).
	counter := faultfs.NewInjector(faultfs.OS{}, 0, faultfs.ENOSPC)
	cdir := t.TempDir()
	cs := New(Config{MaxConcurrent: 1, DOP: 4, SpillDir: cdir, FS: counter})
	j, err = cs.Submit(spillingGroupSpec(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitTerminal(t, j, "count"); err != nil {
		t.Fatal(err)
	}
	nOps := counter.Ops()
	if nOps < 3 {
		t.Fatalf("counting run observed only %d filesystem operations", nOps)
	}

	kinds := []faultfs.Kind{faultfs.ENOSPC, faultfs.ShortWrite, faultfs.ReadErr, faultfs.Latency}
	stride := nOps / 12
	if stride < 1 {
		stride = 1
	}
	offset := seed % stride
	failed := 0
	for _, kind := range kinds {
		for at := 1 + offset; at <= nOps; at += stride {
			label := "kind=" + kind.String() + "/at=" + strconv.FormatInt(at, 10)
			dir := t.TempDir()
			inj := faultfs.NewInjector(faultfs.OS{}, at, kind)
			inj.Delay = time.Millisecond
			s := New(Config{MaxConcurrent: 1, DOP: 4, SpillDir: dir, FS: inj})

			j, err := s.Submit(spillingGroupSpec(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			out, err := waitTerminal(t, j, label)
			switch {
			case err != nil:
				if !inj.Fired() {
					t.Fatalf("%s: job failed (%v) without the fault firing", label, err)
				}
				if kind == faultfs.Latency {
					t.Fatalf("%s: latency fault failed the job: %v", label, err)
				}
				if !faultfs.IsInjected(err) {
					t.Fatalf("%s: job error %v does not wrap the injected fault", label, err)
				}
				if j.State() != StateFailed {
					t.Fatalf("%s: state %v, want failed", label, j.State())
				}
				failed++
			default:
				mustEqual(t, out, baseline, label)
			}
			assertDrainedScheduler(t, s, dir, label)

			// The scheduler that absorbed the fault must run the next job
			// cleanly. Op counts vary run to run, so the single
			// fault may only arm during the first job and land on this
			// rerun instead — in that case it must obey the same
			// invariants and the run after it must be clean.
			for attempt := 0; ; attempt++ {
				rl := label + "/rerun" + strconv.Itoa(attempt)
				j2, err := s.Submit(spillingGroupSpec(t, seed))
				if err != nil {
					t.Fatalf("%s: submit after faulted job: %v", rl, err)
				}
				out2, err := waitTerminal(t, j2, rl)
				if err == nil {
					mustEqual(t, out2, baseline, rl)
					assertDrainedScheduler(t, s, dir, rl)
					break
				}
				if attempt > 0 || !inj.Fired() || kind == faultfs.Latency || !faultfs.IsInjected(err) {
					t.Fatalf("%s: rerun failed: %v (fired=%v)", rl, err, inj.Fired())
				}
				failed++
				assertDrainedScheduler(t, s, dir, rl)
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatalf("%s: shutdown: %v", label, err)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no fault in the sweep ever failed a job — the injector is not reaching the spill path")
	}
	waitGoroutines(t, before)
}
