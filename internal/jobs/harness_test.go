package jobs

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"blackboxflow/internal/engine"
	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/transport"
)

// This file is the service harness. The scheduler's contract is the
// paper's promise one layer up: a job document gives one bag whatever path
// it takes to the engine — parsed cold or replayed from the caches, in
// process or over a worker fleet, under a tight grant or none, with a fault
// injected on the way — and that bag is the one its flow computes as
// written. Every successful run must return, as canonical bytes, the
// row's oracle: its flow in its written order, planned at DOP 1 with no
// budget and run on a bare engine.New(1). A row meant to fail carries its
// terminal state and error instead. Every run also checks the job's span
// tree, that its path was taken (the cache hit, the worker use or the
// fallback was counted) and, on a scheduler of its own, that it left no
// grant, slot or spill directory behind. A row is a document (rows_test.go);
// a path is a cell of cache state × placement × fault × budget × DOP; each
// test is a suite of cells (rows_test.go), and testdata/service.golden pins
// the (test, row, path) tuples the suites declare.

var update = flag.Bool("update", false, "rewrite testdata/service.golden")

// path is one way a document reaches the engine through Scheduler.Submit.
type path struct {
	// cache: cold (a fresh scheduler), source (the second parse: flow and
	// sources cached), plan (a rerun: the plan cached too), replay (the
	// third parse: the document memo), off (PlanCacheSize -1), or shared
	// (concurrent parses of one document, checked by the suite's counts).
	cache string
	// place: local, remote (every partition on the suite's two-worker
	// fleet), mixed (one local slot), dead (a fleet that never answers: the
	// fallback), or closing and stalled (a fleet of in-process workers the
	// suite closes one by one, or one that stops reading).
	place string
	// fault: none, enospc@N (ENOSPC at filesystem operation N), sweep (a
	// seeded sweep of single faults), or stall (a worker that stops
	// reading mid-transfer).
	fault string
	// budget: doc (the document's ask), tight (the row's tight grant), or
	// a grant in bytes.
	budget string
	dop    int
}

func (p path) String() string {
	return fmt.Sprintf("submit cache=%s place=%s fault=%s budget=%s dop=%d", p.cache, p.place, p.fault, p.budget, p.dop)
}

// cell is one row on one path; sub, when set, names the subtest it runs in.
type cell struct {
	sub, row string
	path     path
}

// cells declares the rows (space-separated) on every path of the axes
// ("cache=plan,replay dop=4"): cache, place, fault, budget and dop default
// to cold, local, none, doc and 2.
func cells(rows, axes string) []cell {
	ps := []path{{"cold", "local", "none", "doc", 2}}
	for _, axis := range strings.Fields(axes) {
		k, vs, _ := strings.Cut(axis, "=")
		var next []path
		for _, p := range ps {
			for _, v := range strings.Split(vs, ",") {
				field := map[string]*string{"cache": &p.cache, "place": &p.place, "fault": &p.fault, "budget": &p.budget}[k]
				if field != nil {
					*field = v
				} else {
					p.dop, _ = strconv.Atoi(v)
				}
				next = append(next, p)
			}
		}
		ps = next
	}
	var cs []cell
	for _, r := range strings.Fields(rows) {
		for _, p := range ps {
			cs = append(cs, cell{row: r, path: p})
		}
	}
	return cs
}

// at is the path the axes declare.
func at(axes string) path { return cells("row", axes)[0].path }

// suite is one test's cells and the scheduler config they run under.
type suite struct {
	cells []cell
	cfg   Config
	// body drives the suite's own sequence of submissions; without one
	// each cell runs on a scheduler of its own (harness.cell).
	body func(t *testing.T, h *harness)
	// check adds the suite's checks to each run harness.cell makes.
	check func(t *testing.T, h *harness, r *run)
}

// tuples is the (row, path) tuples the suite declares.
func (s suite) tuples() map[string]bool {
	tu := map[string]bool{}
	for _, c := range s.cells {
		tu[c.row+" "+c.path.String()] = true
	}
	return tu
}

// harness runs one suite.
type harness struct {
	suite
	mu    sync.Mutex
	ran   map[string]bool
	fleet []string
	local []*transport.Worker // the fleet's in-process workers, if it is not processes
	// fleetG is the goroutines the fleet runs, which outlive the suite.
	fleetG int
	scheds []*Scheduler
}

// run is one submission of a row on a path. state and wantErr are the
// terminal state and error it must end with, cache what ingest must have
// found cached: the row's and the path's, unless the run primes or follows
// another.
type run struct {
	row            *row
	path           path
	s              *Scheduler
	spec           Spec
	job            *Job
	out            record.DataSet
	stats          *engine.RunStats
	err            error
	state          State
	wantErr, cache string
}

// runSuite runs the suite the calling test is named for; every scheduler
// it made must end drained.
func runSuite(t *testing.T) {
	s, ok := suites[t.Name()]
	if !ok {
		t.Fatalf("no suite named %s", t.Name())
	}
	h := &harness{suite: s, ran: map[string]bool{}}
	before := runtime.NumGoroutine()
	if s.body != nil {
		s.body(t, h)
	} else {
		for _, c := range s.cells {
			if c.sub == "" {
				h.cell(t, c.row, c.path)
			} else {
				t.Run(c.sub, func(t *testing.T) { h.cell(t, c.row, c.path) })
			}
		}
	}
	if t.Failed() || t.Skipped() {
		return
	}
	if !maps.Equal(s.tuples(), h.ran) {
		t.Fatalf("the suite declares %v but ran %v", slices.Sorted(maps.Keys(s.tuples())), slices.Sorted(maps.Keys(h.ran)))
	}
	for _, s := range h.scheds {
		h.drained(t, s)
	}
	waitGoroutines(t, before+h.fleetG)
}

// sched builds a scheduler for path p over the suite's config, each of
// adjust applied last; it is shut down, its stragglers cancelled, when the
// test ends. The first remote or mixed path starts the suite's fleet.
func (h *harness) sched(t *testing.T, p path, adjust ...func(*Config)) *Scheduler {
	cfg := h.cfg
	cfg.SpillDir = t.TempDir()
	switch p.place {
	case "remote", "mixed":
		if h.fleet == nil {
			n := runtime.NumGoroutine()
			h.fleet, h.local = startWorkers(t, 2, false)
			h.fleetG = runtime.NumGoroutine() - n
		}
		cfg.Workers, cfg.LocalSlots = h.fleet, map[string]int{"mixed": 1}[p.place]
	case "dead":
		for range 2 { // addresses nothing listens on
			ln := must(net.Listen("tcp", "127.0.0.1:0"))
			cfg.Workers = append(cfg.Workers, ln.Addr().String())
			ln.Close()
		}
	}
	if p.cache == "off" {
		cfg.PlanCacheSize = -1
	}
	var at int64
	if _, err := fmt.Sscanf(p.fault, "enospc@%d", &at); err == nil {
		cfg.FS = faultfs.NewInjector(faultfs.OS{}, at, faultfs.ENOSPC)
	}
	for _, f := range adjust {
		f(&cfg)
	}
	s := New(cfg)
	h.scheds = append(h.scheds, s)
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.Shutdown(ctx)
	})
	return s
}

// cell runs row name on path p on a scheduler of its own, primed to the
// path's cache state. The run must leave the scheduler drained, and one
// that failed must leave it able to run the next job — the same row once
// an injected fault is spent, else wordcount — while its own trace stays
// as it was.
func (h *harness) cell(t *testing.T, name string, p path) {
	t.Helper()
	s := h.sched(t, p)
	for range map[string]int{"source": 1, "replay": 2}[p.cache] {
		if _, err := s.ParseScriptJob(getRow(t, name).doc); err != nil {
			t.Fatal(err)
		}
	}
	if p.cache == "plan" {
		h.finish(t, h.aux(t, s, name, p, "cold"))
	}
	r := h.submit(t, s, name, p)
	if p.fault != "none" {
		r.state, r.wantErr = StateFailed, "no space left on device"
	}
	h.finish(t, r)
	h.drained(t, s)
	if r.job.State() == StateFailed {
		frozen := r.job.Trace().Len()
		if p.fault == "none" {
			h.finish(t, h.aux(t, s, "wordcount", p, "cold"))
		} else {
			h.finish(t, h.aux(t, s, name, p, "plan"))
		}
		h.drained(t, s)
		if r.job.Trace().Len() != frozen {
			t.Fatalf("%s %s: the failed job's trace grew from %d spans while the next job ran", name, p, frozen)
		}
	}
	if h.check != nil {
		h.check(t, h, r)
	}
}

// start parses row name on s and submits it on path p, the spec adjusted
// by each of adjust; it counts the (row, path) tuple as run unless aux.
func (h *harness) start(tb testing.TB, s *Scheduler, name string, p path, aux bool, adjust ...func(*Spec)) (*run, error) {
	r := &run{row: getRow(tb, name), path: p, s: s, cache: p.cache}
	r.state, r.wantErr = r.row.state, r.row.err
	spec, err := s.ParseScriptJob(r.row.doc)
	if err != nil {
		return r, err
	}
	spec.DOP = p.dop
	switch p.budget {
	case "doc":
	case "tight":
		spec.MemoryBudget = r.row.tight
	default:
		spec.MemoryBudget, _ = strconv.Atoi(p.budget)
	}
	for _, f := range adjust {
		f(&spec)
	}
	r.spec = spec
	if !aux {
		h.mu.Lock()
		h.ran[name+" "+p.String()] = true
		h.mu.Unlock()
	}
	r.job, err = s.Submit(spec)
	return r, err
}

// submit is start, failing the test on an error.
func (h *harness) submit(t *testing.T, s *Scheduler, name string, p path, adjust ...func(*Spec)) *run {
	t.Helper()
	r, err := h.start(t, s, name, p, false, adjust...)
	if err != nil {
		t.Fatalf("%s %s: %v", name, p, err)
	}
	return r
}

// aux submits a run that primes or follows a cell's own, expecting the
// cache state cache.
func (h *harness) aux(t *testing.T, s *Scheduler, name string, p path, cache string) *run {
	t.Helper()
	r, err := h.start(t, s, name, p, true)
	if err != nil {
		t.Fatalf("%s %s: %v", name, p, err)
	}
	r.cache = cache
	return r
}

// refused starts a submission Submit must refuse with want.
func (h *harness) refused(t *testing.T, s *Scheduler, name string, p path, want error, adjust ...func(*Spec)) {
	t.Helper()
	if _, err := h.start(t, s, name, p, false, adjust...); !errors.Is(err, want) {
		t.Fatalf("%s %s: Submit err = %v, want %v", name, p, err, want)
	}
}

// waitTerminal waits for the job with a watchdog; a job that never reaches
// a terminal state is a hang.
func waitTerminal(t *testing.T, j *Job) (record.DataSet, *engine.RunStats, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, stats, err := j.Wait(ctx)
	if errors.Is(err, context.DeadlineExceeded) && !j.State().Terminal() {
		t.Fatalf("job %s hung past the watchdog in state %v", j.Name(), j.State())
	}
	return out, stats, err
}

// finish waits for r and checks its outcome: the oracle's bag, the row's
// answer and a spill under the tight grant, or the expected failure; then
// its span tree and its path.
func (h *harness) finish(t *testing.T, r *run) {
	t.Helper()
	r.out, r.stats, r.err = waitTerminal(t, r.job)
	label := r.row.name + " " + r.path.String()
	switch st, msg := r.job.State(), ""; {
	case r.path.fault == "sweep" && r.err != nil:
		if !faultfs.IsInjected(r.err) || st != StateFailed {
			t.Fatalf("%s: %v with %v, want failed with the injected fault", label, st, r.err)
		}
	case r.state != StateSucceeded:
		if st != r.state || r.err == nil || r.err.Error() != r.wantErr && !(r.path.fault != "none" && strings.Contains(r.err.Error(), r.wantErr)) {
			t.Fatalf("%s: %v with %v, want %v with %q", label, st, r.err, r.state, r.wantErr)
		}
	case r.err != nil:
		t.Fatalf("%s: %v", label, r.err)
	case !bytes.Equal(canonical(r.out), r.row.oracleBytes(t)):
		t.Fatalf("%s: %d records differ from the written-order plan's answer", label, len(r.out))
	case r.row.answer != nil && func() bool { msg = r.row.answer(r.out); return msg != "" }():
		t.Fatalf("%s: %s", label, msg)
	case r.path.budget == "tight" && r.row.spill && r.stats.TotalSpillRuns() == 0:
		t.Fatalf("%s: the tight grant of %d bytes did not spill", label, r.row.tight)
	}
	h.checkTrace(t, r, label)
}

// checkTrace checks the job's span tree — a closed root carrying the job's
// error, every span closed, the lifecycle phases, operator spans under the
// run phase, a failure attributed to the row's spans — and that the
// run took its path: what ingest and the plan cache served, and where its
// partitions ran.
func (h *harness) checkTrace(t *testing.T, r *run, label string) {
	t.Helper()
	tr := r.job.Trace()
	spans := tr.Spans()
	if want := fmt.Sprint(r.err); spans[0].Kind != obs.KindJob || spans[0].Err != strings.TrimSuffix(want, "<nil>") {
		t.Fatalf("%s: root span %s %q, want the job span with error %q", label, spans[0].Kind, spans[0].Err, want)
	}
	phases, failed, ops, workers := map[string]obs.Span{}, map[string]bool{}, 0, 0
	for _, sp := range spans {
		switch {
		case sp.End.IsZero() || sp.End.Before(sp.Start):
			t.Fatalf("%s: span %q (%s) left open or ends before it starts:\n%s", label, sp.Name, sp.Kind, traceJSON(tr))
		case sp.Kind == obs.KindPhase:
			phases[sp.Name] = sp
		case sp.Kind == obs.KindOp && sp.Parent == phases["run"].ID:
			ops++
		case sp.Kind == obs.KindTransport && sp.Worker != "":
			workers++
		}
		failed[sp.Name] = failed[sp.Name] || sp.Err != ""
	}
	_, ran := phases["run"]
	if _, queued := phases["queue"]; !queued || ran == r.job.Started().IsZero() || r.err == nil && ops == 0 {
		t.Fatalf("%s: %d phases, %d operator spans under the run phase:\n%s", label, len(phases), ops, traceJSON(tr))
	}
	for _, op := range r.row.ops {
		if r.state == StateFailed && !failed[op] {
			t.Fatalf("%s: the failure is not attributed to %s:\n%s", label, op, traceJSON(tr))
		}
	}
	n := len(r.spec.Sources)
	want := map[string]string{
		"cold": "doc=miss sources=0/", "off": "doc=miss sources=0/", "plan": "flow-cache hit ",
		"source": fmt.Sprintf("flow-cache hit doc=miss sources=%d/%d ", n, n), "replay": fmt.Sprintf("flow-cache hit doc=hit sources=%d/%d ", n, n),
	}[r.cache]
	compile, hit := phases["compile"].Detail, phases["optimize"].Detail == "plan-cache hit"
	if !strings.HasPrefix(compile, want) || r.cache == "plan" && !hit || hit && !strings.Contains("plan replay shared", r.cache) || r.cache == "off" && r.spec.PlanKey != "" {
		t.Fatalf("%s: compile %q, optimize %q, plan key %q after a %s parse", label, compile, phases["optimize"].Detail, r.spec.PlanKey, r.cache)
	}
	// Under FLOWWORKER_BIN the suite's fleet is flowworker processes.
	m, fleet := r.s.Metrics(), r.path.place == "remote" || r.path.place == "mixed"
	inProc := fleet && os.Getenv("FLOWWORKER_BIN") != "" && h.local[0] != nil
	if remote := fleet || r.path.place == "closing" || r.path.place == "stalled"; remote && (m.WorkerFallbacks != 0 || r.err == nil && r.stats.TotalShippedBytes() > 0 && workers == 0 || inProc) ||
		!remote && workers != 0 || r.path.place == "dead" && m.WorkerFallbacks == 0 {
		t.Fatalf("%s: %d fallbacks, %d transport spans on a worker, fleet in process under FLOWWORKER_BIN %v", label, m.WorkerFallbacks, workers, inProc)
	}
}

// drained checks a scheduler whose jobs are all terminal: every grant
// returned, nothing running or queued, no per-job spill directory left.
func (h *harness) drained(t *testing.T, s *Scheduler) {
	t.Helper()
	ents, _ := os.ReadDir(s.cfg.SpillDir) // gone with its subtest, or empty
	if m := s.Metrics(); m.GrantedBudget != 0 || m.Running != 0 || m.Queued != 0 || len(ents) != 0 {
		t.Fatalf("scheduler not drained: granted %d, running %d, queued %d, %d spill entries", m.GrantedBudget, m.Running, m.Queued, len(ents))
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// phase is the trace's phase span of that name, or a zero span.
func phase(tr *obs.Trace, name string) obs.Span {
	for _, sp := range tr.Spans() {
		if sp.Kind == obs.KindPhase && sp.Name == name {
			return sp
		}
	}
	return obs.Span{}
}

// oracleBytes is the row's oracle as canonical bytes: its flow in its
// written order, planned at DOP 1 with no budget and run on a bare engine.
func (r *row) oracleBytes(t testing.TB) []byte {
	r.once.Do(func() {
		var out record.DataSet
		var tree *optimizer.Tree
		spec, err := ParseScriptJob(r.doc)
		if err == nil {
			tree, err = optimizer.FromFlow(spec.Flow)
		}
		if err == nil {
			e := engine.New(1)
			e.Sources = spec.Sources
			out, _, err = e.Run(optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(spec.Flow), 1).Optimize(tree))
		}
		if err == nil && r.answer != nil && r.answer(out) != "" {
			err = errors.New(r.answer(out))
		}
		r.want, r.oracle = canonical(out), err
	})
	if r.oracle != nil {
		t.Fatalf("%s: the oracle: %v", r.name, r.oracle)
	}
	return r.want
}

// canonical renders a result as its sorted wire encodings: bags compare
// byte for byte, floats bit for bit, whatever order partitions finished in.
func canonical(out record.DataSet) []byte {
	rows := encoded(out)
	slices.SortFunc(rows, bytes.Compare)
	return bytes.Join(rows, nil)
}

// encoded is each record's wire encoding, in order.
func encoded(ds record.DataSet) [][]byte {
	rows := make([][]byte, len(ds))
	for i, rec := range ds {
		rows[i] = rec.AppendEncoded(nil)
	}
	return rows
}

// traceJSON renders tr as the JSON span tree GET /jobs/{id}/trace serves.
func traceJSON(tr *obs.Trace) string {
	b, _ := json.MarshalIndent(tr.Tree(), "", "  ")
	return string(b)
}

// startWorkers launches n shuffle workers and returns their addresses:
// cmd/flowworker processes when FLOWWORKER_BIN names the binary (as the CI
// distributed job does) unless inProcess, else in-process
// transport.Workers on loopback listeners, returned too so a test can stop
// one.
func startWorkers(t *testing.T, n int, inProcess bool) ([]string, []*transport.Worker) {
	t.Helper()
	addrs, workers := make([]string, n), make([]*transport.Worker, n)
	for i := range addrs {
		if bin := os.Getenv("FLOWWORKER_BIN"); bin != "" && !inProcess {
			cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
			cmd.Stderr = os.Stderr
			stdout := must(cmd.StdoutPipe())
			if err := cmd.Start(); err != nil {
				t.Fatalf("starting %s: %v", bin, err)
			}
			t.Cleanup(func() {
				cmd.Process.Kill()
				cmd.Wait()
			})
			line, err := bufio.NewReader(stdout).ReadString('\n')
			if err != nil {
				t.Fatalf("flowworker printed no listen address: %v", err)
			}
			addrs[i] = strings.TrimSpace(line)
			continue
		}
		w := transport.NewWorker(must(net.Listen("tcp", "127.0.0.1:0")))
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i], workers[i] = w.Addr(), w
	}
	return addrs, workers
}

// chaosSeed returns the chaos suites' seed: FAULTFS_SEED when set, else 1.
func chaosSeed(t *testing.T) int64 {
	seed, err := strconv.ParseInt(cmp.Or(os.Getenv("FAULTFS_SEED"), "1"), 10, 64)
	if err != nil {
		t.Fatalf("bad FAULTFS_SEED: %v", err)
	}
	return seed
}

// waitGoroutines waits for the goroutine count to settle back near before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d before, %d now", before, runtime.NumGoroutine())
		}
	}
}

// TestServiceGolden pins the (test, row, path) tuples the suites declare,
// so a change that drops a row or a path fails here. Regenerate with
// `go test ./internal/jobs -run TestServiceGolden -update`.
func TestServiceGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(suites)) {
		for _, tu := range slices.Sorted(maps.Keys(suites[name].tuples())) {
			b.WriteString(name + " " + tu + "\n")
		}
	}
	file := filepath.Join("testdata", "service.golden")
	if *update {
		if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := must(os.ReadFile(file)); b.String() != string(want) {
		t.Fatalf("the suites declare %d tuples, %s pins %d others: regenerate it with -update and read the diff for lost cells",
			strings.Count(b.String(), "\n"), file, strings.Count(string(want), "\n"))
	}
}
