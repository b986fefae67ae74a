package jobs

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/record"
	"blackboxflow/internal/transport"
)

// startTestWorkers launches n in-process shuffle workers on loopback
// listeners and returns their addresses. The wire, framing, placement, and
// teardown are fully real; only the process boundary is elided (the
// engine-level distributed suite also covers real cmd/flowworker
// processes).
func startTestWorkers(t *testing.T, n int) ([]string, []*transport.Worker) {
	t.Helper()
	addrs := make([]string, n)
	workers := make([]*transport.Worker, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		w := transport.NewWorker(ln)
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
		workers[i] = w
	}
	return addrs, workers
}

// TestSchedulerDistributedJobs pins the jobs-layer half of the tentpole: a
// scheduler configured with a worker fleet calibrates it at construction,
// places every job's shuffles across the workers over a job-scoped TCP
// transport, and produces results byte-identical to a single-process
// scheduler running the same specs — including specs whose grants force
// the spill path, so out-of-core execution and the wire compose.
func TestSchedulerDistributedJobs(t *testing.T) {
	addrs, _ := startTestWorkers(t, 2)

	specs := []Spec{
		groupSpec(t, 11, 6000, 4000),
		joinSpec(t, 12, 3000, 2000),
		groupSpec(t, 13, 6000, 4000),
	}
	for i := range specs {
		specs[i].MemoryBudget = 64 << 10
	}

	local := New(Config{MaxConcurrent: 1, DOP: 4, SpillDir: t.TempDir()})
	want := make([]record.DataSet, len(specs))
	for i, spec := range specs {
		j, err := local.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("local job %d: %v", i, err)
		}
		if stats.TotalSpillRuns() == 0 {
			t.Fatalf("local job %d did not spill; the grant is not tight enough to prove anything", i)
		}
		want[i] = out
	}

	s := New(Config{MaxConcurrent: 2, DOP: 4, SpillDir: t.TempDir(),
		Workers: addrs, LocalSlots: 1})
	m := s.Metrics()
	if m.NetBytesPerSec <= 0 {
		t.Fatalf("startup calibration did not measure bandwidth: %+v", m)
	}
	handles := make([]*Job, len(specs))
	for i, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = j
	}
	for i, j := range handles {
		out, stats, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("distributed job %d: %v", i, err)
		}
		mustEqual(t, out, want[i], j.Name())
		if stats.TotalSpillRuns() == 0 {
			t.Fatalf("distributed job %d did not spill", i)
		}
	}
	m = s.Metrics()
	if m.Workers != 2 || m.HealthyWorkers != 2 {
		t.Errorf("fleet gauges: workers=%d healthy=%d, want 2/2", m.Workers, m.HealthyWorkers)
	}
	if m.WorkerFallbacks != 0 {
		t.Errorf("healthy fleet produced %d fallbacks", m.WorkerFallbacks)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerWorkerHealthPlacement pins the health-check semantics: a
// dead worker drops out of placement after one TTL (jobs keep succeeding
// on the survivors), and with the whole fleet dead the scheduler falls
// back to in-process execution — counted, not failed.
func TestSchedulerWorkerHealthPlacement(t *testing.T) {
	addrs, workers := startTestWorkers(t, 2)
	const ttl = 50 * time.Millisecond

	spec := groupSpec(t, 21, 3000, 100)
	local := New(Config{MaxConcurrent: 1, DOP: 4})
	j, err := local.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{MaxConcurrent: 1, DOP: 4, Workers: addrs})
	s.workers.ttl = ttl
	run := func(label string) {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		mustEqual(t, out, want, label)
	}

	run("full fleet")

	// Kill one worker; after the TTL the next sweep must route around it.
	workers[0].Close()
	time.Sleep(ttl)
	run("one worker down")
	if h := s.Metrics().HealthyWorkers; h != 1 {
		t.Errorf("after one worker died: healthy=%d, want 1", h)
	}

	// Kill the rest; the job must fall back to in-process execution.
	workers[1].Close()
	time.Sleep(ttl)
	run("fleet down")
	m := s.Metrics()
	if m.HealthyWorkers != 0 {
		t.Errorf("after fleet died: healthy=%d, want 0", m.HealthyWorkers)
	}
	if m.WorkerFallbacks == 0 {
		t.Error("fleet-down job was not counted as a fallback")
	}
}

// startStallingWorker fronts a real worker with a proxy that relays control
// connections (health pings, calibration) untouched and turns every shuffle
// connection into a worker that stalls: it reads the handshake and the
// first byte of the first frame, signals stalled, and then never reads or
// relays again.
func startStallingWorker(t *testing.T) (addr string, stalled <-chan struct{}) {
	t.Helper()
	real, _ := startTestWorkers(t, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	signal := make(chan struct{}, 1)
	var mu sync.Mutex
	var held []net.Conn
	hold := func(c net.Conn) {
		mu.Lock()
		held = append(held, c)
		mu.Unlock()
	}
	serve := func(c net.Conn) {
		var handshake [6]byte
		if _, err := io.ReadFull(c, handshake[:]); err != nil {
			return
		}
		if handshake[5] == 1 { // a shuffle connection
			var first [1]byte
			if _, err := io.ReadFull(c, first[:]); err == nil {
				select {
				case signal <- struct{}{}:
				default:
				}
			}
			return
		}
		up, err := net.Dial("tcp", real[0])
		if err != nil {
			return
		}
		defer up.Close()
		up.Write(handshake[:])
		go func() {
			io.Copy(up, c)
			up.Close()
		}()
		io.Copy(c, up)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			hold(c)
			go serve(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	return ln.Addr().String(), signal
}

// broadcastJoinSpec builds a Match job whose plan broadcasts its left side:
// the hints call L tiny next to R, so the optimizer replicates it whatever
// lN really is.
func broadcastJoinSpec(t *testing.T, lN, rN int) Spec {
	t.Helper()
	f := dataflow.NewFlow()
	l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: 20, AvgWidthBytes: 20})
	r := f.Source("R", []string{"rk", "rv"}, dataflow.Hints{Records: 1e6, AvgWidthBytes: 20})
	f.SetSink("out", f.Match("pair", testProg.Funcs["pair"], []string{"lk"}, []string{"rk"}, l, r,
		dataflow.Hints{KeyCardinality: 20}))
	if err := f.DeriveEffects(false); err != nil {
		t.Fatal(err)
	}
	lData, rData := make(record.DataSet, lN), make(record.DataSet, rN)
	for i := range lData {
		lData[i] = record.Record{record.Int(int64(i % 20)), record.Int(int64(i))}
	}
	for i := range rData {
		rData[i] = record.Record{record.Null, record.Null, record.Int(int64(i % 20)), record.Int(int64(i))}
	}
	return Spec{Name: "broadcast-join", Flow: f, MemoryBudget: 64 << 10,
		Sources: map[string]record.DataSet{"L": lData, "R": rData}}
}

// TestChaosSchedulerWorkerStalledBroadcastTimeout is the scheduler-level
// twin of the engine's stalled-broadcast cancellation test: a job whose
// plan broadcasts one join side to a worker that stops reading mid-transfer
// must be ended by JobTimeout — terminal, its grant and its slot returned,
// the trace closed with the error on the root and on the broadcast that
// absorbed it — where it used to hold both forever. (Named for the CI chaos
// and distributed jobs alike.)
func TestChaosSchedulerWorkerStalledBroadcastTimeout(t *testing.T) {
	addr, stalled := startStallingWorker(t)
	before := runtime.NumGoroutine()
	s := New(Config{MaxConcurrent: 1, DOP: 2, SpillDir: t.TempDir(), GlobalBudget: 1 << 20,
		Workers: []string{addr}, JobTimeout: 500 * time.Millisecond})

	// A few MB of L on the wire to each target.
	j, err := s.Submit(broadcastJoinSpec(t, 100000, 200))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, _, jerr := j.Wait(ctx)
	if !j.State().Terminal() {
		t.Fatalf("job still %v 20s after submission: JobTimeout does not reach a broadcast stalled on its worker", j.State())
	}
	if !errors.Is(jerr, context.DeadlineExceeded) || j.State() != StateFailed {
		t.Fatalf("job ended %v with %v, want failed with DeadlineExceeded", j.State(), jerr)
	}
	select {
	case <-stalled:
	default:
		t.Fatal("no shuffle connection ever reached the stalling worker — the job did not run distributed")
	}
	if m := s.Metrics(); m.GrantedBudget != 0 || m.Running != 0 || m.Failed != 1 {
		t.Fatalf("after the timeout: granted=%d running=%d failed=%d, want 0/0/1", m.GrantedBudget, m.Running, m.Failed)
	}
	tr := j.Trace()
	if root := tr.Spans()[0]; root.End.IsZero() || root.Err != jerr.Error() {
		t.Fatalf("root span end=%v err=%q, want closed with %q", root.End, root.Err, jerr.Error())
	}
	broadcast := false
	for _, sp := range tr.Spans() {
		if sp.End.IsZero() {
			t.Fatalf("span %q (%s) left open on the timed-out job", sp.Name, sp.Kind)
		}
		if sp.Name == "broadcast" && sp.Kind == obs.KindShip && sp.Err != "" {
			broadcast = true
		}
	}
	if !broadcast {
		t.Fatalf("no failed broadcast span — the plan did not broadcast, or the failure was not attributed to it:\n%s", tr.Table())
	}
	// The slot is free: shutdown drains at once.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}
