package engine

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
	"blackboxflow/internal/transport"
)

// This file is the distributed equivalence suite — the tentpole's
// acceptance pin: a flow sharded across 2+ worker processes through the
// TCP transport must produce output byte-identical to the single-process
// channel-transport run, at DOP 1, 2, 8, and 17, with the engine's
// combining and spilling machinery still engaged. By default the workers
// are in-process transport.Worker instances on loopback listeners (the
// wire, the framing, and the placement are fully real; only the process
// boundary is elided). When FLOWWORKER_BIN names a built cmd/flowworker
// binary — as the CI distributed job does — the workers are real separate
// processes instead.

// startWorkerAddrs launches n shuffle workers and returns their addresses.
func startWorkerAddrs(t *testing.T, n int) []string {
	t.Helper()
	if bin := os.Getenv("FLOWWORKER_BIN"); bin != "" {
		return startWorkerProcs(t, bin, n)
	}
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		w := transport.NewWorker(ln)
		done := make(chan error, 1)
		go func() { done <- w.Serve() }()
		t.Cleanup(func() {
			w.Close()
			if err := <-done; err != nil {
				t.Errorf("worker serve: %v", err)
			}
		})
		addrs[i] = w.Addr()
	}
	return addrs
}

// startWorkerProcs spawns real flowworker processes on ephemeral ports,
// reading each worker's listen address from its first stdout line (the
// cmd/flowworker contract).
func startWorkerProcs(t *testing.T, bin string, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
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
	}
	return addrs
}

// distPipeline is one flow the distributed suite runs on every transport
// placement: a plan, its sources, an optional memory budget, and the
// execution-path assertion that proves the run exercised what it claims
// (combining, spilling) rather than degenerating to a trivial path.
type distPipeline struct {
	name    string
	build   func(t *testing.T, dop int) *optimizer.PhysPlan
	sources map[string]record.DataSet
	budget  int
	check   func(t *testing.T, label string, stats *RunStats)
}

// distPipelines builds the three acceptance pipelines: a combined Reduce
// (wordcount with a combiner, so the combining senders run), a budgeted
// repartition join (working set over budget, so both shuffled sides spill
// and the Match executes as an external merge join) and a broadcast join
// (the left side replicated to every partition through the same sender →
// receiver stage, the right side forwarded).
func distPipelines(t *testing.T) []distPipeline {
	t.Helper()
	var pipelines []distPipeline

	{
		const n, words = 6000, 120
		prog := tac.MustParse(`
func reduce wcount($g) {
	$first := groupget $g 0
	$or := copyrec $first
	$s := agg sum $g 1
	setfield $or 1 $s
	emit $or
}`)
		udf, _ := prog.Lookup("wcount")
		f := dataflow.NewFlow()
		src := f.Source("words", []string{"word", "n"}, dataflow.Hints{Records: n, AvgWidthBytes: 16})
		red := f.Reduce("wcount", udf, []string{"word"}, src, dataflow.Hints{KeyCardinality: words})
		red.SetCombiner(udf)
		f.SetSink("out", red)
		if err := f.DeriveEffects(false); err != nil {
			t.Fatal(err)
		}
		tree, err := optimizer.FromFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		pipelines = append(pipelines, distPipeline{
			name: "combined-reduce",
			build: func(t *testing.T, dop int) *optimizer.PhysPlan {
				return optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop).Optimize(tree)
			},
			sources: map[string]record.DataSet{"words": wordcountData(n, words)},
			check: func(t *testing.T, label string, stats *RunStats) {
				if stats.TotalCombinerCalls() == 0 {
					t.Fatalf("%s: no combiner calls — the combining path did not run", label)
				}
			},
		})
	}

	{
		// Key-determined payloads keep the canonical join order
		// scheduler-independent; the scale and budget mirror
		// TestSpillJoinEquivalence, which pins that both shuffled sides
		// spill under 32 KB at every DOP in the sweep.
		const lN, rN, keys = 6000, 3000, 300
		lData, rData := joinTestData(lN, keys, rN, keys, 0)
		f, tree := buildJoinFlow(t, lN, rN, keys)
		pipelines = append(pipelines, distPipeline{
			name: "budgeted-join",
			build: func(t *testing.T, dop int) *optimizer.PhysPlan {
				plan := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop).Optimize(tree)
				// Pin the repartition merge join so the spill path is on the
				// table at every DOP (broadcast would keep one side resident).
				match := findMatchNode(plan)
				if match == nil {
					t.Fatal("no Match in plan")
				}
				match.Ship = []optimizer.Shipping{optimizer.ShipPartition, optimizer.ShipPartition}
				match.Local = optimizer.LocalMergeJoin
				return plan
			},
			sources: map[string]record.DataSet{"L": lData, "R": rData},
			budget:  32 << 10,
			check: func(t *testing.T, label string, stats *RunStats) {
				if stats.TotalSpillRuns() == 0 {
					t.Fatalf("%s: no spill runs — the budget is not exercising the out-of-core path", label)
				}
			},
		})
	}
	{
		const lN, rN, keys = 3000, 6000, 300
		lData, rData := joinTestData(lN, keys, rN, keys, 0)
		f, tree := buildJoinFlow(t, lN, rN, keys)
		pipelines = append(pipelines, distPipeline{
			name: "broadcast-join",
			build: func(t *testing.T, dop int) *optimizer.PhysPlan {
				plan := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop).Optimize(tree)
				match := findMatchNode(plan)
				if match == nil {
					t.Fatal("no Match in plan")
				}
				match.Ship = []optimizer.Shipping{optimizer.ShipBroadcast, optimizer.ShipForward}
				match.Local = optimizer.LocalHashJoin
				return plan
			},
			sources: map[string]record.DataSet{"L": lData, "R": rData},
			check: func(t *testing.T, label string, stats *RunStats) {
				// The un-replicated count in, the left side's wire size once
				// per target partition out.
				for _, st := range stats.PerOp {
					if size := lData.TotalSize(); st.Name == "J" && (st.InRecords != lN+rN || st.ShippedBytes < size || st.ShippedBytes%size != 0) {
						t.Fatalf("%s: J took in %d records and shipped %d bytes, want %d records and a multiple of %d bytes", label, st.InRecords, st.ShippedBytes, lN+rN, size)
					}
				}
			},
		})
	}
	return pipelines
}

// runPipeline executes one pipeline on a fresh engine over the given
// transport (nil = the default channel transport).
func runPipeline(t *testing.T, pl distPipeline, plan *optimizer.PhysPlan, dop int, tp transport.Transport, spillDir string) (record.DataSet, *RunStats) {
	t.Helper()
	e := New(dop)
	e.Transport = tp
	e.MemoryBudget = pl.budget
	e.SpillDir = spillDir
	for name, ds := range pl.sources {
		e.AddSource(name, ds)
	}
	out, stats, err := e.Run(plan)
	if err != nil {
		t.Fatalf("%s: %v", pl.name, err)
	}
	return out, stats
}

// TestDistributedEquivalence pins the tentpole acceptance: every pipeline,
// at DOP {1, 2, 8, 17}, produces byte-identical output whether its
// shuffles run in-process (channel transport) or across two workers over
// TCP — with every partition remote, and with a mixed local/remote
// placement — and the combining/spilling machinery engages identically.
func TestDistributedEquivalence(t *testing.T) {
	addrs := startWorkerAddrs(t, 2)
	spillDir := t.TempDir()
	for _, pl := range distPipelines(t) {
		pl := pl
		t.Run(pl.name, func(t *testing.T) {
			for _, dop := range differentialDOPs {
				t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
					plan := pl.build(t, dop)
					baseline, stats := runPipeline(t, pl, plan, dop, nil, spillDir)
					pl.check(t, pl.name+" channel", stats)

					for _, cfg := range []struct {
						name  string
						slots int
					}{
						{"all-remote", 0},
						{"mixed", 2},
					} {
						tp, err := transport.NewTCP(transport.TCPConfig{Workers: addrs, LocalSlots: cfg.slots})
						if err != nil {
							t.Fatal(err)
						}
						out, tcpStats := runPipeline(t, pl, plan, dop, tp, spillDir)
						tp.Close()
						label := fmt.Sprintf("%s tcp/%s dop %d", pl.name, cfg.name, dop)
						requireByteIdentical(t, out, baseline, label+" vs channel")
						pl.check(t, label, tcpStats)
						if got, want := tcpStats.TotalShippedBytes(), stats.TotalShippedBytes(); got != want {
							t.Fatalf("%s: shipped %d bytes, channel shipped %d — byte accounting must not depend on the transport", label, got, want)
						}
					}
				})
			}
		})
	}
}

// TestChaosTCPConnFaults sweeps seeded single-fault connection schedules
// across a distributed combined-reduce run and a distributed broadcast join: a connection dropped mid-batch
// must surface as a job error (never a hang), a stalled connection must be
// absorbed, nothing may leak, and the engine must run fault-free and
// byte-identical immediately afterwards — the transport's entry in the
// chaos equivalence suite, mirroring the faultfs disk sweep.
func TestChaosTCPConnFaults(t *testing.T) {
	addrs := startWorkerAddrs(t, 2)
	pipelines := distPipelines(t)
	// One plan per shipping strategy: the combined Reduce's partitioned
	// edge and the broadcast join's broadcast edge. A dropped connection
	// breaks the one shipped edge of the plan: the error names the operator
	// it fed and the phase.
	for _, c := range []struct {
		pl        distPipeline
		ship      optimizer.Shipping
		op, phase string
	}{
		{pipelines[0], optimizer.ShipPartition, "wcount", "shuffle"},
		{pipelines[2], optimizer.ShipBroadcast, "J", "broadcast"},
	} {
		t.Run(c.pl.name, func(t *testing.T) {
			const dop = 8
			plan := c.pl.build(t, dop)
			if !planShips(plan, c.ship) {
				t.Fatalf("plan has no %v edge:\n%s", c.ship, plan)
			}
			chaosTCPConnFaults(t, addrs, c.pl, plan, dop, fmt.Sprintf("engine: %s: %s: ", c.op, c.phase))
		})
	}
}

// planShips reports whether any edge of the plan ships by s.
func planShips(p *optimizer.PhysPlan, s optimizer.Shipping) bool {
	for i, in := range p.Inputs {
		if (i < len(p.Ship) && p.Ship[i] == s) || planShips(in, s) {
			return true
		}
	}
	return false
}

func chaosTCPConnFaults(t *testing.T, addrs []string, pl distPipeline, plan *optimizer.PhysPlan, dop int, wantPrefix string) {
	spillDir := t.TempDir()
	baseline, _ := runPipeline(t, pl, plan, dop, nil, spillDir)
	before := runtime.NumGoroutine()

	// Count the fault surface: every connection Read/Write of one clean
	// distributed run.
	counter := &transport.FaultDialer{}
	tp, err := transport.NewTCP(transport.TCPConfig{Workers: addrs, LocalSlots: 2, Dialer: counter})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := runPipeline(t, pl, plan, dop, tp, spillDir)
	tp.Close()
	requireByteIdentical(t, out, baseline, "counting run vs channel baseline")
	nOps := counter.Ops()
	if nOps < 8 {
		t.Fatalf("counting run observed only %d connection operations", nOps)
	}

	stride := nOps / 12
	if stride < 1 {
		stride = 1
	}
	faulted := 0
	for _, kind := range []transport.ConnFault{transport.ConnDrop, transport.ConnStall} {
		for at := 1 + chaosSeed(t)%stride; at <= nOps; at += stride {
			label := fmt.Sprintf("kind=%v/at=%d", kind, at)
			dialer := &transport.FaultDialer{At: at, Kind: kind, Delay: time.Millisecond}
			ftp, err := transport.NewTCP(transport.TCPConfig{Workers: addrs, LocalSlots: 2, Dialer: dialer})
			if err != nil {
				t.Fatal(err)
			}
			e := New(dop).WithTransport(ftp)
			e.MemoryBudget = pl.budget
			e.SpillDir = spillDir
			for name, ds := range pl.sources {
				e.AddSource(name, ds)
			}
			out, _, err := runWithWatchdog(t, e, plan, label)
			ftp.Close()
			switch {
			case err != nil:
				if !dialer.Fired() {
					t.Fatalf("%s: error %v without the fault firing", label, err)
				}
				if kind == transport.ConnStall {
					t.Fatalf("%s: stall fault surfaced an error: %v", label, err)
				}
				var attributed *opError
				if !errors.As(err, &attributed) || !strings.HasPrefix(err.Error(), wantPrefix) {
					t.Fatalf("%s: error %v is not attributed as %q", label, err, wantPrefix)
				}
				faulted++
			default:
				// No error: the fault did not fire (index past this run's op
				// count) or was a stall — output must be intact.
				requireByteIdentical(t, out, baseline, label)
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no dropped connection in the sweep ever surfaced an error — the injector is not reaching the shuffle")
	}

	// The machinery is reusable after the sweep: a clean distributed run is
	// byte-identical, and no goroutines leaked from the faulted sessions.
	ctp, err := transport.NewTCP(transport.TCPConfig{Workers: addrs, LocalSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, _ = runPipeline(t, pl, plan, dop, ctp, spillDir)
	ctp.Close()
	requireByteIdentical(t, out, baseline, "clean rerun after fault sweep")
	waitGoroutines(t, before)
}

// trackingDialer dials real TCP with a small send buffer and counts the
// connections that are still open.
type trackingDialer struct{ open atomic.Int64 }

type trackedConn struct {
	net.Conn
	closed sync.Once
	d      *trackingDialer
}

func (d *trackingDialer) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	var nd net.Dialer
	c, err := nd.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	d.open.Add(1)
	return &trackedConn{Conn: c, d: d}, nil
}

func (c *trackedConn) Close() error {
	c.closed.Do(func() { c.d.open.Add(-1) })
	return c.Conn.Close()
}

// TestDistributedBroadcastCancelStalledWorker is the regression test for a
// cancelled run wedged in a TCP broadcast. The worker here accepts the
// shuffle connection, reads the handshake and the first byte of the first
// frame, and then never reads or relays again — not a ConnStall fault, whose
// time.Sleep ends by itself and which no Close can interrupt — so with the
// socket buffers pinned small the broadcast's senders block in Write and
// its collectors in Recv. Only closing the session on cancellation gets
// them out; a broadcast used to pass the context to the dial alone and the
// run never returned. It must return the cancellation's cause promptly and
// leave no goroutine or connection behind.
func TestDistributedBroadcastCancelStalledWorker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	firstFrame := make(chan struct{}, 1)
	accepted := make(chan net.Conn, 1) // one worker, one shuffle session: one connection
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
		c.(*net.TCPConn).SetReadBuffer(4 << 10)
		var handshakeAndFirstByte [7]byte
		if _, err := io.ReadFull(c, handshakeAndFirstByte[:]); err == nil {
			firstFrame <- struct{}{}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	})

	// ~1.3 MB of left-side records to every target: far more than the few
	// KB the pinned socket buffers hold.
	const lN, rN, keys, dop = 60000, 100, 100, 2
	lData, rData := joinTestData(lN, keys, rN, keys, 0)
	f, tree := buildJoinFlow(t, lN, rN, keys)
	plan := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), dop).Optimize(tree)
	match := findMatchNode(plan)
	match.Ship = []optimizer.Shipping{optimizer.ShipBroadcast, optimizer.ShipForward}
	match.Local = optimizer.LocalHashJoin

	dialer := &trackingDialer{}
	tp, err := transport.NewTCP(transport.TCPConfig{Workers: []string{ln.Addr().String()}, Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	e := New(dop).WithTransport(tp)
	e.AddSource("L", lData)
	e.AddSource("R", rData)

	before := runtime.NumGoroutine()
	cause := errors.New("cancelled mid-broadcast by the test")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cancelled := make(chan time.Time, 1)
	go func() {
		<-firstFrame
		cancelled <- time.Now()
		cancel(cause)
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := e.RunContext(ctx, plan)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("RunContext still blocked 20s into a broadcast to a stalled worker: cancellation does not reach the session")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want the cancellation cause", err)
	}
	if took := time.Since(<-cancelled); took > 2*time.Second {
		t.Fatalf("run returned %v after cancellation, want under 2s", took)
	}
	waitGoroutines(t, before)
	if n := dialer.open.Load(); n != 0 {
		t.Fatalf("%d worker connections still open after the cancelled run", n)
	}
}
