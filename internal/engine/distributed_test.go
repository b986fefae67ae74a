package engine

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
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

// distPipelines builds the two acceptance pipelines: a combined Reduce
// (wordcount with a combiner, so the combining senders run) and a budgeted
// repartition join (working set over budget, so both shuffled sides spill
// and the Match executes as an external merge join).
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
// across a distributed combined-reduce run: a connection dropped mid-batch
// must surface as a job error (never a hang), a stalled connection must be
// absorbed, nothing may leak, and the engine must run fault-free and
// byte-identical immediately afterwards — the transport's entry in the
// chaos equivalence suite, mirroring the faultfs disk sweep.
func TestChaosTCPConnFaults(t *testing.T) {
	addrs := startWorkerAddrs(t, 2)
	pl := distPipelines(t)[0] // combined-reduce
	const dop = 8
	plan := pl.build(t, dop)
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
		for at := int64(1); at <= nOps; at += stride {
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
				// A dropped connection breaks the one shuffle of this plan:
				// the error names the Reduce it fed and the phase.
				var attributed *opError
				if !errors.As(err, &attributed) || attributed.op != "wcount" || !strings.Contains(err.Error(), "engine: wcount: shuffle: ") {
					t.Fatalf("%s: error %v is not attributed to operator wcount's shuffle", label, err)
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
