package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/tac"
)

// This file is the engine half of the chaos equivalence suite: seeded
// single-fault schedules swept across the spill pipelines of all three
// spill-capable operators (Reduce, CoGroup, Match). For every fault point
// and fault kind the invariants are the same — the run terminates (never
// hangs), an error-producing fault surfaces as an error wrapping the
// injected one, a latency fault changes nothing, no spill files or
// goroutines outlive the run, and the same engine immediately afterwards
// runs fault-free and byte-identical to the unfaulted baseline. The fault
// schedule is a pure function of (operation index, kind), so any failure
// replays exactly. See internal/faultfs and DESIGN.md ("Failure model").

// chaosSeed returns the suite's seed: FAULTFS_SEED when set (the CI chaos
// job runs a small seed matrix), else 1.
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

// chaosShape is one spill pipeline the fault sweep exercises.
type chaosShape struct {
	name    string
	op      string // the spilling operator every injected fault must be attributed to
	plan    *optimizer.PhysPlan
	sources map[string]record.DataSet
	budget  int
}

// chaosShapes builds the three spill-pipeline shapes, each sized so its
// shuffled inputs overflow the budget and write several runs per partition.
func chaosShapes(t *testing.T) []chaosShape {
	t.Helper()
	var shapes []chaosShape

	// Reduce: wordcount over 6000 records, 300 keys.
	{
		f, tree := buildWordcountFlow(t, 6000, 300)
		po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 3)
		shapes = append(shapes, chaosShape{
			name:    "reduce",
			op:      "sumPerWord",
			plan:    po.Optimize(tree),
			sources: map[string]record.DataSet{"words": wordcountData(6000, 300)},
			budget:  96 * 3,
		})
	}

	// CoGroup: order-insensitive aggregate of both sides per key.
	{
		prog := frontend.MustCompile(`
cogroup cg(g1, g2) {
	out := new()
	n1 := g1.size()
	if n1 != 0 {
		r := g1.at(0)
		k := r[0]
	} else {
		r2 := g2.at(0)
		k := r2[2]
	}
	out[0] = k
	out[1] = sum(g1, 1)
	n2 := g2.size()
	out[3] = n2
	emit out
}`)
		f := dataflow.NewFlow()
		l := f.Source("L", []string{"lk", "lv"}, dataflow.Hints{Records: 3000, AvgWidthBytes: 18})
		r := f.Source("R", []string{"rk"}, dataflow.Hints{Records: 2000, AvgWidthBytes: 9})
		f.DeclareAttr("matches")
		cg := f.CoGroup("CG", func() *tac.Func { u, _ := prog.Lookup("cg"); return u }(),
			[]string{"lk"}, []string{"rk"}, l, r, dataflow.Hints{KeyCardinality: 200})
		f.SetSink("Out", cg)
		if err := f.DeriveEffects(false); err != nil {
			t.Fatal(err)
		}
		tree, err := optimizer.FromFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		var lData, rData record.DataSet
		for i := 0; i < 3000; i++ {
			lData = append(lData, record.Record{record.Int(int64(i % 200)), record.Int(int64(i))})
		}
		for i := 0; i < 2000; i++ {
			rData = append(rData, record.Record{record.Null, record.Null, record.Int(int64(i%150 + 100))})
		}
		po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 3)
		shapes = append(shapes, chaosShape{
			name:    "cogroup",
			op:      "CG",
			plan:    po.Optimize(tree),
			sources: map[string]record.DataSet{"L": lData, "R": rData},
			budget:  96 * 3,
		})
	}

	// Match: per-side-unique keys with key-determined payloads, so the
	// canonical join order makes two runs byte-comparable (the repo's
	// convention for byte-identity across scheduler interleavings).
	{
		prog := frontend.MustCompile(`
match jn(l, r) {
	o := concat(l, r)
	emit o
}`)
		const nKeys = 900
		f := dataflow.NewFlow()
		l := f.Source("L", []string{"a0", "a1"}, dataflow.Hints{Records: nKeys, AvgWidthBytes: 18})
		r := f.Source("R", []string{"a2", "a3"}, dataflow.Hints{Records: nKeys, AvgWidthBytes: 18})
		jn, _ := prog.Lookup("jn")
		m := f.Match("J", jn, []string{"a0"}, []string{"a2"}, l, r,
			dataflow.Hints{KeyCardinality: nKeys})
		f.SetSink("out", m)
		if err := f.DeriveEffects(false); err != nil {
			t.Fatal(err)
		}
		tree, err := optimizer.FromFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		lData := make(record.DataSet, nKeys)
		rData := make(record.DataSet, nKeys)
		for i := 0; i < nKeys; i++ {
			k := int64(i)
			lData[i] = record.Record{record.Int(k), record.Int(k*3 + 1)}
			rData[i] = record.Record{record.Null, record.Null, record.Int(k), record.Int(k*5 + 2)}
		}
		po := optimizer.NewPhysicalOptimizer(optimizer.NewEstimator(f), 3)
		shapes = append(shapes, chaosShape{
			name:    "match",
			op:      "J",
			plan:    po.Optimize(tree),
			sources: map[string]record.DataSet{"L": lData, "R": rData},
			budget:  96 * 3,
		})
	}
	return shapes
}

// runWithWatchdog executes the plan and fails the test if the run does not
// terminate — the "never hangs" half of the chaos invariant.
func runWithWatchdog(t *testing.T, e *Engine, plan *optimizer.PhysPlan, label string) (record.DataSet, *RunStats, error) {
	t.Helper()
	type result struct {
		out   record.DataSet
		stats *RunStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		out, stats, err := e.RunContext(context.Background(), plan)
		done <- result{out, stats, err}
	}()
	select {
	case r := <-done:
		return r.out, r.stats, r.err
	case <-time.After(60 * time.Second):
		t.Fatalf("%s: run hung past the watchdog", label)
		return nil, nil, nil
	}
}

// TestChaosSpillPipelinesSingleFault sweeps seeded single-fault schedules
// across the Reduce, CoGroup, and Match spill pipelines and asserts the
// invariants that must survive any single filesystem fault.
func TestChaosSpillPipelinesSingleFault(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is not a -short test")
	}
	seed := chaosSeed(t)
	kinds := []faultfs.Kind{faultfs.ENOSPC, faultfs.ShortWrite, faultfs.ReadErr, faultfs.Latency}

	for _, shape := range chaosShapes(t) {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			dir := t.TempDir()
			e := New(3)
			e.SpillDir = dir
			e.MemoryBudget = shape.budget
			for name, ds := range shape.sources {
				e.AddSource(name, ds)
			}
			before := runtime.NumGoroutine()

			baseline, stats, err := runWithWatchdog(t, e, shape.plan, shape.name+"/baseline")
			if err != nil {
				t.Fatal(err)
			}
			if stats.TotalSpillRuns() == 0 {
				t.Fatalf("%s baseline wrote no spill runs — the sweep would exercise nothing", shape.name)
			}
			assertNoSpillFiles(t, dir)

			// Count the fault surface: every spill-path filesystem
			// operation of one representative run.
			counter := faultfs.NewInjector(faultfs.OS{}, 0, faultfs.ENOSPC)
			e.FS = counter
			if _, _, err := runWithWatchdog(t, e, shape.plan, shape.name+"/count"); err != nil {
				t.Fatal(err)
			}
			nOps := counter.Ops()
			if nOps == 0 {
				t.Fatalf("%s: counting run observed no filesystem operations", shape.name)
			}

			// Sweep fault points across the op range; the stride
			// bounds the sweep to ~24 points per kind and the seed
			// shifts which exact indices the CI matrix covers.
			stride := nOps / 24
			if stride < 1 {
				stride = 1
			}
			offset := seed % stride
			faulted := 0
			for _, kind := range kinds {
				for at := 1 + offset; at <= nOps; at += stride {
					label := fmt.Sprintf("%s/kind=%v/at=%d", shape.name, kind, at)
					inj := faultfs.NewInjector(faultfs.OS{}, at, kind)
					inj.Delay = time.Millisecond
					e.FS = inj
					out, _, err := runWithWatchdog(t, e, shape.plan, label)
					switch {
					case err != nil:
						// A failed run must fail *because of* the
						// injected fault, and latency must never
						// produce an error.
						if !inj.Fired() {
							t.Fatalf("%s: error %v without the fault firing", label, err)
						}
						if kind == faultfs.Latency {
							t.Fatalf("%s: latency fault surfaced an error: %v", label, err)
						}
						if !faultfs.IsInjected(err) {
							t.Fatalf("%s: error %v does not wrap the injected fault", label, err)
						}
						// Whichever phase the fault hit — a collector's run
						// write or the local strategy's merge read — the
						// error names the operator it broke.
						var attributed *opError
						if !errors.As(err, &attributed) || attributed.op != shape.op {
							t.Fatalf("%s: error %v is not attributed to operator %s", label, err, shape.op)
						}
						faulted++
					default:
						// No error: the fault did not fire, was
						// latency-only, or the pipeline absorbed it —
						// output must be intact.
						requireByteIdentical(t, out, baseline, label)
					}
					// No spill file outlives its run, faulted or not.
					assertNoSpillFiles(t, dir)
				}

				// The engine must stay usable after every kind's
				// sub-sweep: a fault-free rerun on the same engine is
				// byte-identical.
				e.FS = nil
				out, _, err := runWithWatchdog(t, e, shape.plan, shape.name+"/rerun")
				if err != nil {
					t.Fatalf("%s: fault-free rerun after %v sweep failed: %v", shape.name, kind, err)
				}
				requireByteIdentical(t, out, baseline, shape.name+"/rerun after "+kind.String())
				assertNoSpillFiles(t, dir)
			}
			if faulted == 0 {
				t.Fatalf("%s: no fault in the sweep ever surfaced an error — the injector is not reaching the spill path", shape.name)
			}
			waitGoroutines(t, before)
		})
	}
}
