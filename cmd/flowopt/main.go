// Command flowopt inspects, optimizes, and runs the built-in PACT tasks
// (the four workloads of the paper's evaluation).
//
// Usage:
//
//	flowopt -task q7|q15|clickstream|textmine [-mode sca|manual] [-dop N] [-membudget BYTES] <action>
//
// Actions:
//
//	udfs      print the task's UDFs in three-address code
//	effects   print each operator's SCA-derived (or manual) properties
//	plans     enumerate and print all valid operator orders with costs
//	optimize  print the chosen physical execution plan
//	run       execute the optimal plan and print runtime statistics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/engine"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is flowopt on the given arguments: it returns the exit status — 0, 1
// when the task cannot be built, planned or run, 2 for a usage error (a bad
// flag, an unknown action, or any argument after the action).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: flowopt -task q7|q15|clickstream|textmine [-mode sca|manual] [-dop N] [-membudget BYTES] udfs|effects|plans|optimize|run")
		fs.PrintDefaults()
	}
	task := fs.String("task", "q15", "task: q7, q15, clickstream, textmine")
	mode := fs.String("mode", "sca", "annotation mode: sca or manual")
	dop := fs.Int("dop", 4, "degree of parallelism")
	budget := fs.Int("membudget", 0, "memory budget in bytes for grouping shuffle receivers (0 = unlimited); applied to both the cost model and the engine")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintf(stderr, "flowopt: unexpected argument %q after the action; flags go before it\n", fs.Arg(1))
		fs.Usage()
		return 2
	}
	action := fs.Arg(0)
	if action == "" {
		action = "plans"
	}

	m := workloads.ModeSCA
	if *mode == "manual" {
		m = workloads.ModeManual
	}
	flow, data, err := buildTask(*task, m)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	switch action {
	case "udfs":
		printed := map[string]bool{}
		for _, op := range flow.Operators() {
			if op.IsUDFOp() && !printed[op.UDF.Name] {
				printed[op.UDF.Name] = true
				fmt.Fprintln(stdout, op.UDF)
			}
		}

	case "effects":
		for _, op := range flow.Operators() {
			if op.IsUDFOp() {
				fmt.Fprintf(stdout, "%-22s %s\n", op.Name, op.Effect)
			}
		}

	case "plans":
		start := time.Now()
		ranked, err := optimizer.Plan(flow, *dop, float64(*budget), optimizer.NetProfile{})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		planned := time.Since(start)
		tree, err := optimizer.FromFlow(flow)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		enum := ranked[0].Enum
		fmt.Fprintf(stdout, "%d plans enumerated and costed in %v (%d sub-flows, %d exchanges, %d kept candidates)\n",
			len(ranked), planned.Round(time.Millisecond), enum.Subflows, enum.Exchanges, enum.Kept)
		show := ranked[:min(len(ranked), 20)]
		for _, rp := range show {
			marker := " "
			if rp.Tree.Key() == tree.Key() {
				marker = "*" // the implemented flow
			}
			fmt.Fprintf(stdout, "%s rank %4d  cost %12.0f  %s\n", marker, rp.Rank, rp.Cost, rp.Tree)
		}
		if len(ranked) > len(show) {
			fmt.Fprintf(stdout, "  ... %d more\n", len(ranked)-len(show))
		}

	case "optimize", "run":
		best, err := optimizer.Best(flow, *dop, float64(*budget), optimizer.NetProfile{})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if action == "optimize" {
			fmt.Fprintf(stdout, "best of %d plans (cost %.0f):\n\n%s", best.Enum.Expanded, best.Cost, best.Phys.Indent())
			break
		}
		e := engine.New(*dop).WithMemoryBudget(*budget)
		for name, ds := range data {
			e.AddSource(name, ds)
		}
		start := time.Now()
		out, stats, err := e.Run(best.Phys)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "plan: %s\n%d output records in %v\n\n%s",
			best.Tree, len(out), time.Since(start).Round(time.Millisecond), stats)

	default:
		fmt.Fprintf(stderr, "unknown action %q\n", action)
		return 2
	}
	return 0
}

func buildTask(task string, m workloads.Mode) (*dataflow.Flow, map[string]record.DataSet, error) {
	switch task {
	case "q7":
		g := tpch.DefaultGen()
		q, err := tpch.BuildQ7(m, g)
		if err != nil {
			return nil, nil, err
		}
		return q.Flow, g.Generate(q.Flow), nil
	case "q15":
		g := tpch.DefaultGen()
		q, err := tpch.BuildQ15(m, g)
		if err != nil {
			return nil, nil, err
		}
		return q.Flow, g.Generate(q.Flow), nil
	case "clickstream":
		g := clickstream.DefaultGen()
		t, err := clickstream.Build(m, g)
		if err != nil {
			return nil, nil, err
		}
		return t.Flow, g.Generate(t.Flow), nil
	case "textmine", "textmining":
		g := textmine.DefaultGen()
		t, err := textmine.Build(m, g)
		if err != nil {
			return nil, nil, err
		}
		return t.Flow, g.Generate(t.Flow), nil
	default:
		names := []string{"q7", "q15", "clickstream", "textmine"}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown task %q (want one of %v)", task, names)
	}
}
