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
	"os"
	"sort"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/engine"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/workloads/clickstream"
	"blackboxflow/internal/workloads/textmine"
	"blackboxflow/internal/workloads/tpch"
)

func main() {
	task := flag.String("task", "q15", "task: q7, q15, clickstream, textmine")
	mode := flag.String("mode", "sca", "annotation mode: sca or manual")
	dop := flag.Int("dop", 4, "degree of parallelism")
	budget := flag.Int("membudget", 0, "memory budget in bytes for grouping shuffle receivers (0 = unlimited); applied to both the cost model and the engine")
	flag.Parse()

	action := flag.Arg(0)
	if action == "" {
		action = "plans"
	}

	manual := *mode == "manual"
	flow, data, err := buildTask(*task, manual)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch action {
	case "udfs":
		printed := map[string]bool{}
		for _, op := range flow.Operators() {
			if op.IsUDFOp() && !printed[op.UDF.Name] {
				printed[op.UDF.Name] = true
				fmt.Println(op.UDF)
			}
		}

	case "effects":
		for _, op := range flow.Operators() {
			if op.IsUDFOp() {
				fmt.Printf("%-22s %s\n", op.Name, op.Effect)
			}
		}

	case "plans", "optimize", "run":
		start := time.Now()
		ranked, err := optimizer.Plan(flow, *dop, float64(*budget), optimizer.NetProfile{})
		if err != nil {
			fatal(err)
		}
		planned, best := time.Since(start), ranked[0]
		switch action {
		case "plans":
			tree, err := optimizer.FromFlow(flow)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%d plans enumerated and costed in %v\n", len(ranked), planned.Round(time.Millisecond))
			show := ranked[:min(len(ranked), 20)]
			for _, rp := range show {
				marker := " "
				if rp.Tree.Key() == tree.Key() {
					marker = "*" // the implemented flow
				}
				fmt.Printf("%s rank %4d  cost %12.0f  %s\n", marker, rp.Rank, rp.Cost, rp.Tree)
			}
			if len(ranked) > len(show) {
				fmt.Printf("  ... %d more\n", len(ranked)-len(show))
			}

		case "optimize":
			fmt.Printf("best of %d plans (cost %.0f):\n\n%s", len(ranked), best.Cost, best.Phys.Indent())

		case "run":
			e := engine.New(*dop).WithMemoryBudget(*budget)
			for name, ds := range data {
				e.AddSource(name, ds)
			}
			start := time.Now()
			out, stats, err := e.Run(best.Phys)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("plan: %s\n%d output records in %v\n\n%s",
				best.Tree, len(out), time.Since(start).Round(time.Millisecond), stats)
		}

	default:
		fmt.Fprintf(os.Stderr, "unknown action %q\n", action)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func buildTask(task string, manual bool) (*dataflow.Flow, map[string]record.DataSet, error) {
	switch task {
	case "q7":
		m := tpch.ModeSCA
		if manual {
			m = tpch.ModeManual
		}
		g := tpch.DefaultGen()
		q, err := tpch.BuildQ7(m, g)
		if err != nil {
			return nil, nil, err
		}
		return q.Flow, g.Generate(q.Flow), nil
	case "q15":
		m := tpch.ModeSCA
		if manual {
			m = tpch.ModeManual
		}
		g := tpch.DefaultGen()
		q, err := tpch.BuildQ15(m, g)
		if err != nil {
			return nil, nil, err
		}
		return q.Flow, g.Generate(q.Flow), nil
	case "clickstream":
		m := clickstream.ModeSCA
		if manual {
			m = clickstream.ModeManual
		}
		g := clickstream.DefaultGen()
		t, err := clickstream.Build(m, g)
		if err != nil {
			return nil, nil, err
		}
		return t.Flow, g.Generate(t.Flow), nil
	case "textmine", "textmining":
		m := textmine.ModeSCA
		if manual {
			m = textmine.ModeManual
		}
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
